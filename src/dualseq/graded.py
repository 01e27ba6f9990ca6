"""Degree-``n`` graded Hom elements between two sequences.

An element of ``Hom^n(V, W)`` is a family of matrices ``f^i : V^i -> W^(n+i)``.
Between tailed sequences the family is stored on a finite window together
with one matrix per parity on each side: outside the window every quantity
in play (dimensions, transition maps, and the elements this package ever
constructs) depends on the degree only through its parity, because ISO tails
carry the alternating-sign normal form.  The stored window always contains
the combined window of source and target, so the tail matrices have constant
shapes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Tuple

from .errors import ValidationFailed
from .linalg import Matrix, _numerators
from .seq import Seq, shift as shift_seq


def base_window(src: Seq, dst: Seq, degree: int) -> tuple:
    return (min(src.lo, dst.lo - degree), max(src.hi, dst.hi - degree))


@dataclass(frozen=True, eq=False, slots=True)
class GradedHomElement:
    src: Seq
    dst: Seq
    degree: int
    lo: int
    comps: Tuple[Matrix, ...]
    ltail: Tuple[Matrix, Matrix]   # indexed by degree parity (even, odd)
    rtail: Tuple[Matrix, Matrix]
    hi: int = field(init=False, repr=False)     # the last stored degree, set once

    def __post_init__(self):
        src_dim, dst_dim, n = self.src.dim, self.dst.dim, self.degree
        lo, hi = self.lo, self.lo + len(self.comps) - 1
        object.__setattr__(self, "hi", hi)
        blo, bhi = base_window(self.src, self.dst, n)
        if lo > blo or hi < bhi:
            raise ValidationFailed("stored window must contain the combined window")
        for i, m in enumerate(self.comps, lo):
            if m.rows != dst_dim(n + i) or m.cols != src_dim(i):
                raise ValidationFailed(f"component at degree {i} has wrong shape")
        for par in (0, 1):
            for mat, probe in ((self.ltail[par], lo - 2 + (lo - par) % 2),
                               (self.rtail[par], hi + 2 - (hi - par) % 2)):
                if mat.rows != dst_dim(n + probe) or mat.cols != src_dim(probe):
                    raise ValidationFailed("tail matrix has wrong shape")

    def component(self, i: int) -> Matrix:
        if i < self.lo:
            return self.ltail[i % 2]
        if i > self.hi:
            return self.rtail[i % 2]
        return self.comps[i - self.lo]

    @property
    def is_zero(self) -> bool:
        return (all(m.is_zero for m in self.comps)
                and all(m.is_zero for m in self.ltail)
                and all(m.is_zero for m in self.rtail))

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedHomElement):
            return NotImplemented
        if (self.src, self.dst, self.degree) != (other.src, other.dst, other.degree):
            return False
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        if any(self.component(i) != other.component(i) for i in range(lo, hi + 1)):
            return False
        return self.ltail == other.ltail and self.rtail == other.rtail

    def __hash__(self):
        raise TypeError("GradedHomElement is not hashable")

    # -- linear structure ----------------------------------------------

    def __add__(self, other: "GradedHomElement") -> "GradedHomElement":
        if (self.src, self.dst, self.degree) != (other.src, other.dst, other.degree):
            raise ValidationFailed("cannot add graded elements of different type")
        lo = min(self.lo, other.lo)
        hi = max(self.hi, other.hi)
        return make_element(self.src, self.dst, self.degree, lo, hi,
                            lambda i: self.component(i) + other.component(i))

    def __sub__(self, other: "GradedHomElement") -> "GradedHomElement":
        return self + (-other)

    def __neg__(self) -> "GradedHomElement":
        return make_element(self.src, self.dst, self.degree, self.lo, self.hi,
                            lambda i: -self.component(i))

    def scale(self, c) -> "GradedHomElement":
        return make_element(self.src, self.dst, self.degree, self.lo, self.hi,
                            lambda i: self.component(i).scale(c))


def make_element(src: Seq, dst: Seq, degree: int, lo: int, hi: int,
                 fn: Callable[[int], Matrix]) -> GradedHomElement:
    """Build an element from a component function, in normal form.

    ``fn`` must be total and parity-periodic below/above the requested
    window; the tail matrices are sampled just outside it, and ``_trimmed``
    stores the element on the smallest window its components allow.
    """
    blo, bhi = base_window(src, dst, degree)
    lo, hi = min(lo, blo), max(hi, bhi)
    comps = [fn(i) for i in range(lo, hi + 1)]
    # the tails, by parity (even, odd), sampled at lo-1, lo-2, hi+1, hi+2 in turn
    l1, l2, r1, r2 = fn(lo - 1), fn(lo - 2), fn(hi + 1), fn(hi + 2)
    return _trimmed(src, dst, degree, (blo, bhi), lo, comps,
                    (l1, l2) if lo % 2 else (l2, l1), (r1, r2) if hi % 2 else (r2, r1))


def _trimmed(src: Seq, dst: Seq, degree: int, window: tuple, lo: int, comps: list,
             ltail: tuple, rtail: tuple) -> GradedHomElement:
    """``comps`` from degree ``lo`` on, with these tails, in normal form: as
    ``make_seq`` trims a sequence, each edge component equal to the tail of
    its side and parity is dropped, but none inside ``window``, the base window."""
    blo, bhi = window
    start, stop = lo, lo + len(comps) - 1
    while start < blo and comps[start - lo] == ltail[start % 2]:
        start += 1
    while stop > bhi and comps[stop - lo] == rtail[stop % 2]:
        stop -= 1
    return GradedHomElement(src, dst, degree, start, tuple(comps[start - lo:stop - lo + 1]),
                            ltail, rtail)


def zero_element(src: Seq, dst: Seq, degree: int) -> GradedHomElement:
    """The zero element in normal form: shared zero blocks on
    ``base_window``, and beyond it one zero block per side, whose shape is
    given by the stable dimensions of that side."""
    blo, bhi = base_window(src, dst, degree)
    field, z = src.field, Matrix.zeros
    comps = tuple(z(field, dst.dim(degree + i), src.dim(i)) for i in range(blo, bhi + 1))
    lt = z(field, dst.stable_dim("left"), src.stable_dim("left"))
    rt = z(field, dst.stable_dim("right"), src.stable_dim("right"))
    return GradedHomElement(src, dst, degree, blo, comps, (lt, lt), (rt, rt))


def identity_element(v: Seq) -> GradedHomElement:
    return make_element(v, v, 0, v.lo, v.hi,
                        lambda i: Matrix.identity(v.field, v.dim(i)))


def compose(g: GradedHomElement, f: GradedHomElement) -> GradedHomElement:
    """Composite ``g o f`` of ``f: X -> Y`` (degree m) and ``g: Y -> Z`` (degree n)."""
    if f.dst != g.src:
        raise ValidationFailed("composition target/source mismatch")
    m = f.degree
    lo = min(f.lo, g.lo - m)
    hi = max(f.hi, g.hi - m)
    return make_element(f.src, g.dst, m + g.degree, lo, hi,
                        lambda i: g.component(m + i) @ f.component(i))


def differential(f: GradedHomElement) -> GradedHomElement:
    """``d(f)^i = d_W^(n+i) f^i - (-1)^n f^(i+1) d_V^i`` for ``f`` of degree n."""
    n = f.degree
    src, dst = f.src, f.dst
    sign = 1 if n % 2 == 0 else -1

    def fn(i: int) -> Matrix:
        a = dst.map_at(n + i) @ f.component(i)
        b = f.component(i + 1) @ src.map_at(i)
        return a - b if sign == 1 else a + b

    return make_element(src, dst, n + 1, f.lo - 1, f.hi + 1, fn)


def hom_layout(v: Seq, w: Seq, n: int, lo: int, hi: int) -> tuple:
    """Coordinates of ``Hom^n(V, W)`` on the degrees ``lo..hi``, as
    ``(offsets, size)``: entry ``(r, c)`` of ``f^i`` is coordinate
    ``offsets[i] + r * dim V^i + c``."""
    off = {}
    size = 0
    for i in range(lo, hi + 1):
        off[i] = size
        size += w.dim(n + i) * v.dim(i)
    return off, size


def coords_of(fn: Callable[[int], Matrix], lo: int, hi: int) -> list:
    """The coordinates of the blocks ``fn(i)`` on ``lo..hi`` (``hom_layout``)."""
    out = []
    for i in range(lo, hi + 1):
        out.extend(fn(i).data)
    return out


def placed_elements(v: Seq, w: Seq, n: int, lo: int, hi: int, entries,
                    constant_tails: bool = False) -> list:
    """The elements of ``Hom^n(V, W)`` whose coordinates on the degrees
    ``lo..hi`` (``hom_layout``), a window containing ``base_window``, are
    one ``{coordinate: x}`` dict of ``entries`` each, zero elsewhere.  Each
    touched block is written once, every other one is the shared
    ``Matrix.zeros`` of its shape.  Beyond the window the components are
    zero, or with ``constant_tails`` repeat the edge blocks, which then need
    the tail shapes.  A coordinate outside the layout is refused."""
    off, size = hom_layout(v, w, n, lo, hi)
    field, z = v.field, Matrix.zeros
    starts = list(off.values())
    zeros = [z(field, w.dim(n + i), v.dim(i)) for i in off]
    tails = tuple((t, t) for t in (z(field, w.stable_dim(side), v.stable_dim(side))
                                   for side in ("left", "right")))
    window = base_window(v, w, n)
    out = []
    for ent in entries:
        touched = {}
        for j, x in ent.items():
            if not 0 <= j < size:
                raise ValidationFailed(f"coordinate {j} is outside the {size} "
                                       f"coordinates on {lo}..{hi}")
            k = bisect_right(starts, j) - 1        # the block of j
            data = touched.get(k)
            if data is None:
                data = touched[k] = list(zeros[k].data)
            data[j - starts[k]] = x
        comps = list(zeros)
        for k, data in touched.items():
            comps[k] = Matrix(field, comps[k].rows, comps[k].cols, tuple(data))
        ends = ((comps[0],) * 2, (comps[-1],) * 2) if constant_tails else tails
        out.append(_trimmed(v, w, n, window, lo, comps, *ends))
    return out


def differential_rows(v: Seq, w: Seq, n: int, lo: int, hi: int) -> list:
    """The matrix of ``d^n: Hom^n(V, W) -> Hom^(n+1)(V, W)`` on a window,
    as dict rows ``{column: entry}``.

    The columns are the coordinates of ``Hom^n`` on the degrees ``lo..hi``
    (``hom_layout``).  The rows are the coordinates of ``Hom^(n+1)`` on
    ``lo..hi-1``, the degrees ``i`` whose ``d^n(f)^i`` reads only window
    blocks: one row per entry ``(a, b)`` of ``d^n(f)^i``, in coordinate
    order, so row ``r`` is coordinate ``r`` of ``hom_layout(v, w, n + 1,
    lo, hi - 1)``.  Each row touches the blocks of ``f^i`` and ``f^(i+1)``.
    """
    off, _ = hom_layout(v, w, n, lo, hi)
    neg = v.field.neg
    rows = []
    for i in range(lo, hi):
        vi, vi1, wi1 = v.dim(i), v.dim(i + 1), w.dim(n + i + 1)
        if not vi or not wi1:
            continue        # d^n(f)^i has no entries
        base, base1 = off[i], off[i + 1]
        dw = w.map_at(n + i)
        dv = v.map_at(i).data
        # the nonzeros (c, x) of each column b of -(-1)^n d_V^i
        dv_cols = [[(c, dv[c * vi + b]) for c in range(vi1) if dv[c * vi + b]]
                   for b in range(vi)]
        if n % 2 == 0:
            dv_cols = [[(c, neg(x)) for c, x in col] for col in dv_cols]
        for a in range(wi1):
            dw_nz = [(base + c * vi, x) for c, x in enumerate(dw.row(a)) if x]
            base_a = base1 + a * vi1
            for b, col in enumerate(dv_cols):
                row = {j + b: x for j, x in dw_nz}
                for c, x in col:
                    row[base_a + c] = x
                rows.append(row)
    return rows


def all_morphisms(fs) -> bool:
    """True when every element of ``fs`` (one source, one target) is a
    degree-0 element commuting with the differentials.

    The degrees checked are those ``differential`` stores, ``[lo-3, hi+3]``
    over the widest stored window; beyond ``[lo-2, hi+1]`` the commutator
    is parity-periodic, so each element is checked on all of Z.  Per degree
    ``i`` each entry of ``d_W^i f^i - f^(i+1) d_V^i`` is summed from the
    nonzeros of the rows of ``d_W^i`` and columns of ``d_V^i`` until one is
    nonzero.  A zero pair ``f^i``, ``f^(i+1)`` commutes whatever the maps and
    is skipped; so is a zero factor, and a zero element before the loop.
    Over Q each of the four matrices is scaled to integers by the least
    common denominator of its entries (``t_W`` for ``d_W^i``, ``t_a`` for
    ``f^i``, ...), and ``t_V t_b (d_W^i f^i)`` is compared with ``t_W t_a
    (f^(i+1) d_V^i)`` in integers.
    """
    fs = list(fs)
    if not fs:
        return True
    src, dst = fs[0].src, fs[0].dst
    if any((f.src, f.dst) != (src, dst) for f in fs):
        raise ValidationFailed("all_morphisms: elements differ in source or target")
    if any(f.degree != 0 for f in fs):
        return False
    fs = [f for f in fs if not f.is_zero]
    if not fs:
        return True
    p = src.field.p
    for i in range(min(f.lo for f in fs) - 3, max(f.hi for f in fs) + 4):
        k, m = src.dim(i), dst.dim(i + 1)
        todo = [(a, b) for a, b in ((f.component(i).data, f.component(i + 1).data) for f in fs)
                if any(a) or any(b)] if k and m else ()
        if not todo:
            continue
        dw, dv, kw, kv = dst.map_at(i).data, src.map_at(i).data, dst.dim(i), src.dim(i + 1)
        if p is None:
            (dw, tw), (dv, tv) = _numerators(dw), _numerators(dv)
            todo = [([tv * tb * x for x in a], [tw * ta * y for y in b])
                    for (a, ta), (b, tb) in ((_numerators(a), _numerators(b)) for a, b in todo)]
        # (offset of row j of f^i, d_W[r, j]) per row r; (s, d_V[s, c]) per column c
        dw_rows = [[(j * k, x) for j, x in enumerate(dw[r * kw:r * kw + kw]) if x]
                   for r in range(m)]
        dv_cols = [[(s, y) for s, y in enumerate(dv[c::k]) if y] for c in range(k)]
        for a, b in todo:
            cols_b = dv_cols if any(b) else [()] * k     # a zero factor adds no sum
            for r, row_a in enumerate(dw_rows if any(a) else [()] * m):
                row_b = b[r * kv:r * kv + kv]
                for c, col_b in enumerate(cols_b):
                    e = 0
                    for o, x in row_a:
                        e += x * a[o + c]
                    for s, y in col_b:
                        e -= row_b[s] * y
                    if (e if p is None else e % p):
                        return False
    return True


def is_morphism(f: GradedHomElement) -> bool:
    """True when ``f`` is a degree-0 element commuting with the differentials."""
    return all_morphisms([f])


def shift_element(f: GradedHomElement, k: int) -> GradedHomElement:
    """Transport ``f`` along the degree shift: component ``i`` becomes ``f^(k+i)``."""
    return make_element(shift_seq(f.src, k), shift_seq(f.dst, k), f.degree,
                        f.lo - k, f.hi - k, lambda i: f.component(k + i))
