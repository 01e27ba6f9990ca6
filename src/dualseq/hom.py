"""Hom spaces between tailed sequences, and the enlarged morphism category.

For sequences ``V``, ``W`` the graded Hom complex carries the differential

    d^n(f)^i = d_W^(n+i) f^i - (-1)^n f^(i+1) d_V^i .

Two spaces matter everywhere:

* ``Hom_S(V, W)  = ker(d^0)``  - honest sequence morphisms;
* ``Hom_eps(V, W) = cok(d^-1)`` - the extra "epsilon" component of the
  enlarged category, whose morphisms are pairs ``f_1 + [f_eps]`` composing by
  ``(g o f)_1 = g_1 f_1`` and ``(g o f)_eps = g_1 f_eps + g_eps f_1``.
  The class of zero is zero, so a morphism without an epsilon part needs
  no window computation at all.

Both are computed on a finite window ``[L, R]`` obtained by widening the
combined irregular region by a margin.  On such a window the computation is
a finite kernel/cokernel problem:

* morphisms are parity-constant beyond the window (ISO transitions force
  ``f^(i+1) = f^i``), so window solutions extend uniquely;
* cokernel classes are detected by window coordinates alone, because targets
  supported in a stable half-line are always hit (solve the transition
  recurrence outward), at the price of one extra variable column ``h^(R+1)``.

The margin is accepted only when two further one-step widenings reproduce
every dimension; the widening count is capped, and hitting the cap raises
``StabilizationDepthExceeded``.

One elimination per system serves the base window and all its probes.  The
coordinates of the base window come first, then one ring of tail degrees
per widening (``f^(L-r)``, ``f^(R+r)``).  The base rows are reduced on the
base columns with the ring columns carried along; the rank at margin
``m + r`` is the base rank plus the rank of the few rows left over: base
rref rows that vanish on the base columns, and the rows rings ``1..r`` add,
reduced by the base pivot rows.  The kernel basis is read off the reduced
``d^0`` rows and the coset data off the reduced ``d^-1`` rows; the dense
window differentials are rebuilt from the constraint rows only when asked
for.

The work follows the nonzeros.  Each constraint row touches two adjacent
degree blocks, so the rows are built as dict rows ``{column: entry}`` and
reduced in place by ``linalg._rref``; the kernel vectors are read off the
nonzeros of the rref.  Basis elements share one zero matrix per block shape
(most blocks are zero, and an eps-basis element has a single nonzero
block), and ``all_morphisms`` skips the degrees where both components of an
element are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .config import Config, DEFAULT
from .errors import StabilizationDepthExceeded, ValidationFailed
from .graded import (GradedHomElement, all_morphisms, compose, identity_element,
                     is_morphism, make_element, shift_element, zero_element)
# subspaces is unused here but stays bound: bench/test_bench.py checks that
# the tracer rebinds the copy of it imported into this module.
from .linalg import (Matrix, _dense_rows, _rref, _sub_row, reduce_row_mod,  # noqa: F401
                     subspaces)
from .seq import Seq, direct_sum_seq


@dataclass(frozen=True)
class StabilizationCertificate:
    """Record of the widening loop: the accepted margin, the window it gave,
    and the (margin, dim Hom_S, dim Hom_eps) triples that had to agree."""

    window: Tuple[int, int]
    margin: int
    checks: Tuple[Tuple[int, int, int], ...]
    depth_limit: int


class _Window(NamedTuple):
    """A base window: its layout and both systems in reduced form."""

    L: int
    R: int
    off0: dict
    n: int
    d0_rows: list       # nonzero rref rows of the d^0 constraints (dict rows)
    d0_pivots: tuple
    img_rows: list      # nonzero rref rows of the d^-1 image vectors (dense)
    img_pivots: tuple

    @property
    def dims(self) -> tuple:
        return (self.n - len(self.d0_pivots), self.n - len(self.img_pivots))


def _wider_ranks(field, rows: list, rank: int, pivots: tuple, rings: list,
                 ends: list) -> list:
    """Ranks of a system at margins m+1, m+2, ... from its reduction at m.

    ``rows`` is the rref (dict rows) of the base rows on the first
    ``ends[0]`` columns, with the columns up to ``ends[-1]`` carried along;
    ``rings[r-1]`` holds the rows that ring ``r`` adds.  At margin m+r the
    system is the base rows plus the rows of rings ``<= r``, cut to
    ``ends[r]`` columns.  Its rank is the base rank plus the rank of the
    base rref rows that vanish on the base columns and of the ring rows
    reduced by the base pivot rows: all of those are zero at every base
    pivot, so the pivot rows stay independent of them.
    """
    p = field.p
    pos = {c: k for k, c in enumerate(pivots)}
    extra = [row for row in rows[rank:] if row]
    out = []
    for ring, end in zip(rings, ends[1:]):
        for row in ring:
            # base rref rows are zero at every other base pivot
            for c, x in [(c, x) for c, x in row.items() if c in pos]:
                _sub_row(row, x, rows[pos[c]].items(), p)
        extra += ring
        out.append(rank + _rref(field, [{j: x for j, x in row.items() if j < end}
                                        for row in extra], end, reduced=False)[0])
    return out


def _require_one_field(v: Seq, w: Seq) -> None:
    if v.field != w.field:
        raise ValidationFailed("hom between sequences over different fields")


class HomContext:
    """Everything the package needs to know about one ordered pair (V, W)."""

    def __init__(self, v: Seq, w: Seq, config: Config = DEFAULT):
        _require_one_field(v, w)
        self.src = v
        self.dst = w
        self.field = v.field
        self.lo_irr = min(v.lo, w.lo - 1)
        self.hi_irr = max(v.hi, w.hi + 1)
        span = self.hi_irr - self.lo_irr
        limit = config.depth_limit(span, 0)
        margin = config.base_margin
        widenings = 0
        while True:
            probe, dims = self._eliminate(margin, config.extra_checks)
            checks = tuple((margin + k, d[0], d[1]) for k, d in enumerate(dims))
            if all(d == dims[0] for d in dims):
                break
            margin += 1
            widenings += 1
            if widenings > limit:
                raise StabilizationDepthExceeded(
                    f"hom dimensions between windows [{v.lo},{v.hi}] and "
                    f"[{w.lo},{w.hi}] did not stabilize", limit)
        self.margin = margin
        self._populate(probe)
        self.certificate = StabilizationCertificate(
            (self.L, self.R), margin, checks, limit)

    # -- window layout --------------------------------------------------

    def _layout(self, m: int, k: int):
        """Coordinates of the window at margin ``m`` in degree order, then
        the ring blocks ``f^(L-1), f^(R+1), ..., f^(L-k), f^(R+k)``.
        ``ends[r]`` is the width of the window at margin ``m + r``."""
        L = self.lo_irr - m
        R = self.hi_irr + m
        v, w = self.src, self.dst
        off0 = {}
        ends = []
        n = 0
        for degrees in [range(L, R + 1)] + [(L - r, R + r) for r in range(1, k + 1)]:
            for i in degrees:
                off0[i] = n
                n += w.dim(i) * v.dim(i)
            ends.append(n)
        return L, R, off0, ends

    def _d0_rows(self, degrees, off0) -> list:
        """Constraint rows of d^0, as dict rows: one per entry of each
        (df)^i with i in ``degrees``, over the coordinates ``off0`` lays out."""
        v, w = self.src, self.dst
        neg = self.field.neg
        rows = []
        for i in degrees:
            dv = v.map_at(i).to_lists()
            dw = w.map_at(i).to_lists()
            vi, vi1 = v.dim(i), v.dim(i + 1)
            base_i, base_i1 = off0[i], off0[i + 1]
            for a, dw_row in enumerate(dw):
                for b in range(vi):
                    # the two blocks lie in different degree slices
                    row = {base_i + c * vi + b: x for c, x in enumerate(dw_row) if x}
                    for c in range(vi1):
                        if dv[c][b]:
                            row[base_i1 + a * vi1 + c] = neg(dv[c][b])
                    rows.append(row)
        return rows

    def _dm1_rows(self, degrees, off0) -> list:
        """Image vectors of d^-1, as dict rows: one per entry of each h^j
        with j in ``degrees``, with the entries at degrees ``j`` and ``j-1``
        that ``off0`` lays out (the others fall outside the window)."""
        v, w = self.src, self.dst
        rows = []
        for j in degrees:
            wj1 = w.dim(j - 1)
            vj = v.dim(j)
            if wj1 * vj == 0:
                continue
            dwp = w.map_at(j - 1).to_lists()   # W^(j-1) -> W^j
            dvp = v.map_at(j - 1).to_lists()   # V^(j-1) -> V^j
            vjm = v.dim(j - 1)
            for r in range(wj1):
                for c in range(vj):
                    row = {}
                    if j in off0:
                        base = off0[j]
                        for a, dw_row in enumerate(dwp):
                            if dw_row[r]:
                                row[base + a * vj + c] = dw_row[r]
                    if j - 1 in off0:
                        # disjoint from the block above: different degree slice
                        base = off0[j - 1] + r * vjm
                        for b, x in enumerate(dvp[c]):
                            if x:
                                row[base + b] = x
                    rows.append(row)
        return rows

    def _eliminate(self, m: int, k: int) -> tuple:
        """Reduce both systems of the window at margin ``m`` once; return
        that window and the (dim Hom_S, dim Hom_eps) of margins m..m+k."""
        L, R, off0, ends = self._layout(m, k)
        n = ends[0]
        f = self.field
        d0 = self._d0_rows(range(L, R), off0)
        rank0, piv0 = _rref(f, d0, n)
        # the d^-1 rows j = L and j = R+1 reach into ring 1
        dm1 = self._dm1_rows(range(L, R + 2), off0)
        rank1, piv1 = _rref(f, dm1, n)
        rings0 = [self._d0_rows((L - r, R + r - 1), off0) for r in range(1, k + 1)]
        rings1 = [self._dm1_rows((L - r, R + r + 1), off0) for r in range(1, k + 1)]
        ranks = zip([rank0] + _wider_ranks(f, d0, rank0, piv0, rings0, ends),
                    [rank1] + _wider_ranks(f, dm1, rank1, piv1, rings1, ends))
        dims = [(end - r0, end - r1) for end, (r0, r1) in zip(ends, ranks)]
        window = _Window(L, R, {i: off0[i] for i in range(L, R + 1)}, n,
                         d0[:rank0], piv0,
                         _dense_rows(dm1[:rank1], n, f.zero), piv1)
        return window, dims

    def _populate(self, win: _Window):
        self.L, self.R, self.off0, self.N = win.L, win.R, win.off0, win.n
        self.dim_hom, self.dim_eps = win.dims
        # kernel of d^0, one vector per free column of its rref: the free
        # entry is 1 and each pivot entry the negated rref entry there
        zero, one, neg = self.field.zero, self.field.one, self.field.neg
        pivset = set(win.d0_pivots)
        free = {}
        for fj in range(win.n):
            if fj not in pivset:
                free[fj] = vec = [zero] * win.n
                vec[fj] = one
        for row, c in zip(win.d0_rows, win.d0_pivots):
            for j, x in row.items():
                if j in free:
                    free[j][c] = neg(x)
        self.ker_basis_vecs = list(free.values())
        self.img_rows = win.img_rows
        self.img_pivots = win.img_pivots
        pivset = set(win.img_pivots)
        self.nonpivots = [j for j in range(win.n) if j not in pivset]

    @property
    def d0(self) -> Matrix:
        """The window matrix of d^0 (rows: constraints, columns: coordinates)."""
        rows = _dense_rows(self._d0_rows(range(self.L, self.R), self.off0),
                           self.N, self.field.zero)
        return Matrix(self.field, len(rows), self.N, tuple(x for row in rows for x in row))

    @property
    def dminus1(self) -> Matrix:
        """The window matrix of d^-1 (columns: image vectors)."""
        rows = _dense_rows(self._dm1_rows(range(self.L, self.R + 2), self.off0),
                           self.N, self.field.zero)
        return Matrix(self.field, len(rows), self.N,
                      tuple(x for row in rows for x in row)).transpose()

    # -- coordinates <-> elements ----------------------------------------

    def vec_of(self, g: GradedHomElement) -> list:
        if (g.src, g.dst, g.degree) != (self.src, self.dst, 0):
            raise ValidationFailed("element does not belong to this hom context")
        out = []
        for i in range(self.L, self.R + 1):
            out.extend(g.component(i).data)
        return out

    def element_from_vec(self, vec: list, constant_tails: bool = False) -> GradedHomElement:
        v, w, f = self.src, self.dst, self.field
        zeros = Matrix.zeros
        mats = {}
        for i in range(self.L, self.R + 1):
            r, c = w.dim(i), v.dim(i)
            o = self.off0[i]
            block = vec[o:o + r * c]
            mats[i] = Matrix(f, r, c, tuple(block)) if any(block) else zeros(f, r, c)

        if constant_tails:
            def fn(i):
                if self.L <= i <= self.R:
                    return mats[i]
                # the boundary block, unless the shape changes beyond the
                # window: then a Zero tail has emptied the component
                m = mats[self.L] if i < self.L else mats[self.R]
                if (m.rows, m.cols) == (w.dim(i), v.dim(i)):
                    return m
                return zeros(f, w.dim(i), v.dim(i))
        else:
            def fn(i):
                if i < self.L or i > self.R:
                    return zeros(f, w.dim(i), v.dim(i))
                return mats[i]
        return make_element(v, w, 0, self.L, self.R, fn)

    def reduce_vec(self, vec: list) -> list:
        return reduce_row_mod(vec, self.img_rows, self.img_pivots, self.field)

    def canonical_eps(self, g: GradedHomElement) -> GradedHomElement:
        """Canonical representative of the class of ``g`` in Hom_eps.

        Components outside the window do not affect the class (stable-zone
        targets are absorbable), so the representative is window-supported
        with zeros in every pivot coordinate of the image row space.
        """
        return self.element_from_vec(self.reduce_vec(self.vec_of(g)))

    def eps_coords(self, g: GradedHomElement) -> list:
        red = self.reduce_vec(self.vec_of(g))
        return [red[j] for j in self.nonpivots]

    def eps_from_coords(self, coords: list) -> GradedHomElement:
        vec = [self.field.zero] * self.N
        for j, c in zip(self.nonpivots, coords):
            vec[j] = self.field.coerce(c)
        return self.element_from_vec(vec)

    def hom_basis(self) -> list:
        out = [self.element_from_vec(vec, constant_tails=True)
               for vec in self.ker_basis_vecs]
        if not all_morphisms(out):
            raise ValidationFailed("internal: kernel vector failed the morphism check")
        return out

    def eps_basis(self) -> list:
        out = []
        for j in self.nonpivots:
            vec = [self.field.zero] * self.N
            vec[j] = self.field.one
            out.append(self.element_from_vec(vec))
        return out


@lru_cache(maxsize=None)
def get_context(v: Seq, w: Seq, config: Config = DEFAULT) -> HomContext:
    return HomContext(v, w, config)


@dataclass(frozen=True, eq=False)
class HomData:
    """Result bundle of ``hom_complex``."""

    dim_hom: int
    dim_eps: int
    hom_basis: Tuple[GradedHomElement, ...]
    eps_basis: Tuple[GradedHomElement, ...]
    d0: Matrix
    dminus1: Matrix
    window: Tuple[int, int]
    certificate: StabilizationCertificate


def hom_complex(v: Seq, w: Seq, config: Config = DEFAULT) -> HomData:
    """Bases of Hom_S(v, w) and Hom_eps(v, w) plus the window differentials."""
    ctx = get_context(v, w, config)
    return HomData(ctx.dim_hom, ctx.dim_eps,
                   tuple(ctx.hom_basis()), tuple(ctx.eps_basis()),
                   ctx.d0, ctx.dminus1, (ctx.L, ctx.R), ctx.certificate)


# -- morphisms of the enlarged category ---------------------------------


@dataclass(frozen=True, eq=False)
class HatMorphism:
    """A morphism ``f_1 + [f_eps]`` with ``f_eps`` kept in canonical form."""

    f1: GradedHomElement
    feps: GradedHomElement

    def __post_init__(self):
        if (self.f1.src, self.f1.dst) != (self.feps.src, self.feps.dst):
            raise ValidationFailed("morphism parts disagree on source/target")
        if self.f1.degree != 0 or self.feps.degree != 0:
            raise ValidationFailed("morphism parts must have degree 0")

    @property
    def src(self) -> Seq:
        return self.f1.src

    @property
    def dst(self) -> Seq:
        return self.f1.dst

    @property
    def is_zero(self) -> bool:
        return self.f1.is_zero and self.feps.is_zero

    @property
    def is_type_one(self) -> bool:
        return self.feps.is_zero

    @property
    def is_type_eps(self) -> bool:
        return self.f1.is_zero

    def __eq__(self, other) -> bool:
        if not isinstance(other, HatMorphism):
            return NotImplemented
        return self.f1 == other.f1 and self.feps == other.feps

    def __hash__(self):
        raise TypeError("HatMorphism is not hashable")

    def __add__(self, other: "HatMorphism") -> "HatMorphism":
        # canonical representatives form a linear subspace, so no re-reduction
        return HatMorphism(self.f1 + other.f1, self.feps + other.feps)

    def __neg__(self) -> "HatMorphism":
        return HatMorphism(-self.f1, -self.feps)

    def __sub__(self, other: "HatMorphism") -> "HatMorphism":
        return self + (-other)

    def scale(self, c) -> "HatMorphism":
        return HatMorphism(self.f1.scale(c), self.feps.scale(c))


def _eps_class(v: Seq, w: Seq, eps: Optional[GradedHomElement],
               config: Config) -> GradedHomElement:
    """Canonical representative of the class of ``eps`` in Hom_eps(v, w).

    The class of zero is zero: a missing or zero ``eps`` needs no cokernel
    data, so no hom context is built or looked up for it.  A zero ``eps`` is
    returned as it is, and ``HatMorphism`` checks that it lies in
    Hom^0(v, w).  Any other ``eps`` is reduced by
    ``get_context(v, w).canonical_eps``.
    """
    _require_one_field(v, w)
    if eps is None:
        return zero_element(v, w, 0)
    if eps.is_zero:
        return eps
    return get_context(v, w, config).canonical_eps(eps)


def hat(f1: GradedHomElement, feps: Optional[GradedHomElement] = None,
        config: Config = DEFAULT) -> HatMorphism:
    """Build a morphism, checking the type-1 part and canonicalizing the
    epsilon part.  A type-1 morphism (``feps`` missing or zero) builds no
    hom context."""
    if not is_morphism(f1):
        raise ValidationFailed("type-1 part does not commute with the differentials")
    return HatMorphism(f1, _eps_class(f1.src, f1.dst, feps, config))


def hat_eps(feps: GradedHomElement, config: Config = DEFAULT) -> HatMorphism:
    return hat(zero_element(feps.src, feps.dst, 0), feps, config)


def identity_hat(v: Seq) -> HatMorphism:
    return HatMorphism(identity_element(v), zero_element(v, v, 0))


def zero_hat(v: Seq, w: Seq) -> HatMorphism:
    return HatMorphism(zero_element(v, w, 0), zero_element(v, w, 0))


def compose_hat(g: HatMorphism, f: HatMorphism, config: Config = DEFAULT) -> HatMorphism:
    """``g o f = g_1 f_1 + [g_1 f_eps + g_eps f_1]`` (epsilon squares to zero).

    The epsilon part is computed only when ``f`` or ``g`` has one, and a
    hom context is built only when that part is nonzero."""
    if f.dst != g.src:
        raise ValidationFailed("compose: target/source mismatch")
    f1 = compose(g.f1, f.f1)
    eps = (None if f.is_type_one and g.is_type_one
           else compose(g.f1, f.feps) + compose(g.feps, f.f1))
    return HatMorphism(f1, _eps_class(f.src, g.dst, eps, config))


def shift_hat(h: HatMorphism, k: int, config: Config = DEFAULT) -> HatMorphism:
    f1 = shift_element(h.f1, k)
    eps = None if h.is_type_one else shift_element(h.feps, k)
    return HatMorphism(f1, _eps_class(f1.src, f1.dst, eps, config))


# -- direct sums ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DirectSum:
    seq: Seq
    include_left: HatMorphism
    include_right: HatMorphism
    project_left: HatMorphism
    project_right: HatMorphism


def direct_sum(v: Seq, w: Seq) -> DirectSum:
    """Blockwise direct sum with its inclusion and projection morphisms."""
    s = direct_sum_seq(v, w)
    f = v.field
    z = Matrix.zeros

    def inc_l(i):
        return Matrix.identity(f, v.dim(i)).vstack(z(f, w.dim(i), v.dim(i)))

    def inc_r(i):
        return z(f, v.dim(i), w.dim(i)).vstack(Matrix.identity(f, w.dim(i)))

    def pr_l(i):
        return Matrix.identity(f, v.dim(i)).hstack(z(f, v.dim(i), w.dim(i)))

    def pr_r(i):
        return z(f, w.dim(i), v.dim(i)).hstack(Matrix.identity(f, w.dim(i)))

    lo, hi = min(v.lo, w.lo), max(v.hi, w.hi)
    il = hat(make_element(v, s, 0, lo, hi, inc_l))
    ir = hat(make_element(w, s, 0, lo, hi, inc_r))
    pl = hat(make_element(s, v, 0, lo, hi, pr_l))
    pr = hat(make_element(s, w, 0, lo, hi, pr_r))
    return DirectSum(s, il, ir, pl, pr)
