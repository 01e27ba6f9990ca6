"""Interval decomposition of tailed sequences.

Every representable sequence splits as a finite direct sum of interval
blocks: one-dimensional in each degree of ``[a, b]`` (``a`` may be -inf,
``b`` may be +inf) with signed identity transitions.  This module computes

* multiplicities by rank inclusion-exclusion over composite transitions,
* an explicit splitting (the certificate): a degreewise-invertible
  morphism from the assembled normal form onto the input,
* the classification predicates that only depend on the barcode.

The constructive decomposition is an elder rule, swept once per degree
by column reduction against a running basis (as in Zomorodian-Carlsson's
persistence algorithm).  Left to right, each live bar's vector is pushed
through the transition, oldest bar first, and its image is reduced against
an echelon basis of the images kept so far: pivot entries 1 (over Q,
integer rows; see ``decompose``), each row carrying its coefficients over
the kept bars.  An image that reduces to zero is a combination of older
images, with the coefficients of that one reduction; they are unique,
because the kept images are independent.  Its bar dies there, and the
bar's history is rewritten by the same combination so that its column maps
to zero exactly.  Any other bar survives.  New bars open on the unit
vectors at the non-pivot coordinates.  The pivots are the leading
coordinates of the span of the kept images, whichever basis of it is
reduced, so this is the complement the rref of that span gives
(docs/NOTES.md, "One sweep per decomposition").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import ValidationFailed
from .graded import GradedHomElement, is_morphism, make_element
from .hom import HatMorphism, hat
from .linalg import Field, Matrix, _numerators, _rational, rank as matrix_rank
from .seq import NEG_INF, POS_INF, Seq, Tail, make_seq


def _is_neg_inf(x) -> bool:
    return isinstance(x, float) and math.isinf(x) and x < 0


def _is_pos_inf(x) -> bool:
    return isinstance(x, float) and math.isinf(x) and x > 0


@dataclass(frozen=True)
class Interval:
    """A bar ``[a, b]`` with ``a`` in Z or -inf and ``b`` in Z or +inf."""

    a: object
    b: object

    def __post_init__(self):
        if not (isinstance(self.a, int) or _is_neg_inf(self.a)):
            raise ValidationFailed("interval start must be an integer or -inf")
        if not (isinstance(self.b, int) or _is_pos_inf(self.b)):
            raise ValidationFailed("interval end must be an integer or +inf")
        # ints and infinities compare exactly, so a huge integer endpoint
        # needs no float conversion (which would overflow)
        if self.a > self.b:
            raise ValidationFailed("interval start exceeds end")

    @property
    def sort_key(self) -> tuple:
        return (self.a, self.b)

    def __str__(self):
        a = "-inf" if _is_neg_inf(self.a) else str(self.a)
        b = "inf" if _is_pos_inf(self.b) else str(self.b)
        return f"[{a},{b}]"


@dataclass(frozen=True, eq=False)
class Barcode:
    """Canonically sorted multiset of intervals, optionally with an explicit
    isomorphism from the assembled normal form onto the decomposed value."""

    field: Field
    intervals: Tuple[Interval, ...]
    certificate: Optional[GradedHomElement] = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Barcode):
            return NotImplemented
        return self.field == other.field and self.intervals == other.intervals

    def __hash__(self):
        return hash((self.field, self.intervals))

    def counts(self) -> Dict[Interval, int]:
        out: Dict[Interval, int] = {}
        for iv in self.intervals:
            out[iv] = out.get(iv, 0) + 1
        return out

    def __len__(self) -> int:
        return len(self.intervals)


def make_barcode(field: Field, intervals) -> Barcode:
    return Barcode(field, tuple(sorted(intervals, key=lambda iv: iv.sort_key)))


# -- rank pairings and multiplicities ------------------------------------


def rank_pairing(v: Seq, a, b) -> int:
    """Rank of the composite transition from degree ``a`` to degree ``b``.

    Infinite endpoints are evaluated one step into the stable zone, which is
    exact: composing with a signed identity does not change rank, and a Zero
    tail forces rank 0 on that side.
    """
    if a > b:
        raise ValidationFailed("rank_pairing requires a <= b")
    # ints and infinities compare exactly; clamping into [lo - 1, hi + 1]
    # turns an infinite endpoint into an int
    lo_eval, hi_eval = v.lo - 1, v.hi + 1
    aa = min(max(a, lo_eval), hi_eval)
    bb = min(max(b, lo_eval), hi_eval)
    m = Matrix.identity(v.field, v.dim(aa))
    for i in range(aa, bb):
        m = v.map_at(i) @ m
    return matrix_rank(m)


def multiplicities(v: Seq) -> Dict[Interval, int]:
    """Multiplicity of every interval by inclusion-exclusion of rank
    pairings; terms falling off the ends of Z are dropped."""

    def r(a, b):
        return rank_pairing(v, a, b)

    out: Dict[Interval, int] = {}
    starts = [NEG_INF] + list(range(v.lo, v.hi + 1))
    ends = list(range(v.lo, v.hi + 1)) + [POS_INF]
    for a in starts:
        for b in ends:
            if a > b:
                continue
            m = r(a, b)
            if not _is_neg_inf(a):
                m -= r(a - 1, b)
            if not _is_pos_inf(b):
                m -= r(a, b + 1)
                if not _is_neg_inf(a):
                    m += r(a - 1, b + 1)
            if m < 0:
                raise ValidationFailed("negative interval multiplicity")
            if m:
                out[Interval(a, b)] = m
    return out


# -- assembling normal forms ---------------------------------------------


def _assembled_window(ivs) -> tuple:
    """The window ``[lo, hi]`` and the tails of ``assemble``'s sequence."""
    # with no finite endpoint any degree will do: make_seq moves it to 0
    finite = [x for iv in ivs for x in (iv.a, iv.b) if isinstance(x, int)] or [0]
    lo, hi = min(finite), max(finite)
    left = Tail.ISO if any(_is_neg_inf(iv.a) for iv in ivs) else Tail.ZERO
    right = Tail.ISO if any(_is_pos_inf(iv.b) for iv in ivs) else Tail.ZERO
    return lo - (left is Tail.ISO), hi + (right is Tail.ISO), left, right


def assembled_dims(ivs) -> tuple:
    """The dimensions of ``assemble``'s sequence over its window, without
    building it: one sweep over the bar endpoints, then running sums."""
    lo, hi, _, _ = _assembled_window(ivs)
    steps = [0] * (hi - lo + 2)
    for iv in ivs:
        steps[max(iv.a, lo) - lo] += 1
        steps[min(iv.b, hi) + 1 - lo] -= 1
    return tuple(itertools.accumulate(steps[:-1]))


def assemble(bc: Barcode) -> Seq:
    """Direct sum of interval blocks in canonical order, in sign normal
    form: every transition restricted to a block is (-1)^i times identity."""
    f = bc.field
    ivs = sorted(bc.intervals, key=lambda iv: iv.sort_key)
    lo, hi, left, right = _assembled_window(ivs)

    # the bars alive in each degree of [lo, hi], in canonical order
    alive: List[List[int]] = [[] for _ in range(lo, hi + 1)]
    for j, iv in enumerate(ivs):
        for i in range(max(iv.a, lo), min(iv.b, hi) + 1):
            alive[i - lo].append(j)
    dims = tuple(len(js) for js in alive)
    maps = []
    for i in range(lo, hi):
        rows_idx, cols_idx = alive[i + 1 - lo], alive[i - lo]
        sign = f.neg(f.one) if i % 2 else f.one
        # a bar alive at i and i + 1 maps its column onto its own row
        row_of = {j: r for r, j in enumerate(rows_idx)}
        n = len(cols_idx)
        data = [f.zero] * (len(rows_idx) * n)
        for c, j in enumerate(cols_idx):
            r = row_of.get(j)
            if r is not None:
                data[r * n + c] = sign
        maps.append(Matrix(f, len(rows_idx), n, tuple(data)))
    return make_seq(f, lo, dims, tuple(maps), left, right)


# -- constructive decomposition ------------------------------------------


class _Bar:
    __slots__ = ("birth", "death", "vecs", "order")

    def __init__(self, birth, vec, degree, order):
        self.birth = birth
        self.death = None
        self.vecs = {degree: vec}    # degree -> coordinates (integers, denominator)
        self.order = order


def _interval_of(bar: _Bar) -> Interval:
    return Interval(bar.birth, bar.death)


def _unit(n: int, j: int) -> tuple:
    vec = [0] * n
    vec[j] = 1
    return vec, 1


def _lowest(xs: list, den: int) -> tuple:
    """``(xs, den)`` divided by their gcd, with ``den > 0``."""
    g = math.gcd(den, *xs)
    if den < 0:
        g = -g
    return ([x // g for x in xs], den // g) if g != 1 else (xs, den)


def _combination(vec: tuple, terms: list, lam: int) -> tuple:
    """``vec + sum(h * xs) / lam`` over the ``(h, xs)`` of ``terms``, for
    vectors ``(integers, denominator)`` over Q, as one in lowest terms."""
    d = math.lcm(vec[1], *[dx for _, (_, dx) in terms])
    out = [lam * (d // vec[1]) * x for x in vec[0]]
    for h, (xs, dx) in terms:
        h *= d // dx
        for r, x in enumerate(xs):
            if x:
                out[r] += h * x
    return _lowest(out, d * lam)


def decompose(v: Seq, with_certificate: bool = True) -> Barcode:
    """Split ``v`` into interval blocks, returning the barcode together with
    an explicit degreewise isomorphism assemble(barcode) -> v.

    A bar's vector is kept as integers over a denominator (1 over F_p);
    over Q each map is scaled to integers, and an image is reduced as an
    integer multiple of the Fraction row, against integer basis rows whose
    pivots need not be 1.  Zero patterns, and so the bars, are those of the
    Fraction rows; Fractions are built only for the certificate."""
    f = v.field
    p = f.p
    lo, hi = v.lo, v.hi
    bars: List[_Bar] = []
    birth0 = NEG_INF if v.left_tail is Tail.ISO else lo
    n0 = v.dim(lo)
    for j in range(n0):
        bars.append(_Bar(birth0, _unit(n0, j), lo, len(bars)))
    alive = list(bars)

    for i in range(lo, hi + 1):
        m = v.map_at(i)
        n, k = m.rows, m.cols
        data, dm = (m.data, 1) if p is not None else _numerators(m.data)
        sign = -1 if i % 2 else 1
        # columns of sign * m (times dm) as (row, entry) pairs of the nonzero
        # entries
        cols = [[(r, sign * x % p if p is not None else sign * x)
                 for r, x in enumerate(data[t::k]) if x] for t in range(k)]
        # echelon basis of the images kept so far, one (pivot, items, pivot
        # entry) per kept bar: items are the nonzero entries of a row that
        # holds an image vector at 0..n-1 and, at n + q, its coefficient over
        # the image of kept[q]; pivot entry 1 over F_p
        basis = []
        kept: List[_Bar] = []
        for bar in alive:
            vec, den = bar.vecs[i]
            u = [0] * n
            for t, x in enumerate(vec):
                if x:
                    for r, y in cols[t]:
                        u[r] += x * y
            if p is not None:
                u = [x % p for x in u]
            else:
                u, den = _lowest(u, den * dm)
            # den times the row (image, coefficients, own coefficient 1)
            w = u + [0] * len(kept) + [den]
            for c, items, piv in basis:
                x = w[c]
                if not x:
                    continue
                if p is not None:
                    for r, y in items:
                        w[r] = (w[r] - x * y) % p
                    continue
                if piv != 1:
                    w = [piv * y for y in w]
                for r, y in items:
                    w[r] -= x * y
                g = math.gcd(*w)
                if g != 1:
                    w = [y // g for y in w]
            lead = next((r for r in range(n) if w[r]), None)
            if lead is not None:
                # independent of older images: the bar survives
                if p is not None:
                    inv, piv = f.inv(w[lead]), 1
                    items = [(r, x * inv % p) for r, x in enumerate(w) if x]
                else:
                    items, piv = [(r, x) for r, x in enumerate(w) if x], w[lead]
                basis.append((lead, items, piv))
                bar.vecs[i + 1] = (u, den)
                kept.append(bar)
                continue
            # u is a combination of strictly older images (w[n:] says which,
            # with this bar's own coefficient w[-1] last): the bar dies here,
            # and its history is rewritten by the same combination so that
            # its column maps to zero exactly
            bar.death = i
            hist = [(q, h) for q, h in enumerate(w[n:-1]) if h]
            if hist and p is None:
                for t, vec in bar.vecs.items():
                    bar.vecs[t] = _combination(vec, [(h, kept[q].vecs[t]) for q, h in hist],
                                               w[-1])
            elif hist:
                for t, (vec, _) in bar.vecs.items():
                    corr = list(vec)
                    for q, h in hist:
                        for r, x in enumerate(kept[q].vecs[t][0]):
                            if x:
                                corr[r] += h * x
                    bar.vecs[t] = [x % p for x in corr], 1
        # new bars on the non-pivot coordinates: a complement of the image
        pivots = {c for c, _, _ in basis}
        fresh = [_Bar(i + 1, _unit(n, j), i + 1, len(bars) + q)
                 for q, j in enumerate(j for j in range(n) if j not in pivots)]
        bars.extend(fresh)
        alive = kept + fresh

    if v.right_tail is Tail.ISO:
        for bar in alive:
            bar.death = POS_INF
    else:
        for bar in alive:
            # target of the final step was the zero space
            if bar.death is None:
                raise ValidationFailed("internal: bar survived past a Zero tail")

    order = sorted(bars, key=lambda b: (_interval_of(b).sort_key, b.order))
    ivs = tuple(_interval_of(b) for b in order)
    bc = Barcode(f, ivs, None)
    if not with_certificate:
        return bc
    a_seq = assemble(bc)
    cert = _certificate(v, a_seq, order)
    bc = Barcode(f, ivs, cert)
    verify_certificate(bc, v, _assembled=a_seq)
    return bc


def _certificate(v: Seq, a_seq: Seq, order: List[_Bar]) -> GradedHomElement:
    """Columns of the certificate at degree i are the vectors of the bars
    alive at i, in canonical interval order: a bar has a vector at exactly
    the degrees of its bar inside ``[lo, hi + 1]``."""
    f = v.field
    lo, hi = v.lo, v.hi
    cols_at: Dict[int, list] = {}
    for b in order:
        for t, (vec, d) in b.vecs.items():
            cols_at.setdefault(t, []).append(vec if f.p is not None
                                             else [_rational(x, d) for x in vec])

    def fn(i):
        # both ends are in sign normal form, and the bars alive at lo are
        # exactly the -inf bars, so an ISO side repeats its edge columns
        if i < lo and v.left_tail is Tail.ISO:
            i = lo
        elif i > hi and v.right_tail is Tail.ISO:
            i = hi + 1
        cols = cols_at.get(i)
        if not cols:
            return Matrix.zeros(f, v.dim(i), 0)
        return Matrix(f, len(cols[0]), len(cols),
                      tuple(x for row in zip(*cols) for x in row))

    return make_element(a_seq, v, 0, lo, hi, fn)


def verify_certificate(bc: Barcode, v: Seq, *, _assembled: Optional[Seq] = None) -> None:
    """Exact check: the certificate commutes with transitions and is
    invertible in every degree (probed through the stable zones).
    ``_assembled`` is ``assemble(bc)``, passed only by ``decompose``, which
    has just built it; every other call assembles its own."""
    cert = bc.certificate
    if cert is None:
        raise ValidationFailed("barcode carries no certificate")
    a_seq = assemble(bc) if _assembled is None else _assembled
    if cert.src != a_seq or cert.dst != v:
        raise ValidationFailed("certificate endpoints do not match")
    if not is_morphism(cert):
        raise ValidationFailed("certificate does not commute with transitions")
    for i in range(min(a_seq.lo, v.lo) - 2, max(a_seq.hi, v.hi) + 3):
        m = cert.component(i)
        if m.rows != m.cols or matrix_rank(m) != m.rows:
            raise ValidationFailed(f"certificate is not invertible in degree {i}")


def is_isomorphic(v: Seq, w: Seq) -> bool:
    return decompose(v, with_certificate=False) == decompose(w, with_certificate=False)


# -- classification -------------------------------------------------------


@dataclass(frozen=True)
class Classification:
    injective: bool
    acyclic: bool
    h_projective: bool
    bounded_class: str
    finitely_generated_degreewise: bool
    indecomposable: bool


def classify(v: Seq) -> Classification:
    """Predicates readable from window plus tails, off one barcode.

    * injective: every transition surjective, i.e. no bar has a finite
      start (a bar born at a finite ``a`` is missed by the map into ``a``);
    * acyclic: every transition an isomorphism, i.e. every bar is
      ``[-inf, inf]`` (a finite end is a kernel, a finite start a cokernel);
    * h-projective: the right tail vanishes;
    * bounded_class: strictest of sb (finite support), b (right-bounded),
      plus.  With Zero/Iso tails the transitions are always eventually
      isomorphisms on the left, so minus/unbounded cannot occur.
    """
    h_proj = v.right_tail is Tail.ZERO
    if v.left_tail is Tail.ZERO and v.right_tail is Tail.ZERO:
        bounded = "sb"
    elif v.right_tail is Tail.ZERO:
        bounded = "b"
    else:
        bounded = "plus"
    ivs = decompose(v, with_certificate=False).intervals
    injective = all(_is_neg_inf(iv.a) for iv in ivs)
    return Classification(
        injective=injective,
        acyclic=injective and all(_is_pos_inf(iv.b) for iv in ivs),
        h_projective=h_proj,
        bounded_class=bounded,
        finitely_generated_degreewise=True,
        indecomposable=len(ivs) == 1,
    )


# -- maximal injective subobject ------------------------------------------


def max_injective_subobject(v: Seq) -> Tuple[Seq, HatMorphism]:
    """The largest subobject on which all transitions are surjective: the
    stable images flowing in from the left tail, which are the bars that
    start at -inf.  Returns it with its type-1 inclusion.

    Those bars sort first, so in every degree they are the leading columns
    of the certificate of ``v``'s decomposition, and the inclusion's
    component is that column block."""
    f = v.field
    bc = decompose(v)
    sub = assemble(Barcode(f, tuple(iv for iv in bc.intervals if _is_neg_inf(iv.a))))
    cert = bc.certificate

    def fn(i):
        # the leading sub.dim(i) columns of the certificate's component
        return cert.component(i).transpose().row_block(0, sub.dim(i)).transpose()

    incl = hat(make_element(sub, v, 0, v.lo, v.hi, fn))
    return sub, incl
