"""Interval decomposition of tailed sequences.

Every representable sequence splits as a finite direct sum of interval
blocks: one-dimensional in each degree of ``[a, b]`` (``a`` may be -inf,
``b`` may be +inf) with signed identity transitions.  This module computes

* multiplicities by rank inclusion-exclusion over composite transitions,
* an explicit splitting (the certificate): a degreewise-invertible
  morphism from the assembled normal form onto the input,
* the classification predicates that only depend on the barcode.

The constructive decomposition is an elder rule: sweep degrees left to
right, push each live basis vector through the transition, keep the oldest
independent images, close off a bar when its image becomes dependent on
older ones (correcting the bar's history so its column dies exactly), and
open new bars on a complement of the image.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .errors import ValidationFailed
from .graded import GradedHomElement, is_morphism, make_element
from .hom import HatMorphism, hat
from .linalg import (Field, Matrix, block_matrix, complement, rank as matrix_rank,
                     solve, subspaces)
from .seq import NEG_INF, POS_INF, Seq, Tail, interval, make_seq, zero_seq


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


def make_barcode(field: Field, intervals, certificate=None) -> Barcode:
    ivs = tuple(sorted(intervals, key=lambda iv: iv.sort_key))
    return Barcode(field, ivs, certificate)


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


def assemble(bc: Barcode) -> Seq:
    """Direct sum of interval blocks in canonical order, in sign normal
    form: every transition restricted to a block is (-1)^i times identity."""
    f = bc.field
    ivs = sorted(bc.intervals, key=lambda iv: iv.sort_key)
    if not ivs:
        return zero_seq(f)
    finite = [x for iv in ivs for x in (iv.a, iv.b) if isinstance(x, int)]
    if not finite:
        # every bar is [-inf, inf]
        n = len(ivs)
        return make_seq(f, 0, (n,), (), Tail.ISO, Tail.ISO)
    lo, hi = min(finite), max(finite)
    left = Tail.ISO if any(_is_neg_inf(iv.a) for iv in ivs) else Tail.ZERO
    right = Tail.ISO if any(_is_pos_inf(iv.b) for iv in ivs) else Tail.ZERO
    if left is Tail.ISO:
        lo -= 1
    if right is Tail.ISO:
        hi += 1

    def alive(i):
        return [j for j, iv in enumerate(ivs)
                if iv.a <= i <= iv.b]

    dims = tuple(len(alive(i)) for i in range(lo, hi + 1))
    maps = []
    for i in range(lo, hi):
        rows_idx = alive(i + 1)
        cols_idx = alive(i)
        sign = f.neg(f.one) if i % 2 else f.one
        data = []
        for rj in rows_idx:
            for cj in cols_idx:
                data.append(sign if rj == cj else f.zero)
        maps.append(Matrix(f, len(rows_idx), len(cols_idx), tuple(data)))
    return make_seq(f, lo, dims, tuple(maps), left, right)


# -- constructive decomposition ------------------------------------------


class _Bar:
    __slots__ = ("birth", "death", "vecs", "order")

    def __init__(self, birth, vec, degree, order):
        self.birth = birth
        self.death = None
        self.vecs = {degree: vec}
        self.order = order


def _interval_of(bar: _Bar) -> Interval:
    return Interval(bar.birth, bar.death)


def decompose(v: Seq, with_certificate: bool = True) -> Barcode:
    """Split ``v`` into interval blocks, returning the barcode together with
    an explicit degreewise isomorphism assemble(barcode) -> v."""
    f = v.field
    lo, hi = v.lo, v.hi
    bars: List[_Bar] = []
    alive: List[_Bar] = []
    birth0 = NEG_INF if v.left_tail is Tail.ISO else lo
    n0 = v.dim(lo)
    for j in range(n0):
        bar = _Bar(birth0, Matrix.identity(f, n0).column_matrix(j), lo, len(bars))
        bars.append(bar)
        alive.append(bar)

    for i in range(lo, hi + 1):
        m = v.map_at(i)
        sign = f.neg(f.one) if i % 2 else f.one
        selected: List[_Bar] = []
        sel_mat: Optional[Matrix] = None
        for bar in alive:
            u = (m @ bar.vecs[i]).scale(sign)
            if u.is_zero:
                bar.death = i
                continue
            coeffs = solve(sel_mat, u) if sel_mat is not None else None
            if coeffs is None:
                # independent of older images: the bar survives
                bar.vecs[i + 1] = u
                selected.append(bar)
                sel_mat = u if sel_mat is None else sel_mat.hstack(u)
                continue
            # dependent on strictly older bars: dies here; rewrite the bar's
            # history so its column maps to zero exactly
            bar.death = i
            for t in list(bar.vecs):
                corr = bar.vecs[t]
                for k, older in enumerate(selected):
                    c = coeffs.entry(k, 0)
                    if c:
                        corr = corr - older.vecs[t].scale(c)
                bar.vecs[t] = corr
        new_dim = v.dim(i + 1)
        img = sel_mat if sel_mat is not None else Matrix.zeros(f, new_dim, 0)
        comp = complement(img, new_dim)
        fresh = []
        for j in range(comp.cols):
            bar = _Bar(i + 1, comp.column_matrix(j), i + 1, len(bars))
            bars.append(bar)
            fresh.append(bar)
        alive = selected + fresh

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
    verify_certificate(bc, v)
    return bc


def _certificate(v: Seq, a_seq: Seq, order: List[_Bar]) -> GradedHomElement:
    """Columns of the certificate at degree i are the vectors of the bars
    alive at i, in canonical interval order."""
    f = v.field
    lo, hi = v.lo, v.hi

    def window_cols(i):
        cols = [b.vecs[i] for b in order
                if b.birth <= i <= b.death]
        return block_matrix(f, [cols]) if cols else Matrix.zeros(f, v.dim(i), 0)

    phi_lo = window_cols(lo)
    if v.left_tail is Tail.ISO:
        sign = f.neg(f.one) if (lo - 1) % 2 else f.one
        left_const = phi_lo @ a_seq.map_at(lo - 1).scale(sign)
    else:
        left_const = None
    if v.right_tail is Tail.ISO:
        cols = [b.vecs[hi + 1] for b in order if _is_pos_inf(b.death)]
        right_const = (block_matrix(f, [cols]) if cols
                       else Matrix.zeros(f, v.dim(hi + 1), 0))
    else:
        right_const = None

    def fn(i):
        if i < lo:
            if left_const is not None:
                return left_const
            return Matrix.zeros(f, v.dim(i), a_seq.dim(i))
        if i > hi:
            if right_const is not None:
                return right_const
            return Matrix.zeros(f, v.dim(i), a_seq.dim(i))
        return window_cols(i)

    return make_element(a_seq, v, 0, lo, hi, fn)


def verify_certificate(bc: Barcode, v: Seq) -> None:
    """Exact check: the certificate commutes with transitions and is
    invertible in every degree (probed through the stable zones)."""
    cert = bc.certificate
    if cert is None:
        raise ValidationFailed("barcode carries no certificate")
    a_seq = assemble(bc)
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
    """Predicates readable from window plus tails.

    * injective: every transition surjective (no finite births);
    * acyclic: every transition an isomorphism;
    * h-projective: the right tail vanishes;
    * bounded_class: strictest of sb (finite support), b (right-bounded),
      plus.  With Zero/Iso tails the transitions are always eventually
      isomorphisms on the left, so minus/unbounded cannot occur.
    """
    surj = True
    iso = True
    for i in range(v.lo - 1, v.hi + 1):
        m = v.map_at(i)
        r = matrix_rank(m)
        if r != m.rows:
            surj = False
        if r != m.rows or r != m.cols:
            iso = False
    h_proj = v.right_tail is Tail.ZERO
    if v.left_tail is Tail.ZERO and v.right_tail is Tail.ZERO:
        bounded = "sb"
    elif v.right_tail is Tail.ZERO:
        bounded = "b"
    else:
        bounded = "plus"
    bc = decompose(v, with_certificate=False)
    return Classification(
        injective=surj,
        acyclic=iso,
        h_projective=h_proj,
        bounded_class=bounded,
        finitely_generated_degreewise=True,
        indecomposable=len(bc) == 1,
    )


# -- maximal injective subobject ------------------------------------------


def max_injective_subobject(v: Seq) -> Tuple[Seq, HatMorphism]:
    """The largest subobject on which all transitions are surjective: the
    stable images flowing in from the left tail.  Returns it with its
    type-1 inclusion."""
    f = v.field
    if v.left_tail is Tail.ZERO:
        sub = zero_seq(f)
        incl = hat(make_element(sub, v, 0, v.lo, v.hi,
                                lambda i: Matrix.zeros(f, v.dim(i), 0)))
        return sub, incl
    lo, hi = v.lo, v.hi
    basis = {lo: Matrix.identity(f, v.dim(lo))}
    for i in range(lo, hi):
        pushed = v.map_at(i) @ basis[i]
        basis[i + 1] = subspaces(pushed).image
    dims = tuple(basis[i].cols for i in range(lo, hi + 1))
    maps = tuple(solve(basis[i + 1], v.map_at(i) @ basis[i]) for i in range(lo, hi))
    if None in maps:
        raise ValidationFailed("internal: image basis does not span")
    sub = make_seq(f, lo, dims, maps, Tail.ISO, v.right_tail)

    right_const = basis[hi] if v.right_tail is Tail.ISO else None

    def fn(i):
        if i < lo:
            return basis[lo]
        if i > hi:
            if right_const is not None:
                return right_const
            return Matrix.zeros(f, v.dim(i), 0)
        return basis[i]

    incl = hat(make_element(sub, v, 0, lo, hi, fn))
    return sub, incl
