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

Both are computed on the finite window ``[L, R] = [a - m, b + m]`` around
the irregular region ``a = min(v.lo, w.lo - 1)``, ``b = max(v.hi, w.hi + 1)``,
with the fixed margin ``m = MARGIN``.  Outside ``[a, b]`` every transition of
``V`` and ``W`` is a tail map (zero, or ``(-1)^i id`` between equal spaces),
and that fixes how wide the window must be:

* ``Hom_S``: for ``i <= a - 1`` and for ``i >= b + 1`` the degree-``i``
  constraint is either vacuous (a zero-dimensional block) or reads
  ``f^(i+1) = f^i``.  A window that contains the constraints of degrees
  ``a..b`` therefore has exactly the kernel of ``d^0``: each window
  solution extends uniquely by repeating its boundary blocks, whose shapes
  are the tail shapes.  The constraints of the window are those of degrees
  ``L..R-1``, so any ``m >= 1`` suffices.  The bound is tight: at ``m = 0``
  a ``V`` with a zero right tail ending at ``b``, mapped to a ``W`` with an
  iso right tail, loses the row ``f^b = 0``.
* ``Hom_eps``: a target ``f`` supported beyond the window is ``d^-1(h)``
  for an ``h`` supported there, found by solving
  ``h^(i+1) = h^i + (-1)^i f^i`` outward from ``h = 0``.  So window
  coordinates detect every class, and a window-supported target lies in
  the image of ``d^-1`` exactly when it is the window part of ``d^-1(h)``
  for an ``h`` supported on ``L..R+1`` (one extra variable column
  ``h^(R+1)``).  This holds for every ``m >= 0``.

``MARGIN`` (``dualseq.config``) is 3, wider than the bound needs, so that
every window, basis and coset representative stays the one earlier
releases computed.

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
from typing import Optional, Tuple

from .config import MARGIN
from .errors import ValidationFailed
from .graded import (GradedHomElement, all_morphisms, compose, identity_element,
                     is_morphism, make_element, shift_element, zero_element)
# subspaces is unused here but stays bound: bench/test_bench.py checks that
# the tracer rebinds the copy of it imported into this module.
from .linalg import (Matrix, _dense_rows, _rref, reduce_row_mod,  # noqa: F401
                     subspaces)
from .seq import Seq, direct_sum_seq


@dataclass(frozen=True)
class StabilizationCertificate:
    """The hom window and its margin, which the module docstring proves
    wide enough for both hom spaces."""

    window: Tuple[int, int]
    margin: int


def _require_one_field(v: Seq, w: Seq) -> None:
    if v.field != w.field:
        raise ValidationFailed("hom between sequences over different fields")


class HomContext:
    """Everything the package needs to know about one ordered pair (V, W)."""

    def __init__(self, v: Seq, w: Seq):
        _require_one_field(v, w)
        self.src = v
        self.dst = w
        self.field = f = v.field
        self.margin = MARGIN
        self.L = L = min(v.lo, w.lo - 1) - MARGIN
        self.R = R = max(v.hi, w.hi + 1) + MARGIN
        self.certificate = StabilizationCertificate((L, R), MARGIN)
        self.off0 = {}
        n = 0
        for i in range(L, R + 1):
            self.off0[i] = n
            n += w.dim(i) * v.dim(i)
        self.N = n

        d0 = self._d0_rows()
        rank0, piv0 = _rref(f, d0, n)
        self.dim_hom = n - rank0
        # kernel of d^0, one vector per free column of its rref: the free
        # entry is 1 and each pivot entry the negated rref entry there
        zero, one, neg = f.zero, f.one, f.neg
        pivset = set(piv0)
        free = {}
        for fj in range(n):
            if fj not in pivset:
                free[fj] = vec = [zero] * n
                vec[fj] = one
        for row, c in zip(d0, piv0):
            for j, x in row.items():
                if j in free:
                    free[j][c] = neg(x)
        self.ker_basis_vecs = list(free.values())

        dm1 = self._dm1_rows()
        rank1, self.img_pivots = _rref(f, dm1, n)
        self.dim_eps = n - rank1
        self.img_rows = _dense_rows(dm1[:rank1], n, zero)
        pivset = set(self.img_pivots)
        self.nonpivots = [j for j in range(n) if j not in pivset]

    def _d0_rows(self) -> list:
        """Constraint rows of d^0 on the window, as dict rows: one per entry
        of each (df)^i with L <= i < R."""
        v, w, off0 = self.src, self.dst, self.off0
        neg = self.field.neg
        rows = []
        for i in range(self.L, self.R):
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

    def _dm1_rows(self) -> list:
        """Image vectors of d^-1 on the window, as dict rows: one per entry
        of each h^j with L <= j <= R+1, with its entries at the degrees
        ``j`` and ``j-1`` that lie in the window."""
        v, w, off0 = self.src, self.dst, self.off0
        rows = []
        for j in range(self.L, self.R + 2):
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

    @property
    def d0(self) -> Matrix:
        """The window matrix of d^0 (rows: constraints, columns: coordinates)."""
        rows = _dense_rows(self._d0_rows(), self.N, self.field.zero)
        return Matrix(self.field, len(rows), self.N, tuple(x for row in rows for x in row))

    @property
    def dminus1(self) -> Matrix:
        """The window matrix of d^-1 (columns: image vectors)."""
        rows = _dense_rows(self._dm1_rows(), self.N, self.field.zero)
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
            # a morphism repeats its boundary blocks beyond the window (see
            # the module docstring); their shapes are the tail shapes
            def fn(i):
                return mats[min(max(i, self.L), self.R)]
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
def get_context(v: Seq, w: Seq) -> HomContext:
    return HomContext(v, w)


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


def hom_complex(v: Seq, w: Seq) -> HomData:
    """Bases of Hom_S(v, w) and Hom_eps(v, w) plus the window differentials."""
    ctx = get_context(v, w)
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


def _eps_class(v: Seq, w: Seq, eps: Optional[GradedHomElement]) -> GradedHomElement:
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
    return get_context(v, w).canonical_eps(eps)


def hat(f1: GradedHomElement, feps: Optional[GradedHomElement] = None) -> HatMorphism:
    """Build a morphism, checking the type-1 part and canonicalizing the
    epsilon part.  A type-1 morphism (``feps`` missing or zero) builds no
    hom context."""
    if not is_morphism(f1):
        raise ValidationFailed("type-1 part does not commute with the differentials")
    return HatMorphism(f1, _eps_class(f1.src, f1.dst, feps))


def hat_eps(feps: GradedHomElement) -> HatMorphism:
    return hat(zero_element(feps.src, feps.dst, 0), feps)


def identity_hat(v: Seq) -> HatMorphism:
    return HatMorphism(identity_element(v), zero_element(v, v, 0))


def zero_hat(v: Seq, w: Seq) -> HatMorphism:
    return HatMorphism(zero_element(v, w, 0), zero_element(v, w, 0))


def compose_hat(g: HatMorphism, f: HatMorphism) -> HatMorphism:
    """``g o f = g_1 f_1 + [g_1 f_eps + g_eps f_1]`` (epsilon squares to zero).

    The epsilon part is computed only when ``f`` or ``g`` has one, and a
    hom context is built only when that part is nonzero."""
    if f.dst != g.src:
        raise ValidationFailed("compose: target/source mismatch")
    f1 = compose(g.f1, f.f1)
    eps = (None if f.is_type_one and g.is_type_one
           else compose(g.f1, f.feps) + compose(g.feps, f.f1))
    return HatMorphism(f1, _eps_class(f.src, g.dst, eps))


def shift_hat(h: HatMorphism, k: int) -> HatMorphism:
    f1 = shift_element(h.f1, k)
    eps = None if h.is_type_one else shift_element(h.feps, k)
    return HatMorphism(f1, _eps_class(f1.src, f1.dst, eps))


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
