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

``MARGIN`` (``dualseq.config``) is that bound, 1.  A wider margin only
costs a larger window: on random pairs with rays, margins 3 and 5 give the
same bases and the same coset representatives as margin 1 (a tested
observation, not part of the proof).

The work follows the nonzeros, and stops at echelon form.  Both systems
are the dict rows ``{column: entry}`` of ``graded.differential_rows``, each
touching two adjacent degree blocks, and both are reduced in place by
``linalg._rref`` without back substitution.  Neither answer needs it:

* the kernel basis of ``d^0``, one vector per free column with 1 there and
  0 at the other free columns, is unique, and ``linalg._kernel_vectors``
  reads it off the echelon rows by back substitution on the kernel
  vectors alone;
* the rows of ``d^-1`` are transposed, in one pass over their nonzeros,
  into its image vectors, whose echelon rows (pivot entries 1) are the
  coset data of ``Hom_eps``.  The representative of a coset with zeros at
  every pivot is unique, and ``reduce_vec`` reaches it by subtracting the
  rows in increasing pivot order: a row is zero at every earlier pivot, so
  a zeroed pivot coordinate stays zero.  A coset reduction subtracts only
  the nonzeros of the rows.

Basis elements share one zero matrix per block shape (most blocks are
zero, and an eps-basis element has a single nonzero block), and
``all_morphisms`` skips the degrees where both components of an element
are zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

from .config import MARGIN
from .errors import ValidationFailed
from .graded import (GradedHomElement, all_morphisms, compose, differential_rows,
                     hom_layout, identity_element, is_morphism, make_element,
                     shift_element, zero_element)
# subspaces is unused here but stays bound: bench/test_bench.py checks that
# the tracer rebinds the copy of it imported into this module.
from .linalg import (Matrix, _dense_rows, _kernel_vectors, _rref,  # noqa: F401
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
        self.off0, n = hom_layout(v, w, 0, L, R)
        self.N = n

        d0 = differential_rows(v, w, 0, L, R)
        rank0, piv0 = _rref(f, d0, n, reduced=False)
        self.dim_hom = n - rank0
        self.ker_basis_vecs = _kernel_vectors(f, d0, piv0, n)

        # the image of d^-1 is spanned by its columns: transpose its rows
        # (h^j with L <= j <= R+1 reaches every window degree)
        _, m = hom_layout(v, w, -1, L, R + 1)
        img = [{} for _ in range(m)]
        for r, row in enumerate(differential_rows(v, w, -1, L, R + 1)):
            for j, x in row.items():
                img[j][r] = x
        rank1, self.img_pivots = _rref(f, img, n, reduced=False)
        self.dim_eps = n - rank1
        self.img_rows = img[:rank1]
        pivset = set(self.img_pivots)
        self.nonpivots = [j for j in range(n) if j not in pivset]

    def _window_matrix(self, n: int, hi: int) -> Matrix:
        _, cols = hom_layout(self.src, self.dst, n, self.L, hi)
        rows = _dense_rows(differential_rows(self.src, self.dst, n, self.L, hi),
                           cols, self.field.zero)
        return Matrix(self.field, len(rows), cols, tuple(x for row in rows for x in row))

    @property
    def d0(self) -> Matrix:
        """The window matrix of d^0 (rows: constraints, columns: coordinates)."""
        return self._window_matrix(0, self.R)

    @property
    def dminus1(self) -> Matrix:
        """The window matrix of d^-1 (columns: the entries of h^j,
        L <= j <= R+1)."""
        return self._window_matrix(-1, self.R + 1)

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
        """Canonical representative of ``vec`` modulo the image of d^-1: the
        image rows are in echelon form with pivot entries 1, so subtracting
        each at its pivot, in increasing pivot order, zeroes its pivot
        coordinate for good (the later rows are zero there) and leaves a
        zero in every pivot coordinate."""
        out = list(vec)
        p = self.field.p
        for row, c in zip(self.img_rows, self.img_pivots):
            coef = out[c]
            if coef:
                for j, y in row.items():
                    x = out[j] - coef * y
                    out[j] = x if p is None else x % p
        return out

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
        if len(coords) != self.dim_eps:
            raise ValidationFailed(f"Hom_eps has dimension {self.dim_eps}, "
                                   f"got {len(coords)} coordinates")
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
