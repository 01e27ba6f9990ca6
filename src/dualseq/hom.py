"""Hom spaces between tailed sequences, and the enlarged morphism category.

For sequences ``V``, ``W`` the graded Hom complex carries the differential

    d^n(f)^i = d_W^(n+i) f^i - (-1)^n f^(i+1) d_V^i .

Two spaces matter everywhere:

* ``Hom_S(V, W)  = ker(d^0)``  - honest sequence morphisms;
* ``Hom_eps(V, W) = cok(d^-1)`` - the extra "epsilon" component of the
  enlarged category, whose morphisms are pairs ``f_1 + [f_eps]`` composing by
  ``(g o f)_1 = g_1 f_1`` and ``(g o f)_eps = g_1 f_eps + g_eps f_1``.
  Every epsilon part is reduced on one path, ``_eps_class``, from the
  coordinates of its blocks on the window ``[L, R]`` below; ``_vanishes``
  decides from the same coordinates whether a composite is zero.

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
``linalg._rref`` to an echelon basis, built by insertion: each row is
reduced by the stored pivot row at its lead, one dict lookup, until its
lead is new or it is zero.  Which echelon basis
comes out depends on the order of the rows, but its pivots do not, and
neither answer depends on more than the pivots and the row space:

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

The coordinates of an element on the window are those of
``graded.hom_layout``, read by ``graded.coords_of``; no dense window matrix
is built, and nothing outside this module and ``graded`` reads them.
Every element built from coordinates, a basis element or a canonical
class, goes through ``graded.placed_elements``: its nonzero coordinates
are written into their blocks, every other block the shared zero one of
its shape, and ``all_morphisms`` certifies the hom basis entry by entry
from the nonzeros of the maps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

from .config import MARGIN, MAX_HOM_WINDOW, MAX_KERNEL_CELLS
from .errors import ValidationFailed
from .graded import (GradedHomElement, all_morphisms, coords_of,
                     differential_rows, hom_layout, identity_element, is_morphism,
                     make_element, placed_elements, shift_element, zero_element)
# subspaces is unused here but stays bound: bench/test_bench.py checks that
# the tracer rebinds the copy of it imported into this module.
from .linalg import Matrix, _kernel_vectors, _reduce_vec, _rref, subspaces  # noqa: F401
from .seq import Seq, direct_sum_seq, shift, summand_blocks


def _require_one_field(v: Seq, w: Seq) -> None:
    if v.field != w.field:
        raise ValidationFailed("hom between sequences over different fields")


def hom_window(v: Seq, w: Seq) -> Tuple[int, int]:
    """The window ``[L, R]`` of both hom spaces (module docstring)."""
    return min(v.lo, w.lo - 1) - MARGIN, max(v.hi, w.hi + 1) + MARGIN


class HomContext:
    """Everything the package needs to know about one ordered pair (V, W)."""

    def __init__(self, v: Seq, w: Seq):
        _require_one_field(v, w)
        self.src = v
        self.dst = w
        self.field = f = v.field
        self.margin = MARGIN
        self.L, self.R = L, R = hom_window(v, w)
        _, n = hom_layout(v, w, 0, L, R)
        self.N = n
        if n > MAX_HOM_WINDOW:
            raise ValidationFailed(f"hom window [{L}, {R}] has {n} coordinates, "
                                   f"more than the limit of {MAX_HOM_WINDOW}")

        d0 = differential_rows(v, w, 0, L, R)
        rank0, piv0 = _rref(f, d0, n)
        self.dim_hom = n - rank0
        if self.dim_hom * n > MAX_KERNEL_CELLS:
            raise ValidationFailed(
                f"hom basis of {self.dim_hom} vectors of {n} coordinates has "
                f"{self.dim_hom * n} entries, more than the limit of {MAX_KERNEL_CELLS}")
        self.ker_basis_vecs = _kernel_vectors(f, d0, piv0, n)

        # the image of d^-1 is spanned by its columns: transpose its rows
        # (h^j with L <= j <= R+1 reaches every window degree)
        _, m = hom_layout(v, w, -1, L, R + 1)
        img = [{} for _ in range(m)]
        for r, row in enumerate(differential_rows(v, w, -1, L, R + 1)):
            for j, x in row.items():
                img[j][r] = x
        rank1, self.img_pivots = _rref(f, img, n)
        self.dim_eps = n - rank1
        self.img_rows = img[:rank1]
        pivset = set(self.img_pivots)
        self.nonpivots = [j for j in range(n) if j not in pivset]
        # the eps basis, an invariant of the pair built on first use
        self._eps_basis = None

    # -- coordinates <-> elements ----------------------------------------

    def reduce_vec(self, vec: list) -> list:
        """Canonical representative of ``vec`` modulo the image of d^-1, the
        one with a zero in every pivot coordinate of the image rows."""
        return _reduce_vec(self.field, self.img_rows, self.img_pivots, vec)

    def eps_coords(self, g: GradedHomElement) -> list:
        """The eps coordinates of the class of a degree-0 element from V to W."""
        if (g.src, g.dst, g.degree) != (self.src, self.dst, 0):
            raise ValidationFailed("element does not belong to this hom context")
        return self.eps_coords_at(g.component)

    def eps_coords_at(self, eps_at: Callable[[int], Matrix]) -> list:
        """``eps_coords`` of the representative with blocks ``eps_at(i)``."""
        red = self.reduce_vec(coords_of(eps_at, self.L, self.R))
        return [red[j] for j in self.nonpivots]

    def eps_from_coords(self, coords: list) -> GradedHomElement:
        """The canonical element with these coordinates, placed in its blocks."""
        if len(coords) != self.dim_eps:
            raise ValidationFailed(f"Hom_eps has dimension {self.dim_eps}, "
                                   f"got {len(coords)} coordinates")
        co = self.field.coerce
        entries = {j: x for j, c in zip(self.nonpivots, coords) if (x := co(c))}
        return placed_elements(self.src, self.dst, 0, self.L, self.R, [entries])[0]

    def eps_hat(self, coords: list) -> "HatMorphism":
        """``hat_eps(eps_from_coords(coords))``, which is canonical already."""
        return HatMorphism(zero_element(self.src, self.dst, 0), self.eps_from_coords(coords))

    def hom_basis(self) -> list:
        out = placed_elements(self.src, self.dst, 0, self.L, self.R,
                              ({j: x for j, x in enumerate(vec) if x}
                               for vec in self.ker_basis_vecs), constant_tails=True)
        if not all_morphisms(out):
            raise ValidationFailed("internal: kernel vector failed the morphism check")
        return out

    def eps_basis(self) -> list:
        """One element per eps coordinate, built on the first call; every
        call returns a new list of the same (immutable) elements."""
        if self._eps_basis is None:
            one = self.field.one
            self._eps_basis = tuple(placed_elements(self.src, self.dst, 0, self.L, self.R,
                                                    ({j: one} for j in self.nonpivots)))
        return list(self._eps_basis)


# Hom contexts kept by get_context, each with its eps basis once asked for
# (docs/NOTES.md, "What a hom context keeps").  Measured working sets of
# the benchmark workloads: hatcat_warm holds 126-131 contexts once warm
# (seeds 1, 2, 3, 7, 11); hom_cold builds 266
# distinct pairs a pass, about 5.6 MB of contexts with their eps bases
# (3.4 MB of it img_rows), and clears the cache every pass; cli_docs clears
# it before every query.
CONTEXT_CACHE_SIZE = 512


@lru_cache(maxsize=CONTEXT_CACHE_SIZE)
def get_context(v: Seq, w: Seq) -> HomContext:
    return HomContext(v, w)


# -- morphisms of the enlarged category ---------------------------------


@dataclass(frozen=True, eq=False)
class HatMorphism:
    """A morphism ``f_1 + [f_eps]`` with ``f_eps`` kept in canonical form:
    every library constructor keeps ``feps`` the element ``_eps_class``
    gives, and ``shift_hat`` relies on it.  This constructor does not."""

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


def _class_entries(v: Seq, w: Seq, eps_at: Callable[[int], Matrix]) -> dict:
    """The nonzero coordinates ``{j: x}`` on ``hom_window`` of the canonical
    class of the representative with the total, parity-periodic blocks
    ``eps_at(i)``.  The blocks are read once; all zero gives ``{}`` with no
    hom context built or looked up, and otherwise ``reduce_vec`` runs."""
    vec = coords_of(eps_at, *hom_window(v, w))
    if not any(vec):
        return {}
    return {j: x for j, x in enumerate(get_context(v, w).reduce_vec(vec)) if x}


def _eps_class(v: Seq, w: Seq, eps_at: Optional[Callable[[int], Matrix]]) -> GradedHomElement:
    """Canonical class in Hom_eps(v, w) of the representative with the blocks
    ``eps_at(i)`` (``g.component``), or of zero for ``None``: the
    ``zero_element``, or ``_class_entries`` placed in their blocks."""
    _require_one_field(v, w)
    entries = None if eps_at is None else _class_entries(v, w, eps_at)
    if not entries:
        return zero_element(v, w, 0)
    return placed_elements(v, w, 0, *hom_window(v, w), [entries])[0]


def _is_class(g: GradedHomElement) -> bool:
    """Whether ``g`` is the ``_eps_class`` of its blocks, with no reduction:
    its window coordinates vanish at every ``img_pivots``, so ``reduce_vec``
    would keep them, and placed in their blocks they give ``g`` back."""
    v, w = g.src, g.dst
    lo, hi = hom_window(v, w)
    vec = coords_of(g.component, lo, hi)
    if any(vec) and any(vec[j] for j in get_context(v, w).img_pivots):
        return False
    return g == placed_elements(v, w, 0, lo, hi, [{j: x for j, x in enumerate(vec) if x}])[0]


def _hat(f1: GradedHomElement, eps_at: Optional[Callable[[int], Matrix]]) -> HatMorphism:
    """``hat`` with the epsilon part given by its blocks (``_eps_class``)."""
    if not is_morphism(f1):
        raise ValidationFailed("type-1 part does not commute with the differentials")
    return HatMorphism(f1, _eps_class(f1.src, f1.dst, eps_at))


def hat(f1: GradedHomElement, feps: Optional[GradedHomElement] = None) -> HatMorphism:
    """Build a morphism, checking the type-1 part and canonicalizing the
    epsilon part.  A type-1 morphism (``feps`` missing or zero) builds no
    hom context."""
    if feps is not None:
        HatMorphism(f1, feps)       # the parts agree, before feps is read
    return _hat(f1, None if feps is None else feps.component)


def hat_eps(feps: GradedHomElement) -> HatMorphism:
    return hat(zero_element(feps.src, feps.dst, 0), feps)


def identity_hat(v: Seq) -> HatMorphism:
    return HatMorphism(identity_element(v), zero_element(v, v, 0))


def zero_hat(v: Seq, w: Seq) -> HatMorphism:
    z = zero_element(v, w, 0)
    return HatMorphism(z, z)


def _composite(g: HatMorphism, f: HatMorphism, k: int = 0) -> tuple:
    """``(src, dst, lo, hi, one_at, eps_at)`` of ``shift(g, k) o f``, with
    ``g`` read ``k`` degrees up: the blocks ``g_1^(k+i) f_1^i`` and, unless
    both are type 1, ``g_1^(k+i) f_eps^i + g_eps^(k+i) f_1^i`` of ``g o f =
    g_1 f_1 + [g_1 f_eps + g_eps f_1]``.  Beyond ``[lo, hi]`` every factor
    is a tail block, so both block functions are parity-periodic there."""
    g1, ge, f1, fe = g.f1.component, g.feps.component, f.f1.component, f.feps.component
    eps_at = (None if f.is_type_one and g.is_type_one
              else lambda i: g1(k + i) @ fe(i) + ge(k + i) @ f1(i))
    return (f.src, shift(g.dst, k) if k else g.dst, min(f.f1.lo, g.f1.lo - k),
            max(f.f1.hi, g.f1.hi - k), lambda i: g1(k + i) @ f1(i), eps_at)


def compose_hat(g: HatMorphism, f: HatMorphism) -> HatMorphism:
    """``g o f`` from the blocks of ``_composite``; the epsilon part is read
    only when ``f`` or ``g`` has one (``_eps_class``)."""
    if f.dst != g.src:
        raise ValidationFailed("compose: target/source mismatch")
    src, dst, lo, hi, one_at, eps_at = _composite(g, f)
    return HatMorphism(make_element(src, dst, 0, lo, hi, one_at), _eps_class(src, dst, eps_at))


def _vanishes(src: Seq, dst: Seq, lo: int, hi: int, one_at: Callable[[int], Matrix],
              eps_at: Optional[Callable[[int], Matrix]]) -> bool:
    """True when the morphism ``src -> dst`` with the blocks ``one_at(i)``
    and ``eps_at(i)`` (``None`` for type 1), both parity-periodic beyond
    ``[lo, hi]``, is zero; no element is built.

    The type-1 part is zero when every ``one_at(i)`` for ``i`` in
    ``lo-2..hi+2`` is: the degrees ``make_element`` samples, which cover
    both parities on each side.  The epsilon part is zero when
    ``_class_entries`` of it is empty, as in ``_eps_class``.  So on the
    blocks of ``_composite(g, f)`` it is ``compose_hat(g, f).is_zero``,
    whose stored window ``[lo, hi]`` already contains
    ``base_window(src, dst)``; and on those of
    ``_composite(g, f, k)`` it is ``compose_hat(shift_hat(g, k), f).is_zero``:
    ``shift_hat`` keeps the blocks ``g^(k+i)`` of both parts (or the zero
    element, when ``g_eps`` is zero already) and a stored window of ``g_1``
    moved by ``-k``."""
    if any(not one_at(i).is_zero for i in range(lo - 2, hi + 3)):
        return False
    return eps_at is None or not _class_entries(src, dst, eps_at)


def shift_hat(h: HatMorphism, k: int) -> HatMorphism:
    """``h`` moved by the shift ``k``, its epsilon part not reduced again.

    Shifting both objects by k moves the hom window by -k, coordinate i to
    coordinate k + i in the same layout order, and scales the rows of
    ``d^-1`` by ``(-1)^k``.  ``_rref`` scales every pivot to 1, so the
    echelon rows, the pivots and the canonical representatives move with
    the shift exactly.  The exception is an object that ``make_seq`` pins
    at window [0,0], the zero object or a constant Iso-Iso sequence: its
    differential is invertible in every degree, so every window-supported
    ``f`` is ``d^-1(x)`` for the x solved from ``x = 0`` upward (``d_V``
    invertible) or downward (``d_W`` invertible).  Then Hom_eps = 0, ``h``
    is type 1, and the ``is_type_one`` branch gives the zero element.
    """
    f1 = shift_element(h.f1, k)
    return HatMorphism(f1, zero_element(f1.src, f1.dst, 0) if h.is_type_one
                       else shift_element(h.feps, k))


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
    lo, hi = min(v.lo, w.lo), max(v.hi, w.hi)
    il, ir, pl, pr = (_summand_map(a, b, k, v.dim, w.dim, lo, hi)
                      for k, (a, b) in enumerate(((v, s), (w, s), (s, v), (s, w))))
    return DirectSum(s, il, ir, pl, pr)


def _summand_map(src: Seq, dst: Seq, k: int, xdim: Callable[[int], int],
                 ydim: Callable[[int], int], lo: int, hi: int) -> HatMorphism:
    """The type-1 morphism ``src -> dst`` whose block at degree i is block
    ``k`` of ``seq.summand_blocks`` for ``S^i = X^i (+) Y^i`` with dim X^i =
    ``xdim(i)`` and dim Y^i = ``ydim(i)``: the inclusion of X (k = 0) or Y
    (1), or the projection onto X (2) or Y (3), stored on ``[lo, hi]``.
    Every inclusion and projection of a degreewise split sum is built here."""
    f = src.field
    return hat(make_element(src, dst, 0, lo, hi,
                            lambda i: summand_blocks(f, xdim(i), ydim(i))[k]))
