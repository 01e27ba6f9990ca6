"""Triangulated operations on the enlarged sequence category.

A morphism h: V -> W completes to a distinguished triangle

    shift(W, -1) --f--> U --g--> V --h--> W

whose middle term has components U^i = ker(h1^i) (+) cok(h1^(i-1)).  This
module builds that cone, the extension attached to a type-eps class, the
splitting test for extensions, the triangle of a degreewise short exact
sequence, and the truncation triangles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Tuple

from .errors import NotExact, ValidationFailed
from .graded import GradedHomElement, make_element, zero_element
from .hom import (HatMorphism, _composite, _eps_class, _hat, _is_class, _summand_map,
                  _vanishes)
from .linalg import Matrix, SplitMap, split_map
from .seq import Seq, Tail, glue, make_seq, shift


@dataclass(frozen=True, eq=False)
class Triangle:
    """A distinguished triangle a --u--> b --v--> c --w--> shift(a, 1)."""

    a: Seq
    b: Seq
    c: Seq
    u: HatMorphism
    v: HatMorphism
    w: HatMorphism

    def __post_init__(self):
        if self.u.src != self.a or self.u.dst != self.b:
            raise ValidationFailed("triangle: u must run a -> b")
        if self.v.src != self.b or self.v.dst != self.c:
            raise ValidationFailed("triangle: v must run b -> c")
        if self.w.src != self.c or self.w.dst != shift(self.a, 1):
            raise ValidationFailed("triangle: w must run c -> shift(a, 1)")

    def verify(self) -> None:
        """Check that ``v o u``, ``w o v`` and ``shift(u, 1) o w`` vanish, in
        that order; raises on the first that does not.  Each is decided by
        ``hom._vanishes`` from the blocks of ``hom._composite``, with ``u``
        read one degree up for the rotation: no composite, shifted ``u`` or
        other element is built."""
        for g, f, k, name in ((self.v, self.u, 0, "v.u"), (self.w, self.v, 0, "w.v"),
                              (self.u, self.w, 1, "shift(u).w")):
            if not _vanishes(*_composite(g, f, k)):
                raise ValidationFailed(f"triangle: {name} does not vanish")


def _degree_splits(f1: GradedHomElement) -> Callable[[int], SplitMap]:
    """The ``split_map`` of the block of ``f1`` at each degree, run once per
    distinct block and kept for one construction: the tails give one block
    per parity, so the many stable degrees share two."""
    by_block = lru_cache(maxsize=None)(split_map)
    return lru_cache(maxsize=None)(lambda i: by_block(f1.component(i)))


def _cone_window(h: HatMorphism) -> Tuple[int, int]:
    """The degrees on which ``cone`` builds U and the 1-parts of f and g."""
    f1, he = h.f1, h.feps
    return min(f1.lo - 1, he.lo), max(f1.hi + 2, he.hi + 1)


def cone_object(h: HatMorphism, sp: Optional[Callable[[int], SplitMap]] = None) -> Seq:
    """U of ``cone(h)``: ``seq.glue`` of ker(h1) and cok(h1) along ``gamma =
    pi . he . kernel``, by the ``_degree_splits`` ``sp`` of h1.  Its maps are
    those h1 induces: ``alpha^i = pker^(i+1) . d_V^i . kernel^i``."""
    v, w, he = h.src, h.dst, h.feps
    sp = sp or _degree_splits(h.f1)

    def alpha(i):
        nxt = sp(i + 1)
        d_ker = v.map_at(i) @ sp(i).kernel
        out = nxt.pker @ d_ker
        if nxt.kernel @ out != d_ker:
            raise ValidationFailed("internal: kernel is not preserved")
        return out

    def beta(i):
        return sp(i + 1).pi @ w.map_at(i) @ sp(i).rest

    def gamma(i):
        s = sp(i)
        return s.pi @ he.component(i) @ s.kernel

    return glue(v.field, *_cone_window(h), lambda i: sp(i).kernel.cols,
                lambda i: sp(i).pi.rows, alpha, beta, gamma, (v, w))


def cone(h: HatMorphism) -> Tuple[Seq, HatMorphism, HatMorphism]:
    """Complete h: V -> W to a triangle shift(W,-1) -> U -> V -> W.

    Returns (U, f, g), U from ``cone_object``.  The 1-parts of f and g are
    the natural inclusion of the kernel and projection onto the cokernel;
    their eps-parts, handed to ``_eps_class`` as block functions, factor
    through the image of h1 via the canonical section.

    U is built, and the 1-parts of f and g stored, on the window ``[lo,
    hi]`` of ``_cone_window``; beyond it every input their blocks read is
    in its tail, so the blocks are parity-periodic there, as ``make_seq``,
    ``make_element`` and ``_eps_class`` require.  At degree i they read the
    splittings of h1 at i-1..i+1, d_V^(i-1), d_V^i, d_W^(i-1), he^(i-1) and
    he^i.  So they need ``lo <= min(v.lo, w.lo + 1, f1.lo - 1, he.lo)`` and
    ``hi >= max(v.hi, w.hi + 1, f1.hi + 2, he.hi + 1)``.  Every stored
    window contains ``base_window(v, w)``, so ``f1.lo - 1 < min(v.lo, w.lo
    + 1)`` and ``f1.hi + 2 > max(v.hi, w.hi + 1)``: the v and w terms never
    decide and are left out.
    """
    v, w, he = h.src, h.dst, h.feps
    lo, hi = _cone_window(h)
    sp = _degree_splits(h.f1)
    u_obj = cone_object(h, sp)
    wm1 = shift(w, -1)

    def f1_at(i):
        pi_p = sp(i - 1).pi
        return Matrix.zeros(v.field, sp(i).kernel.cols, pi_p.cols).vstack(pi_p)

    def feps_at(i):
        p = sp(i - 1)
        top = sp(i).pker @ v.map_at(i - 1) @ p.sec
        bot = -(p.pi @ he.component(i - 1) @ p.sec)
        return top.vstack(bot)

    def g1_at(i):
        return sp(i).kernel.hstack(Matrix.zeros(v.field, v.dim(i), sp(i - 1).pi.rows))

    def geps_at(i):
        s = sp(i)
        left = -(s.sec @ he.component(i) @ s.kernel)
        right = -(s.sec @ w.map_at(i - 1) @ sp(i - 1).rest)
        return left.hstack(right)

    f = _hat(make_element(wm1, u_obj, 0, lo, hi, f1_at), feps_at)
    g = _hat(make_element(u_obj, v, 0, lo, hi, g1_at), geps_at)
    return u_obj, f, g


def cone_triangle(h: HatMorphism) -> Triangle:
    u_obj, f, g = cone(h)
    return Triangle(shift(h.dst, -1), u_obj, h.src, f, g, h)


@dataclass(frozen=True, eq=False)
class ExtensionClass:
    """Degreewise split short exact sequence 0 -> Y[-1] -> E -> X -> 0 with
    E^i = X^i (+) Y^(i-1) and differential [[d_X, 0], [-f, -d_Y]].

    ``feps`` is f in canonical form, the element ``hom._eps_class`` gives,
    as ``extension_from_eps`` builds it; ``splits`` relies on it, so the
    constructor refuses any other ``feps``."""

    x: Seq
    y: Seq
    feps: GradedHomElement
    total: Seq
    incl: HatMorphism
    proj: HatMorphism

    def __post_init__(self):
        f = self.feps
        if (f.src, f.dst, f.degree) != (self.x, self.y, 0) or not _is_class(f):
            raise ValidationFailed("extension class: feps is not its canonical class")


def _extension_window(fc: GradedHomElement) -> Tuple[int, int]:
    """The degrees on which ``extension_from_eps`` builds E (see there)."""
    return min(fc.src.lo - 1, fc.lo), max(fc.dst.hi + 2, fc.hi + 1)


def extension_from_eps(f: GradedHomElement) -> ExtensionClass:
    """Extension of X by Y[-1] attached to a degree-0 class X -> Y.

    The representative is canonicalized first, so equal classes give equal
    extensions and the zero class gives the split one.

    E is built, and its inclusion and projection sampled, on the window
    ``[lo, hi]`` of ``_extension_window``.  ``make_seq`` continues E beyond
    it by its tails, and an ISO tail repeats the edge space E^lo (E^hi)
    with signed identities.  That is right when E^i = X^i (+) Y^(i-1) is a
    tail space for ``i <= lo`` and ``i >= hi``, edges included, and the map
    of E at degree i, which reads d_X^i, fc^i and d_Y^(i-1), a tail map for
    ``i < lo`` and ``i >= hi``.  The canonical representative ``fc`` is
    zero beyond its stored window.  On the left that needs ``lo < x.lo``
    (X^lo beyond the window of X), ``lo - 1 < y.lo`` and ``lo <= fc.lo``;
    on the right ``hi > x.hi``, ``hi - 1 > y.hi`` and ``hi > fc.hi``.  The
    stored window of ``fc`` contains ``[min(x.lo, y.lo), max(x.hi,
    y.hi)]``, which implies the conditions on ``y.lo`` and ``x.hi``, so
    ``lo = min(x.lo - 1, fc.lo)`` and ``hi = max(y.hi + 2, fc.hi + 1)``.
    The strict conditions on X and Y matter when one tail is ISO and the
    other ZERO: the edge space of the ZERO side is nonzero, and the ISO
    tail of E would repeat it.  The inclusion and projection read only the
    dimensions, so they are tail matrices beyond ``[lo, hi]`` as well.
    """
    if f.degree != 0:
        raise ValidationFailed("extension class requires a degree-0 element")
    x, y = f.src, f.dst
    fc = _eps_class(x, y, f.component)
    lo, hi = _extension_window(fc)
    total = glue(x.field, lo, hi, x.dim, y.dim, x.map_at, y.map_at, fc.component, (x, y))
    ym1 = shift(y, -1)
    incl = _summand_map(ym1, total, 1, x.dim, ym1.dim, lo, hi)
    proj = _summand_map(total, x, 2, x.dim, ym1.dim, lo, hi)
    return ExtensionClass(x, y, fc, total, incl, proj)


def splits(e: ExtensionClass) -> Optional[GradedHomElement]:
    """Splitting data of an extension, or None.

    A splitting is a degree -1 element h with -f^i = d_Y^(i-1) h^i
    + h^(i+1) d_X^i; it exists exactly when the class of f vanishes.  f is
    ``e.feps``, the canonical representative of its class, and the
    canonical representative of the zero class is the zero element.  So
    the class vanishes exactly when ``e.feps`` is zero, and then h = 0
    solves the equation: no context is looked up and nothing is solved
    (docs/NOTES.md, "Splitting read off the canonical class")."""
    return zero_element(e.x, e.y, -1) if e.feps.is_zero else None


def _ses_window(b: Seq, c: Seq) -> Tuple[int, int]:
    """The degrees on which ``triangle_from_ses`` solves for the connecting
    map (see there)."""
    return min(b.lo, c.lo), c.hi


def triangle_from_ses(u: HatMorphism, v: HatMorphism) -> Triangle:
    """Distinguished triangle extending a short exact sequence of type-1 maps.

    The connecting class is u^+ (sigma^(i+1) d_C^i - d_B^i sigma^i) for a
    degreewise section sigma of v; its coset does not depend on the section.
    sigma^i and u^+ are the ``sec`` of v^i and of u^(i+1) (one ``split_map``
    per distinct block), and the ``pi`` of u^(i+1) checks the defect.

    Exactness is checked on the windows of u and v and on two degrees, one
    of each parity, beyond them on each side: there every dimension is
    stable and every component is the tail matrix of its parity, so those
    checks cover every degree.  The check at a degree reads only the blocks
    u^i and v^i (their shapes are the dimensions), so a pair of blocks seen
    at an earlier degree is not checked again; the ranks take one elimination.

    The connecting map is solved for on the window ``[lo, hi]`` of
    ``_ses_window`` and set to zero beyond it; only its class is kept.  Its
    defect at degree i maps C^i to B^(i+1).  Below ``lo = min(b.lo, c.lo)``
    either C^i is zero, or B and C are both ISO there (v is onto), so d_B^i
    and d_C^i are the same signed identity, v^(i+1) = v^i, the two sections
    agree and the defect vanishes.  From ``hi = c.hi`` on, either C^i is
    zero for ``i > hi``, or C is ISO and d_C^i is invertible for ``i >=
    hi``; then an eps element f supported in degrees ``>= hi`` is
    ``d^-1(h)`` for the h found by solving ``h^(i+1) d_C^i = f^i -
    d^(i-1) h^i`` upward from ``h = 0``, so the components there do not
    change the class.
    """
    if not u.is_type_one or not v.is_type_one:
        raise ValidationFailed("short exact sequences live in the type-1 part")
    if u.dst != v.src:
        raise ValidationFailed("morphisms are not composable")
    a, b, c = u.src, u.dst, v.dst
    su, sv = _degree_splits(u.f1), _degree_splits(v.f1)
    checked = set()
    for i in range(min(u.f1.lo, v.f1.lo) - 2, max(u.f1.hi, v.f1.hi) + 3):
        ui, vi = u.f1.component(i), v.f1.component(i)
        if (ui, vi) in checked:
            continue
        checked.add((ui, vi))
        ru, rv = su(i).rank, sv(i).rank
        if ru != a.dim(i):
            raise NotExact(f"first map is not injective at degree {i}")
        if rv != c.dim(i):
            raise NotExact(f"second map is not surjective at degree {i}")
        if not (vi @ ui).is_zero or ru + rv != b.dim(i):
            raise NotExact(f"sequence is not exact at degree {i}")
    lo, hi = _ses_window(b, c)

    def w_at(i):
        if i < lo or i > hi:
            return Matrix.zeros(a.field, a.dim(i + 1), c.dim(i))
        defect = sv(i + 1).sec @ c.map_at(i) - b.map_at(i) @ sv(i).sec
        s = su(i + 1)
        if not (s.pi @ defect).is_zero:
            raise ValidationFailed("internal: connecting defect misses the image")
        return s.sec @ defect

    w = _hat(zero_element(c, shift(a, 1), 0), w_at)
    return Triangle(a, b, c, u, v, w)


def truncate_above(v: Seq, n: int) -> Seq:
    """The subobject keeping degrees >= n; its left tail is always Zero."""
    hi = max(n, v.hi)
    dims = tuple(v.dim(i) for i in range(n, hi + 1))
    maps = [v.map_at(i) for i in range(n, hi)]
    return make_seq(v.field, n, dims, maps, Tail.ZERO, v.right_tail)


def truncate_below(v: Seq, n: int) -> Seq:
    """The quotient keeping degrees < n; its right tail is always Zero."""
    lo = min(v.lo, n - 1)
    dims = tuple(v.dim(i) for i in range(lo, n))
    maps = [v.map_at(i) for i in range(lo, n - 1)]
    return make_seq(v.field, lo, dims, maps, v.left_tail, Tail.ZERO)


def truncation_inclusion(v: Seq, n: int) -> HatMorphism:
    """``truncate_above(v, n) -> v``: the identity in degrees ``>= n``."""
    t = truncate_above(v, n)
    return _summand_map(t, v, 1, lambda i: v.dim(i) - t.dim(i), t.dim,
                        min(v.lo, n) - 1, max(v.hi, n) + 1)


def truncation_projection(v: Seq, n: int) -> HatMorphism:
    """``v -> truncate_below(v, n)``: the identity in degrees ``< n``."""
    t = truncate_below(v, n)
    return _summand_map(v, t, 2, t.dim, lambda i: v.dim(i) - t.dim(i),
                        min(v.lo, n) - 1, max(v.hi, n) + 1)


def truncation_triangle(v: Seq, n: int) -> Triangle:
    """The triangle truncate_above(v, n) -> v -> truncate_below(v, n) -> shift.

    v is ``seq.glue`` of X = truncate_below(v, n) and shift(truncate_above(v,
    n), 1) along f, zero but for f^(n-1) = -d_V^(n-1), so the connecting
    class is [f]; nothing is solved (docs/NOTES.md, "One glued sum")."""
    u = truncation_inclusion(v, n)
    p = truncation_projection(v, n)
    x, y = p.dst, shift(u.src, 1)
    d = v.map_at(n - 1)

    def fn(i):
        return -d if i == n - 1 else Matrix.zeros(v.field, y.dim(i), x.dim(i))

    return Triangle(u.src, v, x, u, p, _hat(zero_element(x, y, 0), fn))
