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
from typing import Dict, Optional, Tuple

from .errors import NotExact, ValidationFailed
from .graded import GradedHomElement, differential, make_element
from .hom import HatMorphism, compose_hat, get_context, hat, hat_eps, shift_hat
from .linalg import (Matrix, block_matrix, complement, inverse, rank as mrank, solve,
                     subspaces)
from .seq import Seq, Tail, make_seq, shift


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
        """Check that consecutive composites vanish; raises on failure."""
        if not compose_hat(self.v, self.u).is_zero:
            raise ValidationFailed("triangle: v.u does not vanish")
        if not compose_hat(self.w, self.v).is_zero:
            raise ValidationFailed("triangle: w.v does not vanish")
        rot = compose_hat(shift_hat(self.u, 1), self.w)
        if not rot.is_zero:
            raise ValidationFailed("triangle: shift(u).w does not vanish")


class _SplitData:
    """Degreewise splittings attached to the 1-part of a morphism h: V -> W.

    Per degree: a kernel basis, a complement of the kernel, a section of the
    induced surjection onto the image, and cokernel coordinates.  All choices
    are canonical (echelon based) and depend only on the block h1^i, so they
    are computed once per distinct block and degrees with equal blocks share
    identical data.
    """

    def __init__(self, f1: GradedHomElement):
        self.f1 = f1
        self.field = f1.src.field
        self._at: Dict[int, tuple] = {}
        self._by_block: Dict[Matrix, tuple] = {}

    def at(self, i: int) -> tuple:
        out = self._at.get(i)
        if out is None:
            h1 = self.f1.component(i)
            out = self._by_block.get(h1)
            if out is None:
                out = self._by_block[h1] = self._split(h1)
            self._at[i] = out
        return out

    def _split(self, h1: Matrix) -> tuple:
        f = self.field
        sd = subspaces(h1)
        ker = sd.kernel                                   # V^i basis of ker
        comp = complement(ker, h1.cols)                   # V^i = ker (+) comp
        rest = complement(sd.image, h1.rows)              # W^i = im (+) rest
        t = inverse(sd.image.hstack(rest)) if h1.rows else Matrix.zeros(f, 0, 0)
        q = rest.cols
        pi = Matrix(f, q, h1.rows,
                    tuple(t.entry(r, c) for r in range(h1.rows - q, h1.rows)
                          for c in range(h1.rows)))       # coker coordinates
        p_im = Matrix.identity(f, h1.rows) - rest @ pi    # projection onto im
        hc = h1 @ comp
        y = solve(hc, p_im)
        if y is None:
            raise ValidationFailed("internal: section solve failed")
        sec = comp @ y                                    # h1 . sec = p_im
        pk = inverse(ker.hstack(comp))
        pker = Matrix(f, ker.cols, h1.cols,
                      tuple(pk.entry(r, c) for r in range(ker.cols)
                            for c in range(h1.cols)))     # kernel coordinates
        return ker, pker, pi, rest, sec


def _cone_window(h: HatMorphism) -> Tuple[int, int]:
    """The degrees on which ``cone`` builds U and samples f and g (see there)."""
    v, w, f1, he = h.src, h.dst, h.f1, h.feps
    return (min(v.lo, w.lo + 1, f1.lo - 1, he.lo),
            max(v.hi, w.hi + 1, f1.hi + 2, he.hi + 1))


def cone(h: HatMorphism) -> Tuple[Seq, HatMorphism, HatMorphism]:
    """Complete h: V -> W to a triangle shift(W,-1) -> U -> V -> W.

    Returns (U, f, g).  The 1-parts of f and g are the natural inclusion of
    the kernel and projection onto the cokernel; their eps-parts factor
    through the image of h1 via the canonical section.

    U is built, and f and g sampled, on the window ``[lo, hi]`` of
    ``_cone_window``; beyond it every input they read is in its tail, so
    they are parity-periodic there, as ``make_seq`` and ``make_element``
    require.  The map of U at degree i reads the splittings of h1 at
    i-1..i+1, d_V^i, he^i and d_W^(i-1), and the dimension of U^i the
    splittings at i-1 and i.  Below ``lo = min(v.lo, w.lo + 1, f1.lo - 1,
    he.lo)`` all of these lie in the left tails: the splitting at i+1
    reads h1^(i+1), hence ``f1.lo - 1``.  From ``hi = max(v.hi, w.hi + 1,
    f1.hi + 2, he.hi + 1)`` on they lie in the right tails: the splitting at
    i-1 reads h1^(i-1), hence ``f1.hi + 2``.  The components of f at degree i
    read the splittings at i-1 and i, d_V^(i-1) and he^(i-1), and those of g
    the splittings at i-1 and i, he^i and d_W^(i-1); outside ``[lo, hi]``
    these are tail inputs too.
    """
    v, w = h.src, h.dst
    f1, he = h.f1, h.feps
    field = v.field
    lo, hi = _cone_window(h)
    sp = _SplitData(f1)

    def kdim(i):
        return sp.at(i)[0].cols

    def qdim(i):
        return sp.at(i)[2].rows

    dims = tuple(kdim(i) + qdim(i - 1) for i in range(lo, hi + 1))
    maps = []
    for i in range(lo, hi):
        ker_i, _, pi_i, _, _ = sp.at(i)
        ker_n = sp.at(i + 1)[0]
        rest_p = sp.at(i - 1)[3]
        alpha = solve(ker_n, v.map_at(i) @ ker_i)
        if alpha is None:
            raise ValidationFailed("internal: kernel is not preserved")
        gamma = pi_i @ he.component(i) @ ker_i
        beta = pi_i @ w.map_at(i - 1) @ rest_p
        maps.append(block_matrix(field, [[alpha, Matrix.zeros(field, alpha.rows, beta.cols)],
                                         [-gamma, -beta]]))
    lt = Tail.ISO if Tail.ISO in (v.left_tail, w.left_tail) else Tail.ZERO
    rt = Tail.ISO if Tail.ISO in (v.right_tail, w.right_tail) else Tail.ZERO
    u_obj = make_seq(field, lo, dims, maps, lt, rt)

    wm1 = shift(w, -1)

    def f1_at(i):
        ker_i, _, _, _, _ = sp.at(i)
        _, _, pi_p, _, _ = sp.at(i - 1)
        return Matrix.zeros(field, ker_i.cols, pi_p.cols).vstack(pi_p)

    def feps_at(i):
        _, pker_i, _, _, _ = sp.at(i)
        _, _, pi_p, _, sec_p = sp.at(i - 1)
        top = pker_i @ v.map_at(i - 1) @ sec_p
        bot = -(pi_p @ he.component(i - 1) @ sec_p)
        return top.vstack(bot)

    def g1_at(i):
        ker_i = sp.at(i)[0]
        return ker_i.hstack(Matrix.zeros(field, v.dim(i), qdim(i - 1)))

    def geps_at(i):
        ker_i, _, _, _, sec_i = sp.at(i)
        _, _, _, rest_p, _ = sp.at(i - 1)
        left = -(sec_i @ he.component(i) @ ker_i)
        right = -(sec_i @ w.map_at(i - 1) @ rest_p)
        return left.hstack(right)

    f = hat(make_element(wm1, u_obj, 0, lo, hi, f1_at),
            make_element(wm1, u_obj, 0, lo, hi, feps_at))
    g = hat(make_element(u_obj, v, 0, lo, hi, g1_at),
            make_element(u_obj, v, 0, lo, hi, geps_at))
    return u_obj, f, g


def cone_triangle(h: HatMorphism) -> Triangle:
    u_obj, f, g = cone(h)
    return Triangle(shift(h.dst, -1), u_obj, h.src, f, g, h)


@dataclass(frozen=True, eq=False)
class ExtensionClass:
    """Degreewise split short exact sequence 0 -> Y[-1] -> E -> X -> 0 with
    E^i = X^i (+) Y^(i-1) and differential [[d_X, 0], [-f, -d_Y]]."""

    x: Seq
    y: Seq
    feps: GradedHomElement
    total: Seq
    incl: HatMorphism
    proj: HatMorphism


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
    field = x.field
    ctx = get_context(x, y)
    fc = ctx.canonical_eps(f)
    lo, hi = _extension_window(fc)
    dims = tuple(x.dim(i) + y.dim(i - 1) for i in range(lo, hi + 1))
    maps = []
    for i in range(lo, hi):
        z = Matrix.zeros(field, x.dim(i + 1), y.dim(i - 1))
        maps.append(block_matrix(field, [[x.map_at(i), z],
                                         [-fc.component(i), -y.map_at(i - 1)]]))
    lt = Tail.ISO if Tail.ISO in (x.left_tail, y.left_tail) else Tail.ZERO
    rt = Tail.ISO if Tail.ISO in (x.right_tail, y.right_tail) else Tail.ZERO
    total = make_seq(field, lo, dims, maps, lt, rt)
    ym1 = shift(y, -1)

    def inc_at(i):
        return Matrix.zeros(field, x.dim(i), y.dim(i - 1)).vstack(
            Matrix.identity(field, y.dim(i - 1)))

    def prj_at(i):
        return Matrix.identity(field, x.dim(i)).hstack(
            Matrix.zeros(field, x.dim(i), y.dim(i - 1)))

    incl = hat(make_element(ym1, total, 0, lo, hi, inc_at))
    proj = hat(make_element(total, x, 0, lo, hi, prj_at))
    return ExtensionClass(x, y, fc, total, incl, proj)


def splits(e: ExtensionClass) -> Optional[GradedHomElement]:
    """Splitting data of an extension, or None.

    A splitting is a degree -1 element h with -f^i = d_Y^(i-1) h^i
    + h^(i+1) d_X^i; it exists exactly when the class of f vanishes.  The
    class is decided by reducing f modulo the image rows of the hom window;
    only a vanishing class solves the window matrix of d^-1 for h.
    """
    ctx = get_context(e.x, e.y)
    field = ctx.field
    vec = ctx.vec_of(e.feps)
    # img_rows is an echelon basis of the image of d^-1, so a nonzero
    # remainder means solve would return None
    if any(ctx.reduce_vec(vec)):
        return None
    target = Matrix.column(field, [field.neg(c) for c in vec])
    sol = solve(ctx.dminus1, target)
    if sol is None:
        return None
    mats = {}
    pos = 0
    for j in range(ctx.L, ctx.R + 2):
        r, c = e.y.dim(j - 1), e.x.dim(j)
        if r * c == 0:
            mats[j] = Matrix.zeros(field, r, c)
            continue
        mats[j] = Matrix(field, r, c,
                         tuple(sol.entry(pos + t, 0) for t in range(r * c)))
        pos += r * c

    def fn(j):
        return mats[min(max(j, ctx.L), ctx.R + 1)]

    h = make_element(e.x, e.y, -1, ctx.L, ctx.R + 1, fn)
    if differential(h) != -e.feps:
        raise ValidationFailed("internal: splitting does not solve the coboundary equation")
    return h


def _ses_window(b: Seq, c: Seq) -> Tuple[int, int]:
    """The degrees on which ``triangle_from_ses`` solves for the connecting
    map (see there)."""
    return min(b.lo, c.lo), c.hi


def triangle_from_ses(u: HatMorphism, v: HatMorphism) -> Triangle:
    """Distinguished triangle extending a short exact sequence of type-1 maps.

    The connecting class is u^+ (sigma^(i+1) d_C^i - d_B^i sigma^i) for a
    degreewise section sigma of v; its coset does not depend on the section.

    Exactness is checked on the windows of u and v and on two degrees, one
    of each parity, beyond them on each side: there every dimension is
    stable and every component is the tail matrix of its parity, so those
    checks cover every degree.  The check at a degree reads only the blocks
    u^i and v^i (their shapes are the dimensions), so a pair of blocks seen
    at an earlier degree is not checked again.

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
    checked = set()
    for i in range(min(u.f1.lo, v.f1.lo) - 2, max(u.f1.hi, v.f1.hi) + 3):
        ui = u.f1.component(i)
        vi = v.f1.component(i)
        if (ui, vi) in checked:
            continue
        checked.add((ui, vi))
        ru, rv = mrank(ui), mrank(vi)
        if ru != a.dim(i):
            raise NotExact(f"first map is not injective at degree {i}")
        if rv != c.dim(i):
            raise NotExact(f"second map is not surjective at degree {i}")
        if not (vi @ ui).is_zero or ru + rv != b.dim(i):
            raise NotExact(f"sequence is not exact at degree {i}")
    lo, hi = _ses_window(b, c)
    sigma = {i: solve(v.f1.component(i), Matrix.identity(a.field, c.dim(i)))
             for i in range(lo, hi + 2)}

    def w_at(i):
        if i < lo or i > hi:
            return Matrix.zeros(a.field, a.dim(i + 1), c.dim(i))
        defect = sigma[i + 1] @ c.map_at(i) - b.map_at(i) @ sigma[i]
        out = solve(u.f1.component(i + 1), defect)
        if out is None:
            raise ValidationFailed("internal: connecting defect misses the image")
        return out

    w = hat_eps(make_element(c, shift(a, 1), 0, lo, hi, w_at))
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


def inclusion_element(v: Seq, n: int) -> GradedHomElement:
    """The inclusion ``truncate_above(v, n) -> v`` as a degree-0 element,
    unchecked: the identity in degrees ``>= n`` and zero below."""
    t = truncate_above(v, n)

    def fn(i):
        if i >= n:
            return Matrix.identity(v.field, v.dim(i))
        return Matrix.zeros(v.field, v.dim(i), t.dim(i))

    return make_element(t, v, 0, min(v.lo, n) - 1, max(v.hi, n) + 1, fn)


def truncation_inclusion(v: Seq, n: int) -> HatMorphism:
    return hat(inclusion_element(v, n))


def truncation_projection(v: Seq, n: int) -> HatMorphism:
    t = truncate_below(v, n)

    def fn(i):
        if i < n:
            return Matrix.identity(v.field, v.dim(i))
        return Matrix.zeros(v.field, t.dim(i), v.dim(i))

    lo = min(v.lo, n) - 1
    hi = max(v.hi, n) + 1
    return hat(make_element(v, t, 0, lo, hi, fn))


def truncation_triangle(v: Seq, n: int) -> Triangle:
    """The triangle truncate_above(v, n) -> v -> truncate_below(v, n) -> shift."""
    beta = truncation_inclusion(v, n)
    delta = truncation_projection(v, n)
    return triangle_from_ses(beta, delta)
