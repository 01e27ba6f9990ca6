"""Independent reference computations used to cross-check the library.

Everything here is deliberately naive: exhaustive enumeration and direct
definition-chasing, no rank bookkeeping, no reuse of the algorithms under
test beyond basic matrix arithmetic.
"""

import itertools
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from typing import Dict, List, Optional, Tuple

from dualseq.barcode import Barcode, Interval, make_barcode
from dualseq.config import MARGIN
from dualseq.graded import (GradedHomElement, compose, differential, differential_rows,
                            hom_layout, make_element, shift_element)
from dualseq.hom import HatMorphism, hat_eps, zero_hat
from dualseq.errors import StabilizationDepthExceeded
from dualseq.linalg import Field, Matrix
from dualseq.phantom import PhantomCertificate
from dualseq.seq import Seq, Tail, make_seq, zero_seq
from dualseq.triang import truncation_inclusion

F2 = Field(2)


def gauss_jordan(field: Field, rows, width: int) -> Tuple[int, Tuple[int, ...], list]:
    """Textbook dense Gauss-Jordan on the first ``width`` columns.

    Returns ``(rank, pivots, rows)``: every row is rebuilt in full at every
    step, with no sparsity shortcut.  On the eliminated columns the nonzero
    rows are the reduced row echelon form, which is unique; trailing columns
    agree with any elimination that takes the first nonzero row at or below
    the current one as the pivot row.
    """
    p = field.p

    def sub(x, f, y):
        return (x - f * y) % p if p is not None else x - f * y

    def div(x, y):
        return x * pow(y, -1, p) % p if p is not None else Fraction(x) / y

    a = [list(row) for row in rows]
    pivots = []
    r = 0
    for c in range(width):
        pr = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        piv = a[r][c]
        a[r] = [div(x, piv) for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [sub(x, f, y) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
    return r, tuple(pivots), a


def rank(m: Matrix) -> int:
    return gauss_jordan(m.field, m.to_lists(), m.cols)[0]


def solve_dense(field: Field, aug, k: int) -> Optional[list]:
    """The solution with free variables zero of the dense system ``[a | b]``
    with ``a`` on the first ``k`` columns and one right-hand side after
    them, or None: each pivot variable is the last entry of its rref row."""
    rank_, pivots, rows = gauss_jordan(field, aug, k)
    if any(row[k] for row in rows[rank_:]):
        return None
    x = [field.zero] * k
    for row, c in zip(rows, pivots):
        x[c] = row[k]
    return x


def kernel(m: Matrix) -> Matrix:
    """The kernel basis of the rref: a column per free column, 1 there and
    the negated rref entry at each pivot."""
    f = m.field
    _, pivots, rows = gauss_jordan(f, m.to_lists(), m.cols)
    free = [j for j in range(m.cols) if j not in pivots]
    return Matrix(f, m.cols, len(free), tuple(
        f.one if i == j else f.neg(rows[pivots.index(i)][j]) if i in pivots else f.zero
        for i in range(m.cols) for j in free))


def inverse(a: Matrix) -> Matrix:
    """The trailing columns of the rref of ``[a | I]``, for invertible ``a``."""
    f, n = a.field, a.rows
    ident = Matrix.identity(f, n).to_lists()
    rank_, _, rows = gauss_jordan(f, [r + e for r, e in zip(a.to_lists(), ident)], n)
    assert rank_ == n == a.cols, "not invertible"
    return Matrix(f, n, n, tuple(x for row in rows for x in row[n:]))


def complement(sub: Matrix, ambient_dim: int) -> Matrix:
    """Standard basis vectors completing the column span of ``sub`` to a
    basis of ``k^ambient_dim``: the non-pivot coordinates of its rref."""
    f = sub.field
    _, pivots, _ = gauss_jordan(f, [sub.col(j) for j in range(sub.cols)], ambient_dim)
    free = [j for j in range(ambient_dim) if j not in pivots]
    return Matrix(f, ambient_dim, len(free), tuple(
        f.one if i == j else f.zero for i in range(ambient_dim) for j in free))


def adapted_split(h1: Matrix) -> SimpleNamespace:
    """The parts of ``linalg.split_map(h1)`` by five eliminations: the
    kernel, ``comp`` its ``complement``, ``rest`` the complement of the
    image ``img = h1 . comp``, and two inverses, of ``(img | rest)`` for
    ``pi`` and ``sec`` and of ``(kernel | comp)`` for ``pker``.  Its
    ``comp`` is not the one ``split_map`` picks; every other part that does
    not depend on that choice must agree."""
    ker = kernel(h1)
    comp = complement(ker, h1.cols)
    img = h1 @ comp
    rest = complement(img, h1.rows)
    t = inverse(img.hstack(rest))
    pker = inverse(ker.hstack(comp)).row_block(0, ker.cols)
    return SimpleNamespace(rank=img.cols, kernel=ker, comp=comp, pker=pker, rest=rest,
                           pi=t.row_block(img.cols, h1.rows),
                           sec=comp @ t.row_block(0, img.cols))


def matmul(p: Optional[int], n: int, k: int, m: int, a, b) -> list:
    """``a @ b`` for an ``n x k`` and a ``k x m`` matrix, given as row-major
    flat sequences over ``F_p`` (``p`` prime) or Q (``p`` None).

    The textbook triple loop: every entry sums all ``k`` products from a
    zero of the field (``Fraction(0)`` over Q) and is reduced mod ``p``.
    Returns the row-major flat entries.
    """
    out = []
    for i in range(n):
        for j in range(m):
            s = Fraction(0) if p is None else 0
            for t in range(k):
                s += a[i * k + t] * b[t * m + j]
            out.append(s if p is None else s % p)
    return out


def homotopy_equivalence_ok(he) -> bool:
    """The four identities of a ``dualnum.HomotopyEquivalence`` over k:
    every pair ``a1 + eps*ae`` becomes the k-matrix ``[[a1, 0], [ae, a1]]``
    on the basis ``(e, eps*e)``, and in each degree ``i`` from ``min lo - 3``
    to ``max hi + 3``

        D_N f = f D_M      D_M g = g D_N      f g = 1
        g f - 1 = D_M k + k D_M

    are compared entry by entry, every product by ``matmul``.  Components
    are read straight off the stored tuples (index ``i - src.lo``, zero
    beyond them), the differentials off the complexes' ``d1`` and ``deps``;
    the target's ``d1`` is zero."""
    m, n = he.src, he.dst
    p = m.field.p

    def rank_of(c, i):
        return c.ranks[i - c.lo] if c.lo <= i <= c.hi else 0

    def total(one, eps, t, rows, cols):
        # [[a1, 0], [ae, a1]] of the stored pair at index t, flat, 2rows x 2cols
        def part(comps):
            if comps is not None and 0 <= t < len(comps):
                assert (comps[t].rows, comps[t].cols) == (rows, cols)
                return comps[t].data
            return (0,) * (rows * cols)
        a1, ae = part(one), part(eps)
        top = [x for r in range(rows) for x in a1[r * cols:(r + 1) * cols] + (0,) * cols]
        bottom = [x for r in range(rows)
                  for x in ae[r * cols:(r + 1) * cols] + a1[r * cols:(r + 1) * cols]]
        return 2 * rows, 2 * cols, top + bottom

    def times(a, b):
        (r, k, x), (k2, c, y) = a, b
        assert k == k2
        return r, c, matmul(p, r, k, c, x, y)

    def plus(a, b):
        s = [x + y for x, y in zip(a[2], b[2])]
        return a[0], a[1], s if p is None else [x % p for x in s]

    def ident(r):
        return 2 * r, 2 * r, [int(a == b) for a in range(2 * r) for b in range(2 * r)]

    def dm(i):
        return total(m.d1, m.deps, i - m.lo, rank_of(m, i + 1), rank_of(m, i))

    def dn(i):
        return total(None, n.deps, i - n.lo, rank_of(n, i + 1), rank_of(n, i))

    def f(i):
        return total(he.f1, he.feps, i - m.lo, rank_of(n, i), rank_of(m, i))

    def g(i):
        return total(he.g1, he.geps, i - m.lo, rank_of(m, i), rank_of(n, i))

    def k(i):
        return total(he.k1, he.keps, i - m.lo, rank_of(m, i - 1), rank_of(m, i))

    for i in range(min(m.lo, n.lo) - 3, max(m.hi, n.hi) + 4):
        if (times(dn(i), f(i)) != times(f(i + 1), dm(i))
                or times(dm(i), g(i)) != times(g(i + 1), dn(i))
                or times(f(i), g(i)) != ident(rank_of(n, i))
                or times(g(i), f(i)) != plus(ident(rank_of(m, i)),
                                             plus(times(dm(i - 1), k(i)),
                                                  times(k(i + 1), dm(i))))):
            return False
    return True


def all_matrices(field: Field, rows: int, cols: int) -> List[Matrix]:
    if field.p is None:
        raise ValueError("enumeration needs a finite field")
    ents = itertools.product(range(field.p), repeat=rows * cols)
    return [Matrix(field, rows, cols, e) for e in ents]


def invertibles(field: Field, n: int) -> List[Matrix]:
    return [m for m in all_matrices(field, n, n) if rank(m) == n]


_GL_CACHE: Dict[Tuple[int, int], List[Matrix]] = {}


def _gl(field: Field, n: int) -> List[Matrix]:
    key = (field.p, n)
    if key not in _GL_CACHE:
        _GL_CACHE[key] = invertibles(field, n)
    return _GL_CACHE[key]


def graded_iso_exists(v: Seq, w: Seq, lo: int, hi: int) -> bool:
    """Degreewise-invertible phi with phi d_v = d_w phi, by direct search
    with pruning.  Only sound when both inputs vanish outside [lo, hi]."""
    field = v.field
    dims = [v.dim(i) for i in range(lo, hi + 1)]
    if dims != [w.dim(i) for i in range(lo, hi + 1)]:
        return False

    def extend(t: int, prev: Optional[Matrix]) -> bool:
        if t == len(dims):
            return True
        i = lo + t
        for phi in _gl(field, dims[t]):
            if t > 0 and phi @ v.map_at(i - 1) != w.map_at(i - 1) @ prev:
                continue
            if extend(t + 1, phi):
                return True
        return False

    return extend(0, None)


def assemble_all_pairs(bc: Barcode) -> Seq:
    """The normal form of a barcode straight from the definition: the bars
    alive in each degree are recounted, and each transition compares every
    pair of bars, putting (-1)^i where a bar meets itself."""
    f = bc.field
    ivs = sorted(bc.intervals, key=lambda iv: iv.sort_key)
    if not ivs:
        return zero_seq(f)
    finite = [x for iv in ivs for x in (iv.a, iv.b) if isinstance(x, int)]
    if not finite:
        return make_seq(f, 0, (len(ivs),), (), Tail.ISO, Tail.ISO)
    lo, hi = min(finite), max(finite)
    left = Tail.ISO if any(iv.a == -float("inf") for iv in ivs) else Tail.ZERO
    right = Tail.ISO if any(iv.b == float("inf") for iv in ivs) else Tail.ZERO
    if left is Tail.ISO:
        lo -= 1
    if right is Tail.ISO:
        hi += 1

    def alive(i):
        return [j for j, iv in enumerate(ivs) if iv.a <= i <= iv.b]

    dims = tuple(len(alive(i)) for i in range(lo, hi + 1))
    maps = []
    for i in range(lo, hi):
        sign = f.neg(f.one) if i % 2 else f.one
        data = [sign if rj == cj else f.zero
                for rj in alive(i + 1) for cj in alive(i)]
        maps.append(Matrix(f, len(alive(i + 1)), len(alive(i)), tuple(data)))
    return make_seq(f, lo, dims, tuple(maps), left, right)


def bar_shapes(lo: int, hi: int) -> List[Tuple[int, int]]:
    return [(a, b) for a in range(lo, hi + 1) for b in range(a, hi + 1)]


def candidate_multisets(dims: Tuple[int, ...], lo: int,
                        hi: int) -> List[Tuple[int, ...]]:
    """All bar-count vectors whose per-degree totals match dims."""
    shapes = bar_shapes(lo, hi)
    maxm = max(dims) if dims else 0
    out = []
    for counts in itertools.product(range(maxm + 1), repeat=len(shapes)):
        deg = [0] * len(dims)
        for (a, b), k in zip(shapes, counts):
            for i in range(a, b + 1):
                deg[i - lo] += k
        if tuple(deg) == dims:
            out.append(counts)
    return out


def brute_force_multiplicities(v: Seq, lo: int, hi: int) -> Dict[Interval, int]:
    """The unique interval multiset isomorphic to v, found by assembling
    every candidate and searching for an explicit graded isomorphism."""
    dims = tuple(v.dim(i) for i in range(lo, hi + 1))
    shapes = bar_shapes(lo, hi)
    hits = []
    for counts in candidate_multisets(dims, lo, hi):
        bars = []
        for (a, b), k in zip(shapes, counts):
            bars.extend([Interval(a, b)] * k)
        w = assemble_all_pairs(make_barcode(v.field, bars))
        if graded_iso_exists(v, w, lo, hi):
            hits.append(counts)
    assert len(hits) == 1, f"expected a unique normal form, found {len(hits)}"
    return {Interval(a, b): k
            for (a, b), k in zip(shapes, hits[0]) if k}


def kernel_to_level(v: Seq, n: int, m: int) -> int:
    """dim of the kernel of the composite transition V^n -> V^m, straight
    from the definition."""
    if v.dim(n) == 0:
        return 0
    comp = None
    for i in range(n, m):
        step = v.map_at(i)
        comp = step if comp is None else step @ comp
    if comp is None:
        return 0
    return v.dim(n) - rank(comp)


def _window(v: Seq, w: Seq, margin: int) -> Tuple[int, int]:
    return min(v.lo, w.lo - 1) - margin, max(v.hi, w.hi + 1) + margin


def window_matrices(v: Seq, w: Seq, margin: int) -> Tuple[list, list, int]:
    """Dense ``d^0`` and ``d^-1`` of the window at ``margin``, built
    straight from the formula

        d^n(f)^i = d_W^(n+i) f^i - (-1)^n f^(i+1) d_V^i

    on the window ``[L, R]`` around ``min(v.lo, w.lo - 1)`` and
    ``max(v.hi, w.hi + 1)``.  Returns ``(d0, dm1, N)``: ``d0`` has one row
    per entry of ``(df)^i``, ``L <= i < R``; ``dm1`` one image vector per
    entry of ``h^j``, ``L <= j <= R + 1``, cut to the window; both have
    ``N`` columns, the entries of ``f^i``, ``L <= i <= R``, degree by
    degree and row-major.
    """
    field = v.field
    lo, hi = _window(v, w, margin)
    off = {}
    n = 0
    for i in range(lo, hi + 1):
        off[i] = n
        n += w.dim(i) * v.dim(i)

    def coord(i, r, c):
        # entry (r, c) of f^i: V^i -> W^i, row-major
        return off[i] + r * v.dim(i) + c

    d0 = []
    for i in range(lo, hi):
        dv, dw = v.map_at(i), w.map_at(i)
        for a in range(w.dim(i + 1)):
            for b in range(v.dim(i)):
                row = [field.zero] * n
                for c in range(w.dim(i)):
                    row[coord(i, c, b)] += dw.entry(a, c)
                for c in range(v.dim(i + 1)):
                    row[coord(i + 1, a, c)] -= dv.entry(c, b)
                d0.append([field.coerce(x) for x in row])

    dm1 = []
    for j in range(lo, hi + 2):
        dv, dw = v.map_at(j - 1), w.map_at(j - 1)
        for r in range(w.dim(j - 1)):
            for c in range(v.dim(j)):
                # d^-1 of the unit h^j = E_rc: d_W^(j-1) E_rc in degree j,
                # E_rc d_V^(j-1) in degree j - 1
                row = [field.zero] * n
                if j in off:
                    for a in range(w.dim(j)):
                        row[coord(j, a, c)] += dw.entry(a, r)
                if j - 1 in off:
                    for b in range(v.dim(j - 1)):
                        row[coord(j - 1, r, b)] += dv.entry(c, b)
                dm1.append([field.coerce(x) for x in row])
    return d0, dm1, n


def window_dims(v: Seq, w: Seq, margin: int) -> Tuple[int, int]:
    """``(dim Hom_S, dim Hom_eps)`` as the window at ``margin`` sees them:
    ``window_matrices`` ranked by ``gauss_jordan``."""
    d0, dm1, n = window_matrices(v, w, margin)
    field = v.field
    return (n - gauss_jordan(field, d0, n)[0], n - gauss_jordan(field, dm1, n)[0])


# -- elements from window coordinates, one element at a time -------------


def element_from_coords(v: Seq, w: Seq, n: int, lo: int, hi: int, vec: list,
                        constant_tails: bool = False) -> GradedHomElement:
    """The element of ``Hom^n(V, W)`` with coordinates ``vec`` on the
    degrees ``lo..hi`` (``graded.hom_layout``), through ``make_element``:
    one matrix per block, then a component function that is zero beyond
    the window, or with ``constant_tails`` repeats the boundary blocks, is
    sampled on the window and just beyond it and trimmed to normal form."""
    field, zeros = v.field, Matrix.zeros
    mats = {}
    o = 0
    for i in range(lo, hi + 1):
        r, c = w.dim(n + i), v.dim(i)
        block = vec[o:o + r * c]
        o += r * c
        mats[i] = Matrix(field, r, c, tuple(block)) if any(block) else zeros(field, r, c)

    if constant_tails:
        def fn(i):
            return mats[min(max(i, lo), hi)]
    else:
        def fn(i):
            if i < lo or i > hi:
                return zeros(field, w.dim(n + i), v.dim(i))
            return mats[i]
    return make_element(v, w, n, lo, hi, fn)


def all_morphisms(fs) -> bool:
    """``graded.all_morphisms`` by matrix products: per element and degree
    ``i`` of ``[lo-3, hi+3]`` over the widest stored window, ``d_W^i f^i``
    against ``f^(i+1) d_V^i``."""
    fs = list(fs)
    if not fs:
        return True
    if any(f.degree != 0 for f in fs):
        return False
    src, dst = fs[0].src, fs[0].dst
    for i in range(min(f.lo for f in fs) - 3, max(f.hi for f in fs) + 4):
        dw, dv = dst.map_at(i), src.map_at(i)
        for f in fs:
            if dw @ f.component(i) != f.component(i + 1) @ dv:
                return False
    return True


def hom_basis(ctx) -> list:
    """``HomContext.hom_basis``: one element per kernel vector, with
    constant tails, checked by ``all_morphisms`` above."""
    out = [element_from_coords(ctx.src, ctx.dst, 0, ctx.L, ctx.R, vec, True)
           for vec in ctx.ker_basis_vecs]
    if not all_morphisms(out):
        raise AssertionError("a kernel vector is not a morphism")
    return out


def eps_basis(ctx) -> list:
    """``HomContext.eps_basis``: one dense unit vector of length ``N`` per
    eps coordinate, zero beyond the window."""
    out = []
    for j in ctx.nonpivots:
        vec = [ctx.field.zero] * ctx.N
        vec[j] = ctx.field.one
        out.append(element_from_coords(ctx.src, ctx.dst, 0, ctx.L, ctx.R, vec))
    return out


def window_vec(ctx, g: GradedHomElement) -> list:
    """The coordinates of ``g`` on the window of ``ctx``, block after block."""
    return [x for i in range(ctx.L, ctx.R + 1) for x in g.component(i).data]


# -- eps classes on the oracle's own window ----------------------------------
# The image of d^-1 is the span of the ``window_matrices`` rows at the
# library's margin, ranked by ``gauss_jordan``.  The subspace alone fixes
# the representative of a coset with a zero at every pivot of its rref, and
# the eps coordinates are that representative at the non-pivots, so both
# must equal the library's exactly.


@lru_cache(maxsize=64)
def coset_data(v: Seq, w: Seq) -> SimpleNamespace:
    """The window ``[lo, hi]`` at ``MARGIN`` and its ``n`` coordinates, the
    rref ``rows`` of the image of d^-1 on it with their ``pivots``, and the
    ``nonpivots``."""
    lo, hi = _window(v, w, MARGIN)
    _, dm1, n = window_matrices(v, w, MARGIN)
    r, pivots, rows = gauss_jordan(v.field, dm1, n)
    pivset = set(pivots)
    return SimpleNamespace(lo=lo, hi=hi, n=n, rows=rows[:r], pivots=pivots,
                           nonpivots=[j for j in range(n) if j not in pivset])


def window_coords(v: Seq, w: Seq, eps_at) -> list:
    """The coordinates of the blocks ``eps_at(i)`` on that window."""
    cd = coset_data(v, w)
    return [x for i in range(cd.lo, cd.hi + 1) for x in eps_at(i).data]


def reduce_coset(v: Seq, w: Seq, vec: list) -> list:
    """The representative of ``vec`` modulo the image of d^-1 with a zero
    at every pivot."""
    field, cd = v.field, coset_data(v, w)
    for row, c in zip(cd.rows, cd.pivots):
        x = vec[c]
        if x:
            vec = [field.coerce(a - x * b) if b else a for a, b in zip(vec, row)]
    return vec


def eps_coords(v: Seq, w: Seq, eps_at) -> list:
    """The eps coordinates of that class: the reduced vector at the non-pivots."""
    red = reduce_coset(v, w, window_coords(v, w, eps_at))
    return [red[j] for j in coset_data(v, w).nonpivots]


def eps_element(v: Seq, w: Seq, coords: list) -> GradedHomElement:
    """The canonical representative with eps coordinates ``coords``."""
    cd = coset_data(v, w)
    vec = [v.field.zero] * cd.n
    for j, x in zip(cd.nonpivots, coords):
        vec[j] = x
    return element_from_coords(v, w, 0, cd.lo, cd.hi, vec)


def eps_units(v: Seq, w: Seq) -> list:
    """One canonical representative per eps coordinate, 1 there."""
    k = len(coset_data(v, w).nonpivots)
    return [eps_element(v, w, [v.field.one if t == j else v.field.zero for t in range(k)])
            for j in range(k)]


def canonical_eps(ctx, g: GradedHomElement) -> GradedHomElement:
    """``hom._eps_class`` of ``g`` on the pair of ``ctx``."""
    return eps_class(ctx.src, ctx.dst, g)


def stored(g: GradedHomElement) -> tuple:
    """Every stored field of an element: ``(lo, comps, ltail, rtail)``."""
    return (g.lo, g.comps, g.ltail, g.rtail)


# -- eps classes by building elements ----------------------------------------
# ``hom._eps_class`` reads a representative's blocks as window coordinates;
# these build the representative as an element first, as every composite,
# shift, cone and triangle once did, and reduce it with ``reduce_coset``.


def eps_class(v: Seq, w: Seq, eps: GradedHomElement) -> GradedHomElement:
    """The canonical representative of the class of ``eps`` in Hom_eps(v, w):
    its reduced window vector, built through ``make_element``."""
    cd = coset_data(v, w)
    return element_from_coords(v, w, 0, cd.lo, cd.hi,
                               reduce_coset(v, w, window_coords(v, w, eps.component)))


def eps_class_at(v: Seq, w: Seq, lo: int, hi: int, eps_at) -> GradedHomElement:
    """``eps_class`` of the element ``make_element`` samples from the block
    function ``eps_at`` on ``[lo, hi]``, beyond which it is parity-periodic."""
    return eps_class(v, w, make_element(v, w, 0, lo, hi, eps_at))


def compose_hat(g: HatMorphism, f: HatMorphism) -> HatMorphism:
    """``hom.compose_hat``: compose the parts, add the two eps terms, reduce."""
    eps = compose(g.f1, f.feps) + compose(g.feps, f.f1)
    return HatMorphism(compose(g.f1, f.f1), eps_class(f.src, g.dst, eps))


def shift_hat(h: HatMorphism, k: int) -> HatMorphism:
    """``hom.shift_hat``: shift both parts, then reduce the eps part again."""
    f1 = shift_element(h.f1, k)
    return HatMorphism(f1, eps_class(f1.src, f1.dst, shift_element(h.feps, k)))


def vanishes(g: HatMorphism, f: HatMorphism, k: int = 0) -> bool:
    """``hom._vanishes`` of ``hom._composite(g, f, k)``, by building the
    composite: ``compose_hat(shift_hat(g, k), f).is_zero``."""
    return compose_hat(shift_hat(g, k), f).is_zero


def splits(e) -> Optional[GradedHomElement]:
    """``triang.splits`` by solving for the splitting h of the extension
    ``e``: the class of ``e.feps`` is decided by reducing its window
    coordinates, and only a vanishing class is solved for h, from the sparse
    rows of d^-1 on ``L..R+1`` against ``-e.feps``.  h repeats its boundary
    blocks beyond them, and ``d^-1(h) = -e.feps`` is checked."""
    x, y = e.x, e.y
    field = x.field
    vec = window_coords(x, y, e.feps.component)
    if any(reduce_coset(x, y, vec)):
        return None
    cd = coset_data(x, y)
    L, R = cd.lo, cd.hi
    _, width = hom_layout(x, y, -1, L, R + 1)
    rows = [[row.get(j, field.zero) for j in range(width)] + [field.neg(c)]
            for row, c in zip(differential_rows(x, y, -1, L, R + 1), vec)]
    sol = solve_dense(field, rows, width)
    if sol is None:
        return None
    h = element_from_coords(x, y, -1, L, R + 1, sol, constant_tails=True)
    if differential(h) != -e.feps:
        raise AssertionError("splitting does not solve the coboundary equation")
    return h


def solve_inner(diag, der):
    """``phantom.solve_inner`` with every column read off the composites
    ``f1.rep`` and ``rep.f1``, built as elements, in the oracle's own eps
    coordinates."""
    names = sorted(diag.objects)
    objs = diag.objects
    units = {nm: eps_units(objs[nm], objs[nm]) for nm in names}
    offs, total = {}, 0
    for nm in names:
        offs[nm] = total
        total += len(units[nm])
    rows, f = [], None
    for gname in sorted(diag.generators):
        sn, dn, mor = diag.generators[gname]
        f = mor.src.field
        block = [{total: y} if y else {}
                 for y in eps_coords(mor.src, mor.dst, der.at(gname).feps.component)]
        cols = [(offs[sn] + j, 1, compose(mor.f1, rep)) for j, rep in enumerate(units[sn])]
        cols += [(offs[dn] + j, -1, compose(rep, mor.f1)) for j, rep in enumerate(units[dn])]
        for c, sign, g in cols:
            for row, x in zip(block, eps_coords(mor.src, mor.dst, g.component)):
                if x:
                    row[c] = row.get(c, 0) + sign * x
        rows += [{c: y for c, x in row.items() if (y := f.coerce(x))} for row in block]
    if f is None:
        return {nm: zero_hat(diag.objects[nm], diag.objects[nm]) for nm in names}
    sol = solve_dense(f, [[row.get(j, f.zero) for j in range(total + 1)] for row in rows],
                      total)
    if sol is None:
        return None
    return {nm: hat_eps(eps_element(objs[nm], objs[nm],
                                    sol[offs[nm]:offs[nm] + len(units[nm])]))
            for nm in names}


def check_derivation(diag, der):
    """``phantom.check_derivation`` by building both sides of every relation
    as morphisms and comparing them."""
    for outer, inner, equals in diag.relations:
        g = diag.generators[outer][2]
        f = diag.generators[inner][2]
        rhs = compose_hat(der.at(outer), f) + compose_hat(g, der.at(inner))
        if der.at(equals) != rhs:
            return (outer, inner, equals)
    return None


# -- the phantom kernel chain --------------------------------------------------
# ``phantom`` reads its certificates off a proof; this is the loop that
# computed them, level by level, with the truncation points moved up by
# ``shift`` (the certificate still records the unshifted n).


def kernel_chain(v: Seq, w: Seq, depth: int, shift: int = 0):
    """``(rows, certificate)``: the subspace of Hom_eps(v, w) killed by every
    truncation inclusion, as coordinate dict rows in rref, stable after three
    equal levels.

    Level n adds one constraint row over the eps coordinates of Hom_eps(V, W)
    per eps coordinate of Hom_eps(V^(>=n+shift), W).  The rows of all levels
    so far are one system, kept in rref by ``gauss_jordan``, so the
    dimension of a level is ``k`` minus its rank, and the stable rows are
    the rref basis of its ``kernel``."""
    reps = eps_units(v, w)
    k = len(reps)
    if k == 0:
        return [], PhantomCertificate(((v.lo, 0),), 3)
    f = v.field
    system, rank_ = [], 0
    levels = []
    run = 0
    n = min(v.lo, w.lo) - 1
    for _ in range(depth):
        incl = truncation_inclusion(v, n + shift).f1
        cols = [eps_coords(incl.src, w, lambda i, e=rep.component: e(i) @ incl.component(i))
                for rep in reps]
        new_rank, _, system = gauss_jordan(f, system + [list(r) for r in zip(*cols)], k)
        del system[new_rank:]
        run = run + 1 if new_rank == rank_ else 1
        rank_ = new_rank
        levels.append((n, k - rank_))
        if run >= 3:
            ker = kernel(Matrix(f, rank_, k, tuple(x for row in system for x in row)))
            r, _, rows = gauss_jordan(f, [ker.col(j) for j in range(ker.cols)], k)
            return ([{j: x for j, x in enumerate(row) if x} for row in rows[:r]],
                    PhantomCertificate(tuple(levels), 3))
        n -= 1
    raise StabilizationDepthExceeded(
        f"phantom chain did not stabilize within {depth} truncation levels", depth)
