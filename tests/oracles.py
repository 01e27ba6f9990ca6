"""Independent reference computations used to cross-check the library.

Everything here is deliberately naive: exhaustive enumeration and direct
definition-chasing, no rank bookkeeping, no reuse of the algorithms under
test beyond basic matrix arithmetic.
"""

import itertools
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from dualseq.barcode import Interval, assemble, make_barcode
from dualseq.linalg import Field, Matrix
from dualseq.seq import Seq

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
        w = assemble(make_barcode(v.field, bars))
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


def window_dims(v: Seq, w: Seq, margin: int) -> Tuple[int, int]:
    """``(dim Hom_S, dim Hom_eps)`` as the window at ``margin`` sees them,
    from dense ``d^0`` and ``d^-1`` built straight from the formula

        d^n(f)^i = d_W^(n+i) f^i - (-1)^n f^(i+1) d_V^i

    on the window ``[L, R]`` around ``min(v.lo, w.lo - 1)`` and
    ``max(v.hi, w.hi + 1)``, and ranked by ``gauss_jordan``.  ``d^0`` has
    one row per entry of ``(df)^i``, ``L <= i < R``; ``d^-1`` one image
    vector per entry of ``h^j``, ``L <= j <= R + 1``, cut to the window.
    """
    field = v.field
    lo = min(v.lo, w.lo - 1) - margin
    hi = max(v.hi, w.hi + 1) + margin
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

    return (n - gauss_jordan(field, d0, n)[0], n - gauss_jordan(field, dm1, n)[0])
