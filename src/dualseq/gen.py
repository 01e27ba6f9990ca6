"""Random generators for tests and experiment scripts.

All functions take an explicit ``random.Random`` so callers control seeds.
"""

from __future__ import annotations

import random
from typing import List

from .barcode import Interval, Barcode, assemble, make_barcode
from .dualnum import EpsComplex, MinimalComplex, make_minimal, validate
from .graded import GradedHomElement, differential_rows, hom_layout, make_element
from .linalg import Field, Matrix, _kernel_vectors, _rref, inverse, rank as matrix_rank
from .seq import NEG_INF, POS_INF, Seq, Tail, make_seq


def random_scalar(rng: random.Random, field: Field):
    if field.p is None:
        return field.coerce(rng.randint(-3, 3))
    return field.coerce(rng.randrange(field.p))


def random_matrix(rng: random.Random, field: Field, rows: int, cols: int) -> Matrix:
    return Matrix(field, rows, cols,
                  tuple(random_scalar(rng, field) for _ in range(rows * cols)))


def random_invertible(rng: random.Random, field: Field, n: int) -> Matrix:
    while True:
        m = random_matrix(rng, field, n, n)
        if matrix_rank(m) == n:
            return m


def random_interval(rng: random.Random, lo: int = -4, hi: int = 4) -> Interval:
    a = rng.choice([NEG_INF] + list(range(lo, hi + 1)))
    floor = int(a) if isinstance(a, int) else lo
    b = rng.choice(list(range(floor, hi + 1)) + [POS_INF])
    return Interval(a, b)


def random_barcode(rng: random.Random, field: Field, max_bars: int = 8,
                   lo: int = -4, hi: int = 4) -> Barcode:
    n = rng.randint(0, max_bars)
    return make_barcode(field, [random_interval(rng, lo, hi) for _ in range(n)])


def random_seq(rng: random.Random, field: Field, max_bars: int = 8,
               lo: int = -4, hi: int = 4, scrambled: bool = True) -> Seq:
    """A random sequence, optionally conjugated by random basis changes so
    it does not arrive in normal form."""
    v = assemble(random_barcode(rng, field, max_bars, lo, hi))
    return scramble(rng, v) if scrambled else v


def scramble(rng: random.Random, v: Seq) -> Seq:
    """``v`` conjugated by a random basis change in every window degree.
    The basis next to an Iso tail stays fixed, because the tail maps are
    fixed signed identities; a change is drawn for it all the same."""
    if v.is_zero_object:
        return v
    field = v.field
    u = {i: random_invertible(rng, field, v.dim(i))
         for i in range(v.lo, v.hi + 1)}
    if v.left_tail is Tail.ISO:
        u[v.lo] = Matrix.identity(field, v.dim(v.lo))
    if v.right_tail is Tail.ISO:
        u[v.hi] = Matrix.identity(field, v.dim(v.hi))
    maps = [u[i + 1] @ v.map_at(i) @ inverse(u[i]) for i in range(v.lo, v.hi)]
    return make_seq(field, v.lo, tuple(v.dim(i) for i in range(v.lo, v.hi + 1)),
                    maps, v.left_tail, v.right_tail)


def random_d1(rng: random.Random, field: Field, ranks: List[int]) -> List[Matrix]:
    """Random differentials with d1.d1 = 0: a staircase profile conjugated
    by random invertible matrices."""
    n = len(ranks)
    s = [0] * n  # s[k] = rank of d1 at position k (degree lo+k)
    for k in range(n - 1):
        cap = min(ranks[k] - (s[k - 1] if k else 0), ranks[k + 1])
        s[k] = rng.randint(0, max(cap, 0)) if cap > 0 else 0
    u = [random_invertible(rng, field, r) for r in ranks]
    maps = []
    for k in range(n - 1):
        src_used = s[k - 1] if k else 0
        stair = Matrix.zeros(field, ranks[k + 1], ranks[k]).to_lists()
        for t in range(s[k]):
            stair[t][src_used + t] = field.one
        d = Matrix.from_rows(field, stair) if ranks[k + 1] and ranks[k] \
            else Matrix.zeros(field, ranks[k + 1], ranks[k])
        maps.append(u[k + 1] @ d @ inverse(u[k]))
    return maps


def random_deps_for(rng: random.Random, field: Field, ranks: List[int],
                    d1: List[Matrix]) -> List[Matrix]:
    """Uniform sample from the solution space of the mixed differential law
    d1^(i+1) deps^i + deps^(i+1) d1^i = 0: the kernel of ``d^1`` in the Hom
    complex of the sequence with maps ``d1`` (one global linear system)."""
    n = len(ranks)
    v = Seq(field, 0, n - 1, tuple(ranks), tuple(d1), Tail.ZERO, Tail.ZERO)
    off, total = hom_layout(v, v, 1, 0, n - 2)
    rows = differential_rows(v, v, 1, 0, n - 2)
    _, pivots = _rref(field, rows, total)
    # one scalar per free column, in column order, on its kernel vector
    p = field.p
    vec = [field.zero] * total
    for basis in _kernel_vectors(field, rows, pivots, total):
        c = random_scalar(rng, field)
        vec = [x + c * y if p is None else (x + c * y) % p for x, y in zip(vec, basis)]
    out = []
    for k in range(n - 1):
        r, c = ranks[k + 1], ranks[k]
        out.append(Matrix(field, r, c, tuple(vec[off[k]:off[k] + r * c])))
    return out


def random_eps_complex(rng: random.Random, field: Field, max_len: int = 6,
                       max_rank: int = 4, lo_range: int = 3) -> EpsComplex:
    n = rng.randint(1, max_len)
    ranks = [rng.randint(0, max_rank) for _ in range(n)]
    if all(r == 0 for r in ranks):
        ranks[rng.randrange(n)] = 1
    lo = rng.randint(-lo_range, lo_range)
    d1 = random_d1(rng, field, ranks)
    deps = random_deps_for(rng, field, ranks, d1)
    c = EpsComplex(field, lo, tuple(ranks), tuple(d1), tuple(deps))
    rep = validate(c)
    if not rep.ok:
        raise AssertionError(f"generator produced invalid complex: {rep}")
    return c


def random_minimal(rng: random.Random, field: Field, max_len: int = 6,
                   max_rank: int = 4, lo_range: int = 3) -> MinimalComplex:
    n = rng.randint(1, max_len)
    ranks = [rng.randint(0, max_rank) for _ in range(n)]
    if all(r == 0 for r in ranks):
        ranks[rng.randrange(n)] = 1
    lo = rng.randint(-lo_range, lo_range)
    deps = [random_matrix(rng, field, ranks[k + 1], ranks[k])
            for k in range(n - 1)]
    return make_minimal(field, lo, ranks, deps)


def random_graded_element(rng: random.Random, v: Seq, w: Seq,
                          degree: int = 0) -> GradedHomElement:
    """A random graded-hom element with parity-periodic tails."""
    f = v.field
    lo = min(v.lo, w.lo - degree) - 1
    hi = max(v.hi, w.hi - degree) + 1
    window = {i: random_matrix(rng, f, w.dim(degree + i), v.dim(i))
              for i in range(lo, hi + 1)}
    tails = {}

    def fn(i):
        if lo <= i <= hi:
            return window[i]
        key = ("l" if i < lo else "r", i % 2)
        if key not in tails:
            tails[key] = random_matrix(rng, f, w.dim(degree + i), v.dim(i))
        return tails[key]

    return make_element(v, w, degree, lo, hi, fn)
