import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualseq.errors import ValidationFailed
from dualseq.linalg import (Field, Matrix, _kernel_vectors, _rref, block_matrix, complement, inverse,
                            rank, solve, subspaces)
import oracles
from oracles import gauss_jordan

F2 = Field(2)
F5 = Field(5)
Q = Field(None)

FIELDS = [F2, F5, Q]


def fields():
    return st.sampled_from(FIELDS)


def entries(field):
    if field.p is None:
        return st.fractions(min_value=-3, max_value=3, max_denominator=4)
    return st.integers(min_value=0, max_value=field.p - 1)


@st.composite
def matrices(draw, field=None, max_dim=4):
    f = field if field is not None else draw(fields())
    r = draw(st.integers(0, max_dim))
    c = draw(st.integers(0, max_dim))
    data = draw(st.lists(entries(f), min_size=r * c, max_size=r * c))
    return Matrix(f, r, c, tuple(f.coerce(x) for x in data))


def test_field_rejects_composite():
    with pytest.raises(ValidationFailed):
        Field(6)


def test_field_coerce_fraction_mod_p():
    assert F5.coerce(Fraction(1, 2)) == 3
    with pytest.raises(ValidationFailed):
        F5.coerce(Fraction(1, 5))


def test_matrix_shape_mismatch():
    with pytest.raises(ValidationFailed):
        Matrix(F2, 2, 2, (1, 0, 1))


def test_identity_and_zero():
    i = Matrix.identity(F5, 3)
    z = Matrix.zeros(F5, 3, 3)
    assert rank(i) == 3 and rank(z) == 0
    assert i @ i == i
    assert i + z == i


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_rank_nullity(m):
    s = subspaces(m)
    assert rank(m) + s.kernel.cols == m.cols
    assert s.image.cols == rank(m)
    assert (m @ s.kernel).is_zero


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_solve_consistency(m):
    s = subspaces(m)
    if m.cols:
        rhs = m @ Matrix(m.field, m.cols, 1,
                         tuple(m.field.one if i == 0 else m.field.zero
                               for i in range(m.cols)))
        x = solve(m, rhs)
        assert x is not None and m @ x == rhs
    # anything outside the column space must be rejected
    if s.image.cols < m.rows:
        comp = complement(s.image, m.rows)
        assert comp.cols > 0
        bad = Matrix(m.field, m.rows, 1,
                     tuple(comp.entry(i, 0) for i in range(m.rows)))
        assert solve(m, bad) is None


@settings(max_examples=40, deadline=None)
@given(matrices(max_dim=3))
def test_inverse_roundtrip(m):
    if m.rows != m.cols or rank(m) != m.rows:
        return
    inv = inverse(m)
    assert m @ inv == Matrix.identity(m.field, m.rows)
    assert inv @ m == Matrix.identity(m.field, m.rows)


def _random_matrix(rng, field, r, c, density):
    return Matrix(field, r, c, tuple(
        field.coerce(rng.randint(-3, 3) if field.p is None else rng.randrange(field.p))
        if rng.random() < density else field.zero for _ in range(r * c)))


def _oracle_cases(field, seed):
    """Seeded dense, sparse, singular and non-square matrices, and the empty
    shapes."""
    rng = random.Random(seed)
    out = [Matrix(field, r, c, ()) for r, c in ((0, 0), (0, 3), (3, 0))]
    for _ in range(40):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        out.append(_random_matrix(rng, field, r, c, rng.choice([1.0, 0.2])))
    for _ in range(20):
        # square and singular: the last row repeats a combination of the others
        n = rng.randint(1, 7)
        m = _random_matrix(rng, field, n, n, rng.choice([1.0, 0.3]))
        k = field.coerce(rng.randint(1, 3))
        last = [k * x for x in m.row(0)] if n > 1 else [field.zero]
        rows = m.to_lists()[:-1] + [last]
        out.append(Matrix.from_rows(field, rows))
    for _ in range(20):
        n = rng.randint(1, 7)
        out.append(_random_matrix(rng, field, n, n, rng.choice([1.0, 0.4])))
    return out


def _types(m):
    return [type(x) for x in m.data]


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_subspaces_match_oracle(field):
    # the kernel has one column per free column of the rref: 1 there and the
    # negated rref entry at each pivot; the image is m at its pivot columns
    for m in _oracle_cases(field, 30 + (field.p or 0)):
        rank_, pivots, rows = gauss_jordan(field, m.to_lists(), m.cols)
        free = [j for j in range(m.cols) if j not in pivots]
        kernel = [[field.one if i == fj
                   else field.neg(rows[pivots.index(i)][fj]) if i in pivots
                   else field.zero for fj in free] for i in range(m.cols)]
        want_ker = Matrix(field, m.cols, len(free), tuple(x for row in kernel for x in row))
        want_img = Matrix(field, m.rows, rank_,
                          tuple(m.entry(i, c) for i in range(m.rows) for c in pivots))
        s = subspaces(m)
        assert (s.kernel, s.image) == (want_ker, want_img)
        assert _types(s.kernel) == _types(want_ker)


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_kernel_vectors_on_echelon_rows_match_oracle(field):
    # the hom window reads its kernel basis off echelon rows, without back
    # substitution in _rref; the basis is the one the oracle's rref gives
    for m in _oracle_cases(field, 130 + (field.p or 0)):
        _, pivots, rows = gauss_jordan(field, m.to_lists(), m.cols)
        free = [j for j in range(m.cols) if j not in pivots]
        want = [[field.one if i == fj
                 else field.neg(rows[pivots.index(i)][fj]) if i in pivots
                 else field.zero for i in range(m.cols)] for fj in free]
        for reduced in (False, True):
            work = [{j: x for j, x in enumerate(row) if x} for row in m.to_lists()]
            assert _rref(field, work, m.cols, reduced=reduced)[1] == pivots
            got = _kernel_vectors(field, work, pivots, m.cols)
            assert got == want
            assert [type(x) for vec in got for x in vec] == [type(x) for vec in want
                                                              for x in vec]


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_inverse_matches_oracle(field):
    # Gauss-Jordan on [a | identity]: the trailing columns are the inverse
    # exactly when a has full rank
    singular = 0
    for a in _oracle_cases(field, 40 + (field.p or 0)):
        if a.rows != a.cols:
            with pytest.raises(ValidationFailed, match="non-square"):
                inverse(a)
            continue
        n = a.rows
        ident = Matrix.identity(field, n).to_lists()
        rank_, _, rows = gauss_jordan(field, [r + e for r, e in zip(a.to_lists(), ident)], n)
        if rank_ < n:
            singular += 1
            with pytest.raises(ValidationFailed, match="not invertible"):
                inverse(a)
            continue
        want = Matrix(field, n, n, tuple(x for row in rows for x in row[n:]))
        got = inverse(a)
        assert got == want and _types(got) == _types(want)
    assert singular >= 20


def test_complement_spans():
    m = Matrix(F2, 3, 2, (1, 0, 0, 0, 1, 0))
    s = subspaces(m)
    comp = complement(s.image, 3)
    assert s.image.cols + comp.cols == 3
    assert rank(s.image.hstack(comp)) == 3


def test_block_matrix():
    a = Matrix.identity(F5, 2)
    b = Matrix.zeros(F5, 2, 1)
    c = Matrix.zeros(F5, 1, 2)
    d = Matrix.identity(F5, 1)
    m = block_matrix(F5, [[a, b], [c, d]])
    assert m == Matrix.identity(F5, 3)


def test_row_space_canonical():
    def row_space(rows):
        rows = [[F2.coerce(x) for x in r] for r in rows]
        rank_, pivots = _rref(F2, rows, 3)
        return rows[:rank_], pivots

    rs1 = row_space([[1, 1, 0], [0, 1, 1]])
    rs2 = row_space([[0, 1, 1], [1, 0, 1]])
    assert rs1 == rs2


# -- products, sums and solve against the textbook loops ------------------
# Shapes run from 0 to 4, so 0 x k and k x 0 factors occur, and density 0
# gives zero factors.  Entry types are compared too: over Q every entry is a
# Fraction (0 == Fraction(0), so equality alone would not see an int).


def _random_matrix(rng, field, rows, cols, density):
    def entry():
        if rng.random() >= density:
            return field.zero
        return field.coerce(rng.randint(-3, 3) if field.p is None else rng.randrange(field.p))
    return Matrix(field, rows, cols, tuple(entry() for _ in range(rows * cols)))


def _typed(entries):
    return [(type(x), x) for x in entries]


def _pairs(field, seed, count=300):
    """Random ``(n, k, m, a, b)``: ``a`` is ``n x k``, ``b`` is ``k x m``."""
    rng = random.Random(seed)
    for _ in range(count):
        n, k, m = (rng.randint(0, 4) for _ in range(3))
        yield (n, k, m, _random_matrix(rng, field, n, k, rng.choice([0, 0.3, 1])),
               _random_matrix(rng, field, k, m, rng.choice([0, 0.3, 1])))


@pytest.mark.parametrize("field", FIELDS)
def test_matmul_matches_oracle(field):
    zero_factors = 0
    for n, k, m, a, b in _pairs(field, 70 + (field.p or 0)):
        got = a @ b
        assert (got.field, got.rows, got.cols) == (field, n, m)
        assert _typed(got.data) == _typed(oracles.matmul(field.p, n, k, m, a.data, b.data))
        zero_factors += a.is_zero or b.is_zero
    assert zero_factors > 50


@pytest.mark.parametrize("field", FIELDS)
def test_sums_and_scaling_match_entrywise(field):
    p = field.p

    def norm(x):
        return x % p if p is not None else x

    rng = random.Random(80 + (p or 0))
    for n, k, _, a, _ in _pairs(field, 75 + (p or 0)):
        other = _random_matrix(rng, field, n, k, rng.choice([0, 0.3, 1]))
        c = field.coerce(rng.choice([0, 1, 2, -1]))
        for got, want in (
                (a + other, [norm(x + y) for x, y in zip(a.data, other.data)]),
                (a - other, [norm(x - y) for x, y in zip(a.data, other.data)]),
                (other - a, [norm(y - x) for x, y in zip(a.data, other.data)]),
                (-a, [norm(-x) for x in a.data]),
                (a.scale(c), [norm(c * x) for x in a.data])):
            assert (got.field, got.rows, got.cols) == (field, n, k)
            assert _typed(got.data) == _typed(want)
    with pytest.raises(ValidationFailed):
        Matrix.zeros(field, 1, 2) + Matrix.zeros(field, 2, 1)
    with pytest.raises(ValidationFailed):
        Matrix.zeros(field, 1, 2) - Matrix.zeros(F2 if field != F2 else F5, 1, 2)


@pytest.mark.parametrize("field", FIELDS)
def test_solve_matches_oracle(field):
    # consistency from ranks ([a | b] against a), the solution checked by
    # the oracle product, and free variables zero: that fixes x uniquely
    p = field.p
    rng = random.Random(85 + (p or 0))
    kinds = set()
    for n, k, m, a, x0 in _pairs(field, 90 + (p or 0)):
        if rng.random() < 0.5:
            b = Matrix(field, n, m, tuple(field.coerce(y) for y in
                                          oracles.matmul(p, n, k, m, a.data, x0.data)))
        else:
            b = _random_matrix(rng, field, n, m, rng.choice([0.3, 1]))
        x = solve(a, b)
        rank_a, pivots, _ = gauss_jordan(field, a.to_lists(), k)
        rank_ab = gauss_jordan(field, [a.row(i) + b.row(i) for i in range(n)], k + m)[0]
        if rank_ab > rank_a:
            assert x is None
            kinds.add("inconsistent")
            continue
        assert x is not None and (x.field, x.rows, x.cols) == (field, k, m)
        assert all(type(y) is (int if p is not None else Fraction) for y in x.data)
        assert p is None or all(0 <= y < p for y in x.data)
        assert _typed(oracles.matmul(p, n, k, m, a.data, x.data)) == _typed(b.data)
        free = [c for c in range(k) if c not in pivots]
        assert all(not any(x.row(c)) for c in free)
        kinds.add("free" if free and not b.is_zero else "consistent")
    assert kinds == {"inconsistent", "free", "consistent"}
    with pytest.raises(ValidationFailed):
        solve(Matrix.zeros(field, 2, 1), Matrix.zeros(field, 1, 1))


@settings(max_examples=40, deadline=None)
@given(matrices(field=Q, max_dim=3))
def test_rational_arithmetic_exact(m):
    s = m + m
    assert s == m.scale(Fraction(2))
    assert (s - m) == m


@settings(max_examples=80, deadline=None)
@given(fields(), st.sampled_from([0.05, 1.0]), st.integers(0, 24), st.integers(0, 24),
       st.integers(0, 2**32 - 1))
def test_rref_matches_dense_oracle(field, density, m, n, seed):
    # at ~5% nonzero most pivot rows take the sparse in-place update
    rng = random.Random(seed)
    rows = [[field.coerce(rng.randint(-3, 3) if field.p is None else rng.randrange(field.p))
             if rng.random() < density else field.zero for _ in range(n)]
            for _ in range(m)]
    width = rng.randint(0, n)      # trailing columns ride along, as in solve()
    before = [list(r) for r in rows]
    work = list(rows)
    rank_, pivots = _rref(field, work, width)
    want_rank, want_pivots, want_rows = gauss_jordan(field, before, width)
    assert (rank_, pivots) == (want_rank, want_pivots)
    assert work == want_rows
    assert rows == before             # the caller's row lists are not mutated


@pytest.mark.parametrize("field", [F2, Q])
def test_rref_aliased_rows(field):
    # one list object passed three times; the pivot is already 1, so an
    # in-place update of an alias would zero the pivot row itself
    one, zero = field.one, field.zero
    row = [one] + [zero] * 9 + [one]
    a = [row] * 3
    assert _rref(field, a, len(row)) == (1, (0,))
    assert a == [row, [zero] * 11, [zero] * 11]
    assert row == [one] + [zero] * 9 + [one]


def _window_system(rng, field, degrees):
    """Dict rows shaped like a hom window: a block of coordinates per degree,
    each constraint row touching the blocks of two adjacent degrees, a few
    nonzeros per row, and the last two blocks left as trailing columns."""
    sizes = [rng.randint(0, 4) for _ in range(degrees + 2)]
    offs = [sum(sizes[:i]) for i in range(len(sizes) + 1)]
    rows = []
    for i in range(degrees + 1):
        for _ in range(rng.randint(0, 5)):
            row = {}
            for j in range(offs[i], offs[i + 2]):
                if rng.random() < 0.4:
                    x = field.coerce(rng.randint(1, 4) if field.p is None
                                     else rng.randrange(1, field.p))
                    row[j] = x if rng.random() < 0.8 else field.coerce(-x)
            rows.append(row)
    rng.shuffle(rows)
    return rows, offs[degrees], offs[-1]


@pytest.mark.parametrize("field", FIELDS)
def test_rref_dict_rows_match_dense_oracle(field):
    # hom windows reach _rref as dict rows, with ring columns trailing
    rng = random.Random(90 + (field.p or 0))
    for _ in range(60):
        rows, width, n = _window_system(rng, field, rng.randint(1, 8))
        dense = [[row.get(j, field.zero) for j in range(n)] for row in rows]
        want_rank, want_pivots, want_rows = gauss_jordan(field, dense, width)
        # without back substitution: the same rank and pivots, echelon rows
        echelon = [dict(row) for row in rows]
        assert _rref(field, echelon, width, reduced=False) == (want_rank, want_pivots)
        assert [min(row) for row in echelon[:want_rank]] == list(want_pivots)
        assert all(not row or min(row) >= width for row in echelon[want_rank:])
        assert _rref(field, rows, width) == (want_rank, want_pivots)
        assert all(isinstance(row, dict) and all(row.values()) for row in rows)
        assert [[row.get(j, field.zero) for j in range(n)] for row in rows] == want_rows
