import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from dualseq import linalg
from dualseq.errors import ValidationFailed
from dualseq.linalg import (Field, Matrix, _dict_rows, _kernel_vectors, _reduce_vec, _rref,
                            block_matrix, inverse, rank, solve, split_map, subspaces)
import oracles
from oracles import gauss_jordan

F2 = Field(2)
F5 = Field(5)
Q = Field(None)

FIELDS = [F2, F5, Q]


def fields():
    return st.sampled_from(FIELDS)


def test_oracles_borrow_no_elimination_from_linalg():
    # the reference computations eliminate with their own gauss_jordan: no
    # function of linalg, and so none of its private elimination helpers
    # (_rref, _solve_rows, _kernel_vectors, _dict_rows, ...), is bound in
    # oracles under any name
    funcs = {id(obj): name for name, obj in vars(linalg).items()
             if inspect.isfunction(obj) and obj.__module__ == linalg.__name__}
    assert {"_rref", "_solve_rows", "_kernel_vectors", "_dict_rows"} <= set(funcs.values())
    borrowed = sorted(funcs[id(obj)] for obj in vars(oracles).values() if id(obj) in funcs)
    assert borrowed == []


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


@pytest.mark.parametrize("field", FIELDS, ids=repr)
def test_field_coerce_reads_every_scalar_exactly(field):
    # a float or a string is the rational it denotes, in every field
    for x, exact in ((-1.0, -1), (3.0, 3), (True, 1), ("-2/3", Fraction(-2, 3)),
                     (" 7 ", 7), ("1.5e1", 15)):
        assert field.coerce(x) == field.coerce(exact)
    if field.p != 2:
        assert field.coerce(0.5) == field.coerce("1/2") == field.coerce(Fraction(1, 2))
    assert F5.coerce(0.5) == 3 and Q.coerce(0.5) == Fraction(1, 2)
    for bad in ("x", "1/2/3", "", "1/0", float("nan"), float("inf"), -float("inf"), None, 1j):
        with pytest.raises(ValidationFailed, match="not a scalar"):
            field.coerce(bad)


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
        comp = oracles.complement(s.image, m.rows)
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
        assert (s.kernel, s.image, s.pivots) == (want_ker, want_img, pivots)
        assert _types(s.kernel) == _types(want_ker)


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_kernel_vectors_on_echelon_rows_match_oracle(field):
    # the hom window reads its kernel basis off echelon rows; the basis is
    # the one the oracle's rref gives
    for m in _oracle_cases(field, 130 + (field.p or 0)):
        _, pivots, rows = gauss_jordan(field, m.to_lists(), m.cols)
        free = [j for j in range(m.cols) if j not in pivots]
        want = [[field.one if i == fj
                 else field.neg(rows[pivots.index(i)][fj]) if i in pivots
                 else field.zero for i in range(m.cols)] for fj in free]
        work = [{j: x for j, x in enumerate(row) if x} for row in m.to_lists()]
        assert _rref(field, work, m.cols)[1] == pivots
        got = _kernel_vectors(field, work, pivots, m.cols)
        assert got == want
        assert [type(x) for vec in got for x in vec] == [type(x) for vec in want for x in vec]


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
    comp = split_map(m).rest
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
    # two spanning sets of one row space: echelon rows whose rref is the
    # same canonical basis
    def row_space(rows):
        work = _dict_rows(rows)
        got = _rref(F2, work, 3)
        _check_echelon(F2, rows, 3, 3, work, got)
        return gauss_jordan(F2, [[row.get(j, 0) for j in range(3)] for row in work], 3)

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


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_solve_does_not_depend_on_row_order(field):
    # the echelon rows of [a | b] depend on the order of its rows; the
    # canonical solution, its entry types and the verdict "no solution" do not
    p = field.p
    rng = random.Random(95 + (p or 0))
    kinds = set()
    for n, k, m, a, x0 in _pairs(field, 96 + (p or 0)):
        b = a @ x0 if rng.random() < 0.5 else _random_matrix(rng, field, n, m,
                                                             rng.choice([0.3, 1]))
        x = solve(a, b)
        kinds.add("inconsistent" if x is None else "free" if rank(a) < k else "unique")
        for _ in range(3):
            perm = rng.sample(range(n), n)
            pa = Matrix(field, n, k, tuple(y for i in perm for y in a.row(i)))
            pb = Matrix(field, n, m, tuple(y for i in perm for y in b.row(i)))
            got = solve(pa, pb)
            assert got == x and (x is None or _types(got) == _types(x))
    assert kinds == {"inconsistent", "free", "unique"}


def test_solve_refuses_a_right_hand_side_over_another_field():
    # an F2 matrix holding 3 and 4, or Fractions inside an F5 matrix, is
    # what a solve across fields would return
    for f in FIELDS:
        for g in FIELDS:
            if f != g:
                with pytest.raises(ValidationFailed, match=f"over {f}.*over {g}"):
                    solve(Matrix.identity(f, 2), Matrix.from_rows(g, [[3], [4]]))


@settings(max_examples=40, deadline=None)
@given(matrices(field=Q, max_dim=3))
def test_rational_arithmetic_exact(m):
    s = m + m
    assert s == m.scale(Fraction(2))
    assert (s - m) == m


def _check_echelon(field, dense, width, n, work, got):
    """The contract of ``_rref``, which returned ``got`` and left ``work``
    from the dense rows ``dense`` of length ``n``: Gauss-Jordan's rank and
    pivots; pivot rows with pivot entry 1, zero before it, whose rref on
    the first ``width`` columns is the oracle's; leftover rows zero on
    those columns; the same span on all columns.  Rows are dicts without
    zero entries, over Q of Fractions."""
    zero = field.zero
    want_rank, want_pivots, want_rows = gauss_jordan(field, dense, width)
    assert got == (want_rank, want_pivots) and len(work) == len(dense)
    assert all(isinstance(row, dict) and all(row.values()) for row in work)
    assert field.p is not None or all(_fractions(row.values()) for row in work)
    top, rest = work[:want_rank], work[want_rank:]
    assert all(min(row) == c and row[c] == 1 for row, c in zip(top, want_pivots))
    rows = [[row.get(j, zero) for j in range(n)] for row in work]
    rref = gauss_jordan(field, rows[:want_rank], width)[2]
    assert [row[:width] for row in rref] == [row[:width] for row in want_rows[:want_rank]]
    assert all(min(row, default=width) >= width for row in rest)
    assert gauss_jordan(field, rows, n) == gauss_jordan(field, dense, n)


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
    work = _dict_rows(rows)
    _check_echelon(field, rows, width, n, work, _rref(field, work, width))


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
        _check_echelon(field, dense, width, n, rows, _rref(field, rows, width))


def _echelon_cases(rng, field):
    """Window-shaped systems and random sparse and dense matrices, as dense
    rows with an elimination width and trailing columns, each with some
    zero rows and repeated rows appended."""
    cases = []
    for _ in range(30):
        rows, width, n = _window_system(rng, field, rng.randint(1, 8))
        cases.append(([[row.get(j, field.zero) for j in range(n)] for row in rows], width, n))
    for _ in range(30):
        r, n = rng.randint(1, 9), rng.randint(1, 9)
        m = _random_matrix(rng, field, r, n, rng.choice([1.0, 0.3, 0.1]))
        cases.append((m.to_lists(), rng.randint(0, n), n))
    for dense, width, n in cases:
        extra = [[field.zero] * n for _ in range(rng.randint(0, 2))]
        extra += [list(row) for row in rng.sample(dense, min(len(dense), rng.randint(0, 2)))]
        yield dense + extra, width, n


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_echelon_rows_match_oracle(field):
    # _rref in any row order keeps its contract (_check_echelon), and the
    # kernel basis read off the echelon rows is the oracle's in every order
    rng = random.Random(140 + (field.p or 0))
    zero = field.zero
    for dense, width, n in _echelon_cases(rng, field):
        want_rank, want_pivots, want_rows = gauss_jordan(field, dense, width)
        free = [j for j in range(width) if j not in want_pivots]
        want_ker = [[field.one if i == fj
                     else field.neg(want_rows[want_pivots.index(i)][fj]) if i in want_pivots
                     else zero for i in range(width)] for fj in free]
        for order in [dense, dense[::-1]] + [rng.sample(dense, len(dense)) for _ in range(2)]:
            work = _dict_rows(order)
            _check_echelon(field, order, width, n, work, _rref(field, work, width))
            proj = _dict_rows(row[:width] for row in order)
            _, pivots = _rref(field, proj, width)
            got = _kernel_vectors(field, proj, pivots, width)
            assert got == want_ker
            assert [type(x) for vec in got for x in vec] == [type(x) for vec in want_ker
                                                              for x in vec]


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_leftover_rows_name_older_pivot_rows(field):
    # the elder rule of barcode.decompose, read off _rref of [rows | identity]
    # with each row scaled: a leftover row keeps its own nonzero trailing
    # entry, names otherwise only earlier rows that became pivot rows, and
    # its trailing entries, each over its row's scale, combine the input
    # rows to zero on the width
    rng = random.Random(150 + (field.p or 0))
    p, zero = field.p, field.zero
    for dense, width, _ in _echelon_cases(rng, field):
        for _ in range(2):
            rows = [row[:width] for row in rng.sample(dense, len(dense))]
            k = len(rows)
            units = [field.coerce(rng.randint(1, 4) if p is None else rng.randrange(1, p))
                     for _ in rows]
            work = _dict_rows(row + [units[t] if q == t else zero for q in range(k)]
                              for t, row in enumerate(rows))
            rank_, _ = _rref(field, work, width)
            # row t becomes a pivot row exactly when it is independent of
            # the rows before it
            ranks = [gauss_jordan(field, rows[:t], width)[0] for t in range(k + 1)]
            kept = [ranks[t + 1] > ranks[t] for t in range(k)]
            flat = [x for r in rows for x in r]
            owns = []
            for row in work[rank_:]:
                own = max(row) - width
                owns.append(own)
                assert min(row) >= width and row[width + own] == units[own]
                assert all(kept[j - width] and j - width < own for j in row
                           if j != width + own)
                coef = [row.get(width + t, zero) * field.inv(units[t]) for t in range(k)]
                assert oracles.matmul(p, 1, k, width, coef, flat) == [zero] * width
            assert sorted(owns) == [t for t in range(k) if not kept[t]]


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_row_block_matches_list_slices(field):
    # every range, empty ones and zero-column matrices included
    rng = random.Random(61)
    for _ in range(30):
        r, c = rng.randint(0, 5), rng.randint(0, 3)
        m = Matrix(field, r, c, tuple(field.coerce(rng.randint(-2, 2)) for _ in range(r * c)))
        for start in range(r + 1):
            for stop in range(start, r + 1):
                blk = m.row_block(start, stop)
                assert (blk.field, blk.rows, blk.cols) == (field, stop - start, c)
                assert blk.to_lists() == m.to_lists()[start:stop]
                assert [type(x) for x in blk.data] == [type(x) for row in
                                                       m.to_lists()[start:stop] for x in row]


def test_row_block_rejects_ranges_outside():
    m = Matrix.zeros(F5, 3, 2)
    for start, stop in [(-1, 2), (2, 1), (0, 4), (4, 4), (-1, -1), (3, 2)]:
        with pytest.raises(ValidationFailed):
            m.row_block(start, stop)
    assert m.row_block(3, 3) == Matrix.zeros(F5, 0, 2)


@pytest.mark.parametrize("p", [9, 15, 25, 91])
def test_field_rejects_odd_composite(p):
    # an odd composite is found by the trial division loop
    with pytest.raises(ValidationFailed) as exc:
        Field(p)
    assert str(exc.value) == f"field characteristic must be prime: {p}"


# -- Q on integer numerators against the Fraction oracles -------------------
# Over Q the kernels compute on integers over common denominators and build
# Fractions only for what they return.  Entries here have ~100-bit
# numerators and mixed denominators (1, small, a 61-bit prime, random 40-bit
# ones), so a lost or doubled denominator shows; every entry returned must
# be a Fraction and equal to the textbook Fraction computation.


def _big_q(rng):
    den = rng.choice([1, 1, 2, 3, 12, 2**61 - 1, rng.getrandbits(40) + 1])
    return Fraction(rng.getrandbits(100) - 2**99, den)


def _big_q_matrix(rng, rows, cols, density):
    return Matrix(Q, rows, cols, tuple(_big_q(rng) if rng.random() < density else Q.zero
                                       for _ in range(rows * cols)))


def _big_q_cases(seed, count=60):
    """Dense and sparse matrices up to 6 x 6, a third of them with a last
    row that combines the first two, so ranks fall short."""
    rng = random.Random(seed)
    for _ in range(count):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        m = _big_q_matrix(rng, r, c, rng.choice([0.4, 1.0]))
        if r > 2 and rng.random() < 0.35:
            x, y = _big_q(rng), _big_q(rng)
            rows = m.to_lists()
            rows[-1] = [x * a + y * b for a, b in zip(rows[0], rows[1])]
            m = Matrix.from_rows(Q, rows)
        yield rng, m


def _fractions(xs):
    return all(type(x) is Fraction for x in xs)


def test_q_products_match_oracle_on_large_entries():
    rng = random.Random(501)
    for _ in range(80):
        n, k, m = (rng.randint(1, 5) for _ in range(3))
        a = _big_q_matrix(rng, n, k, rng.choice([0.4, 1.0]))
        b = _big_q_matrix(rng, k, m, rng.choice([0.4, 1.0]))
        got = a @ b
        assert list(got.data) == oracles.matmul(None, n, k, m, a.data, b.data)
        assert _fractions(got.data)


def test_q_eliminations_match_oracle_on_large_entries():
    short = 0
    for rng, m in _big_q_cases(502):
        rank_, pivots, rows = gauss_jordan(Q, m.to_lists(), m.cols)
        short += rank_ < min(m.rows, m.cols)
        assert rank(m) == rank_ == oracles.rank(m)
        s = subspaces(m)
        assert (s.kernel, s.pivots) == (oracles.kernel(m), pivots)
        assert _fractions(s.kernel.data) and _fractions(s.image.data)
        # _rref keeps its contract, trailing columns included
        width = rng.randint(0, m.cols)
        work = _dict_rows(m.to_lists())
        _check_echelon(Q, m.to_lists(), width, m.cols, work, _rref(Q, work, width))
        # kernel vectors and coset representatives off echelon rows
        echelon = _dict_rows(m.to_lists())
        assert _rref(Q, echelon, m.cols) == (rank_, pivots)
        ker = _kernel_vectors(Q, echelon, pivots, m.cols)
        assert ker == [list(col) for col in zip(*oracles.kernel(m).to_lists())]
        assert all(_fractions(vec) for vec in ker)
        vec = [_big_q(rng) if rng.random() < 0.7 else Q.zero for _ in range(m.cols)]
        want = vec
        for row, c in zip(rows, pivots):
            want = [x - want[c] * y for x, y in zip(want, row)]
        got = _reduce_vec(Q, echelon[:rank_], pivots, vec)
        assert got == want and _fractions(got)
        # solve, one right-hand side at a time in the oracle
        b = _big_q_matrix(rng, m.rows, 2, 0.8)
        if rng.random() < 0.5:
            b = m @ _big_q_matrix(rng, m.cols, 2, 0.8)
        cols = [oracles.solve_dense(Q, [row + [x] for row, x in zip(m.to_lists(), b.col(j))],
                                    m.cols) for j in range(2)]
        x = solve(m, b)
        if None in cols:
            assert x is None
        else:
            assert x.to_lists() == [list(r) for r in zip(*cols)] and _fractions(x.data)
        if m.rows == m.cols == rank_:
            inv = inverse(m)
            assert inv == oracles.inverse(m) and _fractions(inv.data)
    assert short >= 10
