"""Interval decomposition: round trips, certificates, classification."""

import dataclasses
import math
import random

import pytest

import oracles
from oracles import assemble_all_pairs, brute_force_multiplicities
from dualseq import barcode, linalg
from dualseq.barcode import (Interval, assemble, classify, decompose,
                             is_isomorphic, make_barcode, max_injective_subobject,
                             multiplicities, rank_pairing, verify_certificate)
from dualseq.errors import ValidationFailed
from dualseq.graded import make_element, zero_element
from dualseq.gen import random_barcode, random_interval, random_seq, scramble
from dualseq.linalg import Field, Matrix, rank
from dualseq.seq import Tail, direct_sum_seq, interval, make_seq, shift

F2 = Field(2)
F5 = Field(5)
Q = Field(None)
INF = math.inf


def test_interval_validation():
    with pytest.raises(ValidationFailed):
        Interval(2, 1)
    with pytest.raises(ValidationFailed):
        Interval(INF, INF)
    assert str(Interval(-INF, 3)) == "[-inf,3]"


def test_decompose_single_interval():
    for a, b in [(0, 0), (0, 1), (-2, 3), (0, INF), (-INF, 0), (-INF, INF)]:
        v = interval(F5, a, b)
        bc = decompose(v)
        assert bc.counts() == {Interval(a if a != -INF else -INF,
                                        b if b != INF else INF): 1}
        verify_certificate(bc, v)


def test_decompose_direct_sum_is_union():
    v = direct_sum_seq(interval(F2, 0, 1), interval(F2, 1, 2))
    bc = decompose(v)
    assert bc.counts() == {Interval(0, 1): 1, Interval(1, 2): 1}


def test_assemble_decompose_roundtrip_random():
    rng = random.Random(101)
    for _ in range(60):
        f = rng.choice([F2, F5, Q])
        bc = random_barcode(rng, f, max_bars=6, lo=-4, hi=4)
        v = assemble(bc)
        back = decompose(v)
        assert back == bc
        verify_certificate(back, v)


def test_decompose_scrambled_basis():
    rng = random.Random(102)
    for _ in range(40):
        f = rng.choice([F2, F5, Q])
        bc = random_barcode(rng, f, max_bars=5, lo=-3, hi=3)
        v = random_seq(rng, f, max_bars=5, lo=-3, hi=3)
        # random_seq scrambles an assembled barcode; its decomposition must
        # verify against the scrambled presentation
        back = decompose(v)
        verify_certificate(back, v)


def test_multiplicities_match_decompose():
    # scrambled sequences over every field, rays included, with and without
    # the certificate
    rng = random.Random(103)
    for t in range(60):
        f = (F2, F5, Q)[t % 3]
        v = random_seq(rng, f, max_bars=9, lo=-3, hi=3)
        mult = {iv: k for iv, k in multiplicities(v).items() if k}
        assert mult == decompose(v).counts()
        assert mult == decompose(v, with_certificate=False).counts()


def test_multiplicities_against_brute_force_spot():
    # finite window, zero tails: the population the oracle is sound for
    from dualseq.linalg import Matrix
    from dualseq.seq import Tail, make_seq
    rng = random.Random(104)
    for _ in range(25):
        dims = [rng.randint(0, 2) for _ in range(3)]
        maps = [Matrix(F2, dims[k + 1], dims[k],
                       tuple(rng.randrange(2)
                             for _ in range(dims[k + 1] * dims[k])))
                for k in range(2)]
        v = make_seq(F2, 0, dims, maps, Tail.ZERO, Tail.ZERO)
        mult = {iv: k for iv, k in multiplicities(v).items() if k}
        assert mult == brute_force_multiplicities(v, 0, 2)


def test_rank_pairing_on_interval():
    v = interval(F2, 0, 3)
    assert rank_pairing(v, 0, 3) == 1
    assert rank_pairing(v, 1, 2) == 1
    assert rank_pairing(v, -1, 2) == 0


def test_is_isomorphic_invariance():
    rng = random.Random(105)
    for _ in range(20):
        f = rng.choice([F2, F5, Q])
        bc = random_barcode(rng, f, max_bars=4, lo=-3, hi=3)
        v = assemble(bc)
        w = shift(shift(v, 2), -2)
        assert is_isomorphic(v, w)


def test_classify_interval_predicates():
    # injective: every transition surjective; acyclic: all isos;
    # h-projective: finite right endpoint
    cases = [
        ((0, 0), dict(injective=False, acyclic=False, h_projective=True)),
        ((0, 2), dict(injective=False, acyclic=False, h_projective=True)),
        ((-INF, 0), dict(injective=True, acyclic=False, h_projective=True)),
        ((0, INF), dict(injective=False, acyclic=False, h_projective=False)),
        ((-INF, INF), dict(injective=True, acyclic=True, h_projective=False)),
    ]
    for (a, b), want in cases:
        c = classify(interval(F2, a, b))
        for key, val in want.items():
            assert getattr(c, key) == val, (a, b, key)


def test_classify_direct_sums():
    v = direct_sum_seq(interval(F2, -INF, INF), interval(F2, -INF, INF))
    c = classify(v)
    assert c.acyclic and c.injective and not c.indecomposable


def test_certificate_is_degreewise_isomorphism():
    rng = random.Random(106)
    v = random_seq(rng, F5, max_bars=4, lo=-2, hi=2)
    bc = decompose(v)
    cert = bc.certificate
    a = assemble(bc)
    from dualseq.linalg import rank
    for i in range(a.lo - 1, a.hi + 2):
        m = cert.component(i)
        assert m.rows == m.cols == v.dim(i) == a.dim(i)
        assert rank(m) == m.rows


def test_verify_certificate_refusals():
    # no certificate, wrong endpoints, a certificate that does not commute,
    # and one that commutes but is singular (the zero element)
    v = interval(F5, 0, 1)
    bc = decompose(v)
    verify_certificate(bc, v)
    a = assemble(bc)
    with pytest.raises(ValidationFailed, match="carries no certificate"):
        verify_certificate(decompose(v, with_certificate=False), v)
    with pytest.raises(ValidationFailed, match="endpoints do not match"):
        verify_certificate(bc, interval(F5, 0, 2))
    # a unit block at degree 0 alone: d_V^0 E^0 != 0 = E^1 d_A^0
    unit = make_element(a, v, 0, 0, 0, lambda i: Matrix.identity(F5, 1) if i == 0
                        else Matrix.zeros(F5, v.dim(i), a.dim(i)))
    for cert, why in ((bc.certificate + unit, "does not commute"),
                      (zero_element(a, v, 0), "not invertible in degree 0")):
        with pytest.raises(ValidationFailed, match=why):
            verify_certificate(dataclasses.replace(bc, certificate=cert), v)


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_max_injective_subobject(field):
    # the subobject keeps exactly the bars that start at -inf, and its
    # inclusion is injective in every degree
    rng = random.Random(107)
    hits = 0
    for _ in range(200):
        v = random_seq(rng, field, max_bars=5, lo=-3, hi=3)
        sub, incl = max_injective_subobject(v)
        bars = decompose(v).counts()
        want = {iv: k for iv, k in bars.items() if iv.a == -INF}
        assert decompose(sub).counts() == want
        hits += 0 < len(want) < len(bars)
        assert (incl.src, incl.dst) == (sub, v) and incl.is_type_one
        for i in range(v.lo - 2, v.hi + 3):
            m = incl.f1.component(i)
            assert rank(m) == m.cols == sub.dim(i)
        if hits == 12:
            break
    # cases mixing rays from -inf with other bars, where the choice matters
    assert hits == 12


def test_huge_integer_endpoints_compare_exactly():
    # ints and infinities compare exactly; float() of an endpoint past 1e308
    # would overflow
    big = 10**400
    v = interval(F5, big, big + 1)
    bar = Interval(big, big + 1)
    assert multiplicities(v) == {bar: 1}
    assert (rank_pairing(v, big, big + 1), rank_pairing(v, -INF, big),
            rank_pairing(v, big, INF)) == (1, 0, 0)
    bc = decompose(v)
    assert bc.intervals == (bar,)
    assert assemble(bc) == assemble(make_barcode(F5, [bar])) == v
    ray = interval(F5, -INF, big)
    assert decompose(ray).intervals == (Interval(-INF, big),)


def _typed(v):
    """A sequence with every entry's type, for comparisons that must see
    Fraction(0) and 0 as different."""
    return (v.lo, v.dims, v.left_tail, v.right_tail,
            tuple(tuple((type(x), x) for x in m.data) for m in v.maps))


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_assemble_matches_all_pairs_definition(field):
    rng = random.Random(105)
    empty = make_barcode(field, [])
    assert _typed(assemble(empty)) == _typed(assemble_all_pairs(empty))
    for _ in range(80):
        bc = random_barcode(rng, field, max_bars=9, lo=-4, hi=4)
        assert _typed(assemble(bc)) == _typed(assemble_all_pairs(bc))


def test_sweep_counts_match_brute_force_on_small_windows():
    rng = random.Random(107)
    checked = 0
    while checked < 20:
        bars = [random_interval(rng, 0, 2) for _ in range(rng.randint(1, 4))]
        if any(not isinstance(x, int) for iv in bars for x in (iv.a, iv.b)):
            continue
        v = scramble(rng, assemble(make_barcode(F2, bars)))
        if v.is_zero_object or v.lo != 0 or v.hi != 2:
            continue
        if max(v.dim(i) for i in range(3)) > 2:
            continue
        assert decompose(v).counts() == brute_force_multiplicities(v, 0, 2)
        checked += 1


@pytest.mark.parametrize("field", [F5, Q], ids=["F5", "Q"])
def test_bar_dies_as_combination_of_two_older_bars(field):
    # three bars born at -1; at degree 0 the third image is 2 * first +
    # 3 * second, so the third bar dies there and its history is rewritten
    one = Matrix.identity(field, 3)
    m = Matrix.from_rows(field, [[1, 0, 2], [0, 1, 3]])
    v = make_seq(field, -1, (3, 3, 2), (one, m), Tail.ZERO, Tail.ZERO)
    bc = decompose(v)
    assert bc.counts() == {Interval(-1, 0): 1, Interval(-1, 1): 2}
    verify_certificate(bc, v)
    # the dying bar comes first in canonical order; its rewritten column is
    # e3 - 2 e1 - 3 e2 at -1 and maps to zero at 0
    col = bc.certificate.component(-1).col(0)
    assert col == [field.coerce(x) for x in (-2, -3, 1)]
    assert (m @ bc.certificate.component(0)).col(0) == [field.zero] * 2
    # the same sequence in a scrambled basis
    rng = random.Random(108)
    for _ in range(5):
        w = scramble(rng, v)
        back = decompose(w)
        assert back == bc
        verify_certificate(back, w)


def test_decompose_neither_solves_nor_complements(monkeypatch):
    def boom(*args, **kwargs):
        raise AssertionError("decompose must reduce against its own basis")

    rng = random.Random(109)
    seqs = [random_seq(rng, (F2, F5, Q)[k % 3], max_bars=8) for k in range(30)]
    for mod in (barcode, linalg):
        monkeypatch.setattr(mod, "solve", boom, raising=False)
        monkeypatch.setattr(mod, "complement", boom, raising=False)
    for v in seqs:
        decompose(v, with_certificate=False)
        verify_certificate(decompose(v), v)


def _transition(v, a: int, b: int) -> Matrix:
    """The composite transition of ``v`` from degree ``a`` to degree ``b >= a``."""
    m = Matrix.identity(v.field, v.dim(a))
    for i in range(a, b):
        m = v.map_at(i) @ m
    return m


def _classify_draws(rng, field, n):
    """Scrambled sequences, every other one of rays from -inf only, so that
    injective and acyclic sequences are common."""
    for k in range(n):
        if k % 2:
            ends = [rng.choice([-1, 0, 2, INF, INF]) for _ in range(rng.randint(0, 4))]
            bc = make_barcode(field, [Interval(-INF, b) for b in ends])
            yield scramble(rng, assemble(bc))
        else:
            yield random_seq(rng, field, max_bars=6)


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_classify_flags_match_transition_ranks(field):
    # injective means every transition is surjective, acyclic that every
    # transition is an isomorphism; classify reads both off the bars
    rng = random.Random(111)
    seen = set()
    for v in _classify_draws(rng, field, 120):
        ts = [v.map_at(i) for i in range(v.lo - 1, v.hi + 1)]
        ranks = [(oracles.rank(m), m.rows, m.cols) for m in ts]
        c = classify(v)
        assert c.injective == all(r == n for r, n, _ in ranks)
        assert c.acyclic == all(r == n == k for r, n, k in ranks)
        seen.add((c.injective, c.acyclic, v.is_zero_object))
    assert {(False, False, False), (True, False, False), (True, True, False)} <= seen


def test_classify_takes_no_rank(monkeypatch):
    # the predicates come from the one decomposition, not from transition ranks
    rng = random.Random(112)
    seqs = list(_classify_draws(rng, F5, 20))
    want = [classify(v) for v in seqs]

    def boom(*args, **kwargs):
        raise AssertionError("classify must read its predicates off the bars")

    monkeypatch.setattr(barcode, "matrix_rank", boom)
    assert [classify(v) for v in seqs] == want


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_max_injective_subobject_is_stable_image(field):
    # the subobject has surjective transitions, and its image in degree i is
    # the image of the composite transition from v.lo - 1, inside the left tail
    rng = random.Random(113)
    for v in _classify_draws(rng, field, 60):
        sub, incl = max_injective_subobject(v)
        for i in range(sub.lo - 2, sub.hi + 2):
            m = sub.map_at(i)
            assert oracles.rank(m) == m.rows
        for i in range(v.lo - 1, v.hi + 3):
            inc, t = incl.f1.component(i), _transition(v, v.lo - 1, i)
            assert oracles.rank(inc) == oracles.rank(t) == oracles.rank(inc.hstack(t))


@pytest.mark.parametrize("a,b,message", [
    (0, -math.inf, "interval end must be an integer or +inf"),
    (0, 1.5, "interval end must be an integer or +inf"),
    (-math.inf, "1", "interval end must be an integer or +inf"),
    (2, 1, "interval start exceeds end"),
])
def test_interval_refusals(a, b, message):
    with pytest.raises(ValidationFailed) as exc:
        Interval(a, b)
    assert str(exc.value) == message
