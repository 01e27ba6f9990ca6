"""Minimal models over the dual numbers: reduction, certificates, transfer."""

import dataclasses
import math
import random
from collections import Counter

import pytest

import oracles
from oracles import window_dims
from dualseq import dualnum
from dualseq.dualnum import (EpsComplex, as_complex, cohomology,
                             eps_cohomology, from_seq, hom_k, make_minimal,
                             minimize, to_seq, validate)
from dualseq.errors import ValidationFailed
from dualseq.gen import random_eps_complex, random_minimal
from dualseq.hom import get_context
from dualseq.linalg import Field, Matrix
from dualseq.seq import interval

F2 = Field(2)
F5 = Field(5)
Q = Field(None)


def nz(h):
    return {i: d for i, d in h.items() if d}


def test_validate_rejects_broken_leibniz():
    # d1.deps + deps.d1 = 2 != 0 over F5 (over F2 this example would cancel)
    c = EpsComplex(F5, 0, (1, 2, 1),
                   (Matrix(F5, 2, 1, (1, 0)), Matrix(F5, 1, 2, (0, 1))),
                   (Matrix(F5, 2, 1, (0, 1)), Matrix(F5, 1, 2, (1, 0))))
    rep = validate(c)
    assert not rep.ok


def test_validate_reports_d1_squared_before_the_mixed_law():
    # the mixed law breaks at degree 0 (d1^1 deps^0 = 1) and d1.d1 at degree
    # 1 (d1^2 d1^1 = 1): the d1.d1 break is reported, though it lies higher
    one, zero = Matrix.identity(F5, 1), Matrix.zeros(F5, 1, 1)
    c = EpsComplex(F5, 0, (1, 1, 1, 1), (zero, one, one), (one, zero, zero))
    rep = validate(c)
    assert (rep.ok, rep.degree, rep.law) == (False, 1, "d1.d1 = 0")
    assert str(rep) == "violated d1.d1 = 0 at degree 1"


def _tampered(rng, obj, name):
    """``obj`` with one random entry of one component of its field ``name``
    raised by one, or None when every component is empty."""
    comps = getattr(obj, name)
    cells = [(t, e) for t, m in enumerate(comps) for e in range(len(m.data))]
    if not cells:
        return None
    t, e = rng.choice(cells)
    m, data = comps[t], list(comps[t].data)
    data[e] = m.field.coerce(data[e] + 1)
    raised = Matrix(m.field, m.rows, m.cols, tuple(data))
    return dataclasses.replace(obj, **{name: comps[:t] + (raised,) + comps[t + 1:]})


def _first_break(c):
    """``(degree, law)`` of the report by definition: the lowest degree at
    which ``d1.d1`` is nonzero, else the lowest at which ``d1.deps +
    deps.d1`` is, else None; products by ``oracles.matmul``."""
    p, r = c.field.p, c.ranks

    def prod(a, b):
        return oracles.matmul(p, a.rows, a.cols, b.cols, a.data, b.data)

    square, mixed = [], []
    for t in range(len(r) - 2):
        d, e = c.d1[t:t + 2], c.deps[t:t + 2]
        if any(prod(d[1], d[0])):
            square.append(c.lo + t)
        both = [x + y for x, y in zip(prod(d[1], e[0]), prod(e[1], d[0]))]
        if any(x if p is None else x % p for x in both):
            mixed.append(c.lo + t)
    if square:
        return square[0], "d1.d1 = 0"
    return (mixed[0], "d1.deps + deps.d1 = 0") if mixed else None


def test_validate_reports_the_first_broken_law():
    # valid complexes with one entry of d1 or deps raised by one break the
    # mixed law, d1.d1, both or neither; the report is the lowest d1.d1
    # break, else the lowest mixed one
    rng = random.Random(12)
    seen = Counter()
    for k in range(300):
        c = random_eps_complex(rng, (F2, F5, Q)[k % 3], max_len=6, max_rank=3)
        c = _tampered(rng, c, rng.choice(["d1", "deps"]))
        if c is None:
            continue
        want, rep = _first_break(c), validate(c)
        assert (rep.ok, rep.degree, rep.law) == ((True, None, None) if want is None
                                                 else (False, *want))
        seen[want[1] if want else "ok"] += 1
    assert min(seen.values()) >= 20 and len(seen) == 3, seen


def test_validate_accepts_pure_eps():
    c = EpsComplex(F5, 0, (1, 1), (Matrix.zeros(F5, 1, 1),),
                   (Matrix.identity(F5, 1),))
    assert validate(c).ok


HE_FIELDS = ("f1", "feps", "g1", "geps", "k1", "keps")


def test_verify_refuses_exactly_the_broken_certificates():
    # one entry of one component of each of the six fields raised by one:
    # verify raises exactly when the independent check of the four identities
    # on the k-matrices [[a1, 0], [ae, a1]] finds one broken.  A change of k
    # by some delta with D delta + delta D = 0 leaves a valid certificate, so
    # not every tamper must raise.
    rng = random.Random(11)
    tampers, refused = Counter(), Counter()
    for k in range(150):
        _, he = minimize(random_eps_complex(rng, (F2, F5, Q)[k % 3]))
        assert oracles.homotopy_equivalence_ok(he)
        for name in HE_FIELDS:
            bad = _tampered(rng, he, name)
            if bad is None:
                continue
            try:
                bad.verify()
                raised = False
            except ValidationFailed:
                raised = True
            assert raised != oracles.homotopy_equivalence_ok(bad), name
            tampers[name] += 1
            refused[name] += raised
    assert sum(tampers.values()) >= 700 and set(tampers) == set(HE_FIELDS), tampers
    assert 0 < refused["keps"] < tampers["keps"], refused


def test_minimize_contractible_is_zero():
    c = EpsComplex(F2, 0, (1, 1), (Matrix.identity(F2, 1),),
                   (Matrix.zeros(F2, 1, 1),))
    nm, he = minimize(c)
    assert sum(nm.ranks) == 0
    he.verify()


def test_minimize_of_minimal_is_identity_shape():
    rng = random.Random(31)
    for _ in range(10):
        f = rng.choice([F2, F5, Q])
        n = random_minimal(rng, f, max_len=4, max_rank=3)
        nm, he = minimize(as_complex(n))
        assert nm.ranks == tuple(r for r in n.ranks) or sum(nm.ranks) == sum(n.ranks)
        he.verify()


def test_minimize_laws_random():
    rng = random.Random(32)
    for k in range(60):
        f = [F2, F5, Q][k % 3]
        c = random_eps_complex(rng, f, max_len=6, max_rank=4)
        nm, he = minimize(c)
        he.verify()
        assert nz(eps_cohomology(c)) == nz(eps_cohomology(as_complex(nm)))


def test_eps_cohomology_examples():
    # rank-1 square-zero: H = k in both window degrees
    c = EpsComplex(F5, 0, (1, 1), (Matrix.zeros(F5, 1, 1),),
                   (Matrix.identity(F5, 1),))
    assert nz(eps_cohomology(c)) == {0: 1, 1: 1}


def test_cohomology_of_intervals():
    assert nz(cohomology(interval(F2, 0, 1))) == {0: 1, 1: 1}
    # S_{0,0} corresponds to free k[eps] in degree 0: H^0 is 2-dimensional
    assert nz(cohomology(interval(F5, 0, 0))) == {0: 2}
    assert nz(cohomology(interval(Q, -math.inf, math.inf))) == {}


def test_to_seq_from_seq_roundtrip():
    rng = random.Random(33)
    for _ in range(20):
        f = rng.choice([F2, F5, Q])
        n = random_minimal(rng, f, max_len=4, max_rank=3)
        v = to_seq(n)
        back = from_seq(v)
        assert to_seq(back) == v


def test_from_seq_rejects_iso_tails():
    with pytest.raises(ValidationFailed):
        from_seq(interval(F2, 0, math.inf))


def test_hom_k_matches_seq_homs():
    # the dictionary: hom over k[eps] computed on minimal complexes agrees
    # with the enlarged seq homs of the corresponding sequences.  hom_k and
    # HomContext share graded.differential_rows, so the dense window solve
    # of the oracle is the independent check of both
    pairs = [(from_seq(interval(f, a1, b1)), from_seq(interval(f, a2, b2)))
             for (a1, b1), (a2, b2) in [((0, 0), (0, 0)), ((0, 1), (0, 1)),
                                        ((0, 0), (0, 1)), ((0, 1), (0, 0)),
                                        ((1, 2), (1, 1))]
             for f in (F2, F5, Q)]
    rng = random.Random(98)
    for k in range(90):
        f = [F2, F5, Q][k % 3]
        pairs.append((random_minimal(rng, f), random_minimal(rng, f)))
    for m, n in pairs:
        v, w = to_seq(m), to_seq(n)
        ctx = get_context(v, w)
        assert hom_k(m, n) == (ctx.dim_hom, ctx.dim_eps) == window_dims(v, w, 1)


def test_make_minimal_validates_shapes():
    # deps entries must match the declared ranks; note deps itself need not
    # square to zero, the total differential does automatically
    with pytest.raises(ValidationFailed):
        make_minimal(F2, 0, (1, 2, 1),
                     (Matrix.identity(F2, 1), Matrix.identity(F2, 1)))
    n = make_minimal(F2, 0, (1, 1, 1),
                     (Matrix.identity(F2, 1), Matrix.identity(F2, 1)))
    assert validate(as_complex(n)).ok


def test_make_minimal_refuses_a_missing_differential():
    # two ranks and no deps: a ValidationFailed, not an IndexError
    with pytest.raises(ValidationFailed):
        make_minimal(F2, 0, (0, 1), ())


def test_minimize_preserves_field():
    c = random_eps_complex(random.Random(34), Q, max_len=5, max_rank=3)
    nm, _ = minimize(c)
    assert nm.field == Q


def test_minimize_builds_only_the_adapted_bases(monkeypatch):
    # every block is read off two splits per degree, of d1^i and of the
    # previous image in kernel coordinates: no block matrix, inverse, solve
    # or complement is left in the loop
    calls = []
    real = dualnum.split_map

    def boom(*args):
        raise AssertionError("minimize built a block matrix")

    monkeypatch.setattr(dualnum, "split_map", lambda m: calls.append(m) or real(m))
    monkeypatch.setattr(dualnum, "block_matrix", boom)
    for name in ("inverse", "solve", "complement", "subspaces"):
        assert not hasattr(dualnum, name), name
    rng = random.Random(47)
    for k in range(40):
        c = random_eps_complex(rng, (F2, F5, Q)[k % 3], max_len=6, max_rank=4)
        calls.clear()
        dualnum.minimize(c)
        assert calls[::2] == [c.d1_at(i) for i in range(c.lo, c.hi + 1)]
        assert len(calls) == 2 * len(c.ranks)


@pytest.mark.parametrize("build,message", [
    (lambda: EpsComplex(F5, 0, (), (), ()), "complex needs at least one degree"),
    (lambda: EpsComplex(F5, 0, (1, -1), (), ()), "negative rank"),
    (lambda: EpsComplex(F5, 0, (1, 1), (), ()), "wrong number of differentials"),
    (lambda: EpsComplex(F5, 0, (1, 1), (Matrix.zeros(F2, 1, 1),), (Matrix.zeros(F5, 1, 1),)),
     "d1 over wrong field"),
    (lambda: EpsComplex(F5, 3, (1, 1), (Matrix.zeros(F5, 1, 1),), (Matrix.zeros(F5, 2, 1),)),
     "deps at degree 3 has shape 2x1, expected 1x1"),
    (lambda: minimize(EpsComplex(F5, 0, (1, 1, 1), (Matrix.identity(F5, 1),) * 2,
                                 (Matrix.zeros(F5, 1, 1),) * 2)),
     "cannot minimize: violated d1.d1 = 0 at degree 0"),
], ids=["no-degree", "negative-rank", "differential-count", "wrong-field", "wrong-shape",
        "cannot-minimize"])
def test_complex_refusals(build, message):
    with pytest.raises(ValidationFailed) as exc:
        build()
    assert str(exc.value) == message
