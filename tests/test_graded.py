"""The graded hom complex: composition, differential, Leibniz."""

import math
import random
from fractions import Fraction

import pytest

import oracles
from dualseq.errors import ValidationFailed
from dualseq.gen import random_graded_element, random_matrix, random_seq
from dualseq.graded import (GradedHomElement, all_morphisms, base_window, compose,
                            differential, identity_element, is_morphism,
                            make_element, shift_element, zero_element)
from dualseq.hom import get_context
from dualseq.linalg import Field, Matrix
from dualseq.seq import interval

F2 = Field(2)
F5 = Field(5)
Q = Field(None)

RNG_SEED = 20260814


def test_identity_is_closed_morphism():
    v = interval(F5, 0, 2)
    e = identity_element(v)
    assert is_morphism(e)
    assert differential(e).is_zero


def test_differential_raises_degree():
    rng = random.Random(RNG_SEED)
    v = random_seq(rng, F2, max_bars=3, lo=-2, hi=2)
    w = random_seq(rng, F2, max_bars=3, lo=-2, hi=2)
    g = random_graded_element(rng, v, w, degree=1)
    assert differential(g).degree == 2


def _diff_element(v):
    return make_element(v, v, 1, v.lo - 1, v.hi + 1, lambda i: v.map_at(i))


def test_differential_square_formula():
    # the hom sequence is not a complex: d^2(g) = d_w^2 g - g d_v^2,
    # which vanishes only when both endpoint sequences are complexes
    rng = random.Random(RNG_SEED + 1)
    for _ in range(30):
        f = rng.choice([F2, F5, Q])
        v = random_seq(rng, f, max_bars=3, lo=-3, hi=3)
        w = random_seq(rng, f, max_bars=3, lo=-3, hi=3)
        n = rng.randint(-2, 2)
        g = random_graded_element(rng, v, w, degree=n)
        dv2 = compose(_diff_element(v), _diff_element(v))
        dw2 = compose(_diff_element(w), _diff_element(w))
        assert differential(differential(g)) == compose(dw2, g) - compose(g, dv2)


def test_leibniz_rule():
    # d(g f) = d(g) f + (-1)^n g d(f) for g of degree n
    rng = random.Random(RNG_SEED + 2)
    for _ in range(40):
        f = rng.choice([F2, F5])
        u = random_seq(rng, f, max_bars=3, lo=-3, hi=3)
        v = random_seq(rng, f, max_bars=3, lo=-3, hi=3)
        w = random_seq(rng, f, max_bars=3, lo=-3, hi=3)
        m = rng.randint(-2, 2)
        n = rng.randint(-2, 2)
        a = random_graded_element(rng, u, v, degree=m)
        b = random_graded_element(rng, v, w, degree=n)
        lhs = differential(compose(b, a))
        sign = f.coerce((-1) ** n)
        rhs = compose(differential(b), a) + compose(b, differential(a)).scale(sign)
        assert lhs == rhs


def test_compose_associative():
    rng = random.Random(RNG_SEED + 3)
    for _ in range(15):
        f = rng.choice([F2, F5, Q])
        objs = [random_seq(rng, f, max_bars=2, lo=-2, hi=2) for _ in range(4)]
        els = [random_graded_element(rng, objs[i], objs[i + 1],
                                     degree=rng.randint(-1, 1))
               for i in range(3)]
        left = compose(els[2], compose(els[1], els[0]))
        right = compose(compose(els[2], els[1]), els[0])
        assert left == right


def test_zero_and_identity_compose():
    v = interval(F2, 0, 1)
    w = interval(F2, 1, 2)
    z = zero_element(v, w, 0)
    assert compose(z, identity_element(v)) == z
    assert compose(identity_element(w), z) == z


def test_shift_element_preserves_closedness():
    v = interval(F5, 0, 2)
    e = identity_element(v)
    s = shift_element(e, 1)
    assert differential(s).is_zero


def test_is_morphism_detects_noncommuting():
    v = interval(F2, 0, 1)

    def fn(i):
        if i == 0:
            return Matrix.identity(F2, 1)
        return Matrix.zeros(F2, v.dim(i), v.dim(i))

    g = make_element(v, v, 0, 0, 1, fn)
    assert not is_morphism(g)


def test_element_refuses_a_short_window_and_a_misshapen_block():
    v = interval(F5, 0, 1)
    z = zero_element(v, v, 0)
    one = Matrix.identity(F5, 1)
    # the combined window of (v, v) in degree 0 is [0, 1]
    with pytest.raises(ValidationFailed, match="stored window must contain"):
        GradedHomElement(v, v, 0, 0, (one,), z.ltail, z.rtail)
    with pytest.raises(ValidationFailed, match="component at degree 1 has wrong shape"):
        GradedHomElement(v, v, 0, 0, (one, Matrix.zeros(F5, 1, 2)), z.ltail, z.rtail)
    assert GradedHomElement(v, v, 0, 0, (one, one), z.ltail, z.rtail) == identity_element(v)


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_make_element_normal_form(field):
    # a core window of random blocks, some equal to the tail of their side
    # and parity, with zero, constant or parity-periodic tails beyond it;
    # built on a window at least as wide as the core
    rng = random.Random(RNG_SEED + 5 + (field.p or 0))
    trimmed = 0
    for _ in range(40):
        v = random_seq(rng, field, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, field, max_bars=3, lo=-2, hi=2)
        n = rng.randint(-2, 2)
        blo, bhi = base_window(v, w, n)
        clo, chi = blo - rng.randint(0, 3), bhi + rng.randint(0, 3)

        def rand(i):
            return random_matrix(rng, field, w.dim(n + i), v.dim(i))

        tails = {}
        for side, i in (("l", clo - 1), ("r", chi + 1)):
            kind = rng.choice(["zero", "constant", "periodic"])
            a = Matrix.zeros(field, w.dim(n + i), v.dim(i)) if kind == "zero" else rand(i)
            b = rand(i) if kind == "periodic" else a
            tails[side, i % 2], tails[side, (i + 1) % 2] = a, b
        core = {}
        for i in range(clo, chi + 1):
            side = "l" if i < blo else "r" if i > bhi else None
            core[i] = tails[side, i % 2] if side and rng.random() < 0.5 else rand(i)

        def fn(i):
            if i < clo:
                return tails["l", i % 2]
            if i > chi:
                return tails["r", i % 2]
            return core[i]

        lo, hi = clo - rng.randint(0, 2), chi + rng.randint(0, 2)
        g = make_element(v, w, n, lo, hi, fn)
        assert all(g.component(i) == fn(i) for i in range(lo - 4, hi + 5))
        assert g.lo <= blo and g.hi >= bhi
        assert g.lo == blo or g.component(g.lo) != g.ltail[g.lo % 2]
        assert g.hi == bhi or g.component(g.hi) != g.rtail[g.hi % 2]
        trimmed += (g.lo, g.hi) != (lo, hi)
        k = rng.randint(1, 4)
        wide = make_element(v, w, n, g.lo - k, g.hi + k, g.component)
        assert wide == g
        assert ((wide.lo, wide.comps, wide.ltail, wide.rtail)
                == (g.lo, g.comps, g.ltail, g.rtail))
    assert trimmed >= 20, trimmed


def _reference_is_morphism(g):
    # the definition: a degree-0 element whose differential vanishes
    return g.degree == 0 and differential(g).is_zero


def _perturbed(rng, g, lo, hi, degree):
    """``g`` built on the window ``lo..hi``, with a random nonzero matrix
    added at ``degree``; a degree outside that window changes the tail of
    its side and parity."""
    v, w, f = g.src, g.dst, g.src.field
    e = Matrix.zeros(f, w.dim(degree), v.dim(degree))
    while e.is_zero:
        e = random_matrix(rng, f, w.dim(degree), v.dim(degree))

    def hit(i):
        if lo <= degree <= hi:
            return i == degree
        return (i < lo) == (degree < lo) and not lo <= i <= hi and i % 2 == degree % 2

    return make_element(v, w, 0, lo, hi,
                        lambda i: g.component(i) + e if hit(i) else g.component(i))


def test_all_morphisms_matches_differential_reference():
    rng = random.Random(RNG_SEED + 3)
    rejected = {"window": 0, "tail": 0}
    for k in range(60):
        f = rng.choice([F2, F5, Q])
        # every third pair has dims up to 5, so components are more than 1 x 1
        bars, lo, hi = (5, -1, 1) if k % 3 == 0 else (3, -2, 2)
        v = random_seq(rng, f, max_bars=bars, lo=lo, hi=hi)
        w = random_seq(rng, f, max_bars=bars, lo=lo, hi=hi)
        ctx = get_context(v, w)
        basis = ctx.hom_basis()
        assert all_morphisms(basis) and all(map(_reference_is_morphism, basis))
        # mixed stored windows, mostly not morphisms
        batch = basis + [random_graded_element(rng, v, w) for _ in range(2)]
        rng.shuffle(batch)
        assert all_morphisms(batch) == all(map(_reference_is_morphism, batch))
        assert all_morphisms(batch) == oracles.all_morphisms(batch)
        for g in batch:
            assert is_morphism(g) == _reference_is_morphism(g)
        # one element of a closed batch perturbed at one degree, inside or
        # outside the hom window, sometimes widened; the elements are stored
        # in normal form, so the window drawn from is the context's
        if not basis:
            continue
        t = rng.randrange(len(basis))
        g = basis[t]
        widen = rng.choice([0, 2])
        lo, hi = ctx.L - widen, ctx.R + widen
        for kind, degree in (
                ("window", rng.randint(lo, hi)),
                ("tail", rng.choice([lo - 2, lo - 1, hi + 1, hi + 2]))):
            if v.dim(degree) * w.dim(degree) == 0:
                continue
            bad = basis[:t] + [_perturbed(rng, g, lo, hi, degree)] + basis[t + 1:]
            want = all(map(_reference_is_morphism, bad))
            assert all_morphisms(bad) == want
            rejected[kind] += not want
    assert min(rejected.values()) >= 5, rejected


def test_all_morphisms_over_q_refuses_what_the_oracle_refuses():
    # over Q the check compares integer multiples of the two products; an
    # entry off by 1/3 anywhere must be refused exactly when the Fraction
    # products of the oracle differ
    rng = random.Random(RNG_SEED + 5)
    third = Fraction(1, 3)
    refused = 0
    for _ in range(60):
        v = random_seq(rng, Q, max_bars=5, lo=-2, hi=2)
        w = random_seq(rng, Q, max_bars=5, lo=-2, hi=2)
        ctx = get_context(v, w)
        basis = ctx.hom_basis()
        assert all_morphisms(basis) and oracles.all_morphisms(basis)
        if not basis:
            continue
        g = basis[0]
        for b in basis[1:]:
            g = g + b.scale(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert all_morphisms([g]) and oracles.all_morphisms([g])
        degree = rng.randint(ctx.L - 1, ctx.R + 1)
        rows, cols = w.dim(degree), v.dim(degree)
        if not rows * cols:
            continue
        at = rng.randrange(rows * cols)
        e = Matrix(Q, rows, cols, tuple(third if t == at else Q.zero for t in range(rows * cols)))
        bad = make_element(v, w, 0, ctx.L - 1, ctx.R + 1,
                           lambda i: g.component(i) + e if i == degree else g.component(i))
        want = oracles.all_morphisms([bad])
        assert all_morphisms([bad]) == want == is_morphism(bad)
        refused += not want
    assert refused >= 10


def test_all_morphisms_degree_and_type():
    v = interval(F5, 0, 1)
    e = identity_element(v)
    assert all_morphisms([]) and all_morphisms([e, e.scale(2)])
    assert not all_morphisms([e, e.scale(3), _diff_element(v)])
    with pytest.raises(ValidationFailed):
        all_morphisms([e, identity_element(interval(F5, 0, 2))])
    # an element stored on a wider window than the first one is checked on
    # its own stored degrees: here its even left tail is 2, not 1
    ray = interval(F5, -math.inf, 0)
    one = identity_element(ray)
    far = make_element(ray, ray, 0, -4, 0, lambda i: one.component(i).scale(
        2 if i < -4 and i % 2 == 0 else 1))
    assert not _reference_is_morphism(far)
    assert not all_morphisms([one, far])


def test_all_morphisms_rejects_block_next_to_zero():
    # a nonzero block set where an element and both its neighbours were zero:
    # all_morphisms skips degrees whose two components are zero, so the pair
    # on each side of the block must still be compared.  Some cases are seen
    # only by the pair on the left (d_W kills the block) and some only by
    # the pair on the right (the block kills d_V).
    rng = random.Random(RNG_SEED + 4)
    seen = {"both": 0, "left": 0, "right": 0}
    fields = set()
    for _ in range(80):
        f = rng.choice([F2, F5, Q])
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        basis = get_context(v, w).hom_basis()
        g = rng.choice(basis + [zero_element(v, w, 0)])
        spots = [d for d in range(g.lo + 1, g.hi) if v.dim(d) * w.dim(d)
                 and all(g.component(i).is_zero for i in (d - 1, d, d + 1))]
        if not spots:
            continue
        d = rng.choice(spots)
        e = Matrix.zeros(f, w.dim(d), v.dim(d))
        while e.is_zero:
            e = random_matrix(rng, f, w.dim(d), v.dim(d))
        bad = make_element(v, w, 0, g.lo, g.hi,
                           lambda i: e if i == d else g.component(i))
        if _reference_is_morphism(bad):
            continue
        assert not all_morphisms(basis + [bad])
        assert not is_morphism(bad)
        left = not (e @ v.map_at(d - 1)).is_zero
        right = not (w.map_at(d) @ e).is_zero
        seen["both" if left and right else "left" if left else "right"] += 1
        fields.add(f)
    assert sum(seen.values()) >= 5 and min(seen["left"], seen["right"]) >= 3, seen
    assert len(fields) == 3
