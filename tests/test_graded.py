"""The graded hom complex: composition, differential, Leibniz."""

import math
import random

import pytest

from dualseq.errors import ValidationFailed
from dualseq.gen import random_graded_element, random_matrix, random_seq
from dualseq.graded import (all_morphisms, compose, differential,
                            identity_element, is_morphism, make_element,
                            shift_element, zero_element)
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


def _reference_is_morphism(g):
    # the definition: a degree-0 element whose differential vanishes
    return g.degree == 0 and differential(g).is_zero


def _perturbed(rng, g, widen, degree):
    """``g`` stored on its window widened by ``widen`` on each side, with a
    random nonzero matrix added at ``degree``; a degree outside that window
    changes the tail of its side and parity."""
    v, w, f = g.src, g.dst, g.src.field
    lo, hi = g.lo - widen, g.hi + widen
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
        basis = get_context(v, w).hom_basis()
        assert all_morphisms(basis) and all(map(_reference_is_morphism, basis))
        # mixed stored windows, mostly not morphisms
        batch = basis + [random_graded_element(rng, v, w) for _ in range(2)]
        rng.shuffle(batch)
        assert all_morphisms(batch) == all(map(_reference_is_morphism, batch))
        for g in batch:
            assert is_morphism(g) == _reference_is_morphism(g)
        # one element of a closed batch perturbed at one degree, sometimes
        # stored on a wider window than the others
        if not basis:
            continue
        t = rng.randrange(len(basis))
        g = basis[t]
        widen = rng.choice([0, 2])
        for kind, degree in (
                ("window", rng.randint(g.lo - widen, g.hi + widen)),
                ("tail", rng.choice([g.lo - widen - 2, g.lo - widen - 1,
                                     g.hi + widen + 1, g.hi + widen + 2]))):
            if v.dim(degree) * w.dim(degree) == 0:
                continue
            bad = basis[:t] + [_perturbed(rng, g, widen, degree)] + basis[t + 1:]
            want = all(map(_reference_is_morphism, bad))
            assert all_morphisms(bad) == want
            rejected[kind] += not want
    assert min(rejected.values()) >= 5, rejected


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
