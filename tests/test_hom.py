"""Enlarged hom spaces: frozen dimension table, bases, composition."""

import math
import random

import pytest

import oracles
from dualseq.errors import ValidationFailed
from dualseq.gen import random_graded_element, random_scalar, random_seq
from dualseq.graded import (compose, differential, is_morphism, shift_element,
                            zero_element)
from dualseq import hom
from dualseq.hom import (HatMorphism, HomContext, compose_hat, direct_sum, get_context, hat,
                         hat_eps, hom_complex, identity_hat, shift_hat, zero_hat)
from dualseq.linalg import Field, _rref, subspaces
from dualseq.seq import direct_sum_seq, interval, shift

F2 = Field(2)
F5 = Field(5)
Q = Field(None)
INF = math.inf


def dims(field, a1, b1, a2, b2):
    ctx = get_context(interval(field, a1, b1), interval(field, a2, b2))
    return (ctx.dim_hom, ctx.dim_eps)


# frozen by hand from small diagram chases; independent of the code path
TABLE = [
    ((0, 0), (0, 0), (1, 1)),
    ((0, 0), (0, 1), (0, 1)),
    ((0, 0), (0, 2), (0, 1)),
    ((0, 0), (0, INF), (0, 1)),
    ((0, 0), (-INF, 0), (1, 0)),
    ((0, 1), (0, 0), (1, 0)),
    ((0, 1), (0, 1), (1, 1)),
    ((0, 1), (1, 1), (0, 1)),
    ((0, 1), (1, 2), (0, 1)),
    ((1, 1), (0, 1), (1, 0)),
    ((1, 1), (1, 1), (1, 1)),
    ((1, 1), (1, 2), (0, 1)),
    ((1, 2), (1, 1), (1, 0)),
    ((1, 1), (0, 0), (0, 0)),
    ((-INF, 0), (0, 0), (0, 1)),
    ((-INF, 1), (1, 1), (0, 1)),
    ((0, INF), (0, 0), (1, 0)),
    ((-INF, 0), (-INF, 0), (1, 0)),
]


@pytest.mark.parametrize("src,dst,want", TABLE)
def test_interval_hom_table(src, dst, want):
    for field in (F2, F5, Q):
        assert dims(field, *src, *dst) == want


def test_hom_basis_elements_are_morphisms():
    rng = random.Random(5)
    for _ in range(10):
        f = rng.choice([F2, F5])
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        ctx = get_context(v, w)
        basis = ctx.hom_basis()
        assert len(basis) == ctx.dim_hom
        for g in basis:
            assert is_morphism(g)


def test_window_data_matches_fresh_elimination():
    # the context reads its kernel and coset data off one elimination per
    # system; a fresh reduction of its own window matrices must agree
    rng = random.Random(12)
    for _ in range(12):
        f = rng.choice([F2, F5, Q])
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        ctx = get_context(v, w)
        d0 = ctx.d0
        assert d0.cols == ctx.N
        ker = subspaces(d0).kernel
        assert ctx.ker_basis_vecs == [ker.col(j) for j in range(ker.cols)]
        img = ctx.dminus1.transpose().to_lists()
        rank_, pivots = _rref(f, img, ctx.N)
        # the coset rows are echelon rows, pivot entries 1, whose rref (by
        # the oracle) is the fresh one
        dense = [[row.get(j, f.zero) for j in range(ctx.N)] for row in ctx.img_rows]
        assert ctx.img_pivots == pivots and len(dense) == rank_
        assert all(min(row) == c and row[c] == 1
                   for row, c in zip(ctx.img_rows, ctx.img_pivots))
        assert oracles.gauss_jordan(f, dense, ctx.N) == (rank_, pivots, img[:rank_])
        assert ctx.nonpivots == [j for j in range(ctx.N) if j not in pivots]


def test_reduce_vec_matches_oracle_rref():
    # reducing by the echelon coset rows, in increasing pivot order, gives
    # the reduction by the rref of the image of d^-1
    rng = random.Random(13)
    for _ in range(12):
        f = rng.choice([F2, F5, Q])
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        ctx = get_context(v, w)
        _, pivots, rref = oracles.gauss_jordan(f, ctx.dminus1.transpose().to_lists(), ctx.N)
        for _ in range(3):
            vec = [random_scalar(rng, f) for _ in range(ctx.N)]
            want = list(vec)
            for row, c in zip(rref, pivots):
                coef = want[c]
                want = [x - coef * y if f.p is None else (x - coef * y) % f.p
                        for x, y in zip(want, row)]
            assert ctx.reduce_vec(vec) == want


def test_margin_zero_hom_basis():
    # the hom basis repeats its boundary blocks beyond the window; on rays
    # and finite bars ending next to the irregular region (e.g.
    # [0,inf) -> (-inf,1]) every element must still be a morphism
    ends = [-INF, -1, 0, 1, INF]
    bars = [(a, b) for a in ends for b in ends if a < INF and b > -INF and a <= b]
    assert len(bars) == 13
    for field in (F2, F5, Q):
        for src in bars:
            for dst in bars:
                ctx = get_context(interval(field, *src), interval(field, *dst))
                basis = ctx.hom_basis()
                assert len(basis) == ctx.dim_hom
                assert all(map(is_morphism, basis))


def _with_rays(rng, field, v):
    # a left ray, a right ray, both or neither, next to the window
    for left in rng.sample([False, True], rng.randint(0, 2)):
        end = rng.randint(-2, 2)
        v = direct_sum_seq(v, interval(field, -INF, end) if left
                           else interval(field, end, INF))
    return v


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_window_oracle_margins_agree(field):
    # the module docstring of dualseq.hom proves every margin >= 1 exact for
    # Hom_S and every margin >= 0 exact for Hom_eps; the oracle builds each
    # window on its own from the formula, with no hom code
    rng = random.Random({F2: 61, F5: 62, Q: 63}[field])
    for _ in range(12):
        v = _with_rays(rng, field, random_seq(rng, field, max_bars=3, lo=-2, hi=2))
        w = _with_rays(rng, field, random_seq(rng, field, max_bars=3, lo=-2, hi=2))
        ctx = get_context(v, w)
        want = (ctx.dim_hom, ctx.dim_eps)
        for margin in range(1, 6):
            assert oracles.window_dims(v, w, margin) == want
        assert oracles.window_dims(v, w, 0)[1] == ctx.dim_eps


def test_window_oracle_margin_zero_misses():
    # the bound is tight: at margin 0 a V with a zero right tail ending at
    # b = max(v.hi, w.hi + 1), mapped into a W with an iso right tail, loses
    # the constraint f^b = 0, so dim Hom_S comes out too large
    for field in (F2, F5, Q):
        v, w = interval(field, 2, 2), interval(field, 1, INF)
        ctx = get_context(v, w)
        assert ctx.dim_hom == 0
        assert oracles.window_dims(v, w, 0) == (1, ctx.dim_eps)
        assert oracles.window_dims(v, w, 1) == (0, ctx.dim_eps)
    # and random pairs with rays hit that case too
    rng = random.Random(64)
    misses = 0
    for _ in range(60):
        field = rng.choice([F2, F5])
        v = _with_rays(rng, field, random_seq(rng, field, max_bars=3, lo=-2, hi=2))
        w = _with_rays(rng, field, random_seq(rng, field, max_bars=3, lo=-2, hi=2))
        misses += oracles.window_dims(v, w, 0)[0] != get_context(v, w).dim_hom
    assert misses > 0


@pytest.mark.parametrize("margin", [3, 5])
def test_wider_margin_changes_no_answer(monkeypatch, margin):
    # margin 1 is the proven bound; a wider window gives the same bases and
    # the same canonical coset representatives, not just the same dimensions
    rng = random.Random(70 + margin)
    cases = []
    for _ in range(15):
        f = rng.choice([F2, F5, Q])
        v = _with_rays(rng, f, random_seq(rng, f, max_bars=3, lo=-2, hi=2))
        w = _with_rays(rng, f, random_seq(rng, f, max_bars=3, lo=-2, hi=2))
        cases.append((v, w, [random_graded_element(rng, v, w) for _ in range(2)]))

    def answers(v, w, els):
        ctx = HomContext(v, w)
        return (ctx.certificate.margin, ctx.hom_basis(), ctx.eps_basis(),
                [ctx.canonical_eps(g) for g in els])

    want = [answers(*case) for case in cases]
    monkeypatch.setattr(hom, "MARGIN", margin)
    for case, (base, *rest) in zip(cases, want):
        assert base == 1
        assert answers(*case) == (margin, *rest)


@pytest.mark.parametrize("extra_checks", [1, 2, 3])
@pytest.mark.parametrize("base_margin", [0, 1])
def test_certificate_checks_match_fresh_eliminations(base_margin, extra_checks):
    # the certificate's window is the one its margin lays out, and its own
    # d^0 and d^-1, ranked by the oracle, give the context's dimensions.
    # Searching up from base_margin for the first margin whose next
    # extra_checks wider windows all agree, eliminated each on its own,
    # must stop at or below the certificate's margin, and every window it
    # looks at from there on must agree with the context.  A right ray in
    # the target makes margin 0 too narrow, so the search moves on.
    rng = random.Random(40 + 10 * base_margin + extra_checks)
    widened = 0
    for _ in range(10):
        f = rng.choice([F2, F5, Q])
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        w = direct_sum_seq(random_seq(rng, f, max_bars=2, lo=-2, hi=2),
                           interval(f, rng.randint(-1, 1), INF))
        ctx = get_context(v, w)
        cert = ctx.certificate
        assert cert.margin == ctx.margin
        assert cert.window == (min(v.lo, w.lo - 1) - cert.margin,
                               max(v.hi, w.hi + 1) + cert.margin)
        want = (ctx.dim_hom, ctx.dim_eps)
        assert (ctx.N - oracles.rank(ctx.d0),
                ctx.N - oracles.rank(ctx.dminus1)) == want
        assert oracles.window_dims(v, w, cert.margin) == want
        margin = base_margin
        while len({oracles.window_dims(v, w, margin + k)
                   for k in range(extra_checks + 1)}) > 1:
            margin += 1
        assert margin <= cert.margin
        for k in range(extra_checks + 1):
            assert oracles.window_dims(v, w, margin + k) == want
        widened += margin > base_margin
    if base_margin == 0:
        assert widened > 0


def test_cached_context_keeps_no_dense_differentials():
    ctx = get_context(interval(F5, 0, 2), interval(F5, 1, 3))
    assert "d0" not in vars(ctx) and "dminus1" not in vars(ctx)
    assert ctx.dminus1.rows == ctx.N == ctx.d0.cols


def test_eps_basis_classes_independent():
    rng = random.Random(6)
    for _ in range(10):
        f = rng.choice([F2, F5])
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        ctx = get_context(v, w)
        basis = ctx.eps_basis()
        assert len(basis) == ctx.dim_eps
        for t, g in enumerate(basis):
            coords = ctx.eps_coords(g)
            assert [1 if j == t else 0
                    for j in range(ctx.dim_eps)] == [int(x != f.zero)
                                                     for x in coords]


@pytest.mark.parametrize("coords", [[1, 2, 3], [], [1, 0]])
def test_eps_from_coords_refuses_wrong_length(coords):
    ctx = get_context(interval(F5, 0, 0), interval(F5, 0, 0))
    assert ctx.dim_eps == 1
    with pytest.raises(ValidationFailed, match="dimension 1"):
        ctx.eps_from_coords(coords)
    assert ctx.eps_coords(ctx.eps_from_coords([3])) == [3]


def test_end_s00_structure():
    # End(S_{0,0}) = k[eps]: identity plus a square-zero eps class
    v = interval(F5, 0, 0)
    ctx = get_context(v, v)
    assert (ctx.dim_hom, ctx.dim_eps) == (1, 1)
    one = identity_hat(v)
    eps = hat_eps(ctx.eps_basis()[0])
    assert eps.is_type_eps and not eps.is_zero
    assert compose_hat(eps, eps).is_zero
    assert compose_hat(one, eps) == eps
    assert compose_hat(eps, one) == eps


def test_eps_composition_kills_eps():
    # the eps ideal squares to zero between any objects
    rng = random.Random(7)
    for _ in range(10):
        f = rng.choice([F2, F5])
        u = random_seq(rng, f, max_bars=2, lo=-2, hi=2)
        v = random_seq(rng, f, max_bars=2, lo=-2, hi=2)
        w = random_seq(rng, f, max_bars=2, lo=-2, hi=2)
        cuv = get_context(u, v)
        cvw = get_context(v, w)
        if cuv.dim_eps == 0 or cvw.dim_eps == 0:
            continue
        a = hat_eps(cuv.eps_basis()[0])
        b = hat_eps(cvw.eps_basis()[0])
        assert compose_hat(b, a).is_zero


def test_hom_additive_in_source_and_target():
    rng = random.Random(8)
    for _ in range(8):
        f = rng.choice([F2, F5])
        a = random_seq(rng, f, max_bars=2, lo=-2, hi=2)
        b = random_seq(rng, f, max_bars=2, lo=-2, hi=2)
        c = random_seq(rng, f, max_bars=2, lo=-2, hi=2)
        s = direct_sum_seq(a, b)
        left = get_context(s, c)
        assert left.dim_hom == get_context(a, c).dim_hom + get_context(b, c).dim_hom
        assert left.dim_eps == get_context(a, c).dim_eps + get_context(b, c).dim_eps
        right = get_context(c, s)
        assert right.dim_hom == get_context(c, a).dim_hom + get_context(c, b).dim_hom
        assert right.dim_eps == get_context(c, a).dim_eps + get_context(c, b).dim_eps


def test_hat_rejects_nonmorphism():
    # identity into degree 0 of S_{0,1} does not commute with the
    # differentials (Hom_S(S00, S01) = 0), so the type-1 slot rejects it
    v = interval(F2, 0, 0)
    w = interval(F2, 0, 1)
    from dualseq.graded import make_element
    from dualseq.linalg import Matrix

    def fn(i):
        if i == 0:
            return Matrix.identity(F2, 1)
        return Matrix.zeros(F2, w.dim(i), v.dim(i))

    bad = make_element(v, w, 0, 0, 1, fn)
    assert not is_morphism(bad)
    with pytest.raises(ValidationFailed):
        hat(bad)


def test_compose_hat_mixed_parts():
    # (g1 + geps) (f1 + feps) = g1 f1 + (g1 feps + geps f1)
    rng = random.Random(9)
    hits = 0
    while hits < 6:
        f = rng.choice([F2, F5])
        u = random_seq(rng, f, max_bars=2, lo=-1, hi=1)
        v = random_seq(rng, f, max_bars=2, lo=-1, hi=1)
        cuv = get_context(u, v)
        if cuv.dim_hom == 0 or cuv.dim_eps == 0:
            continue
        one_uv = hat(cuv.hom_basis()[0])
        eps_uv = hat_eps(cuv.eps_basis()[0])
        both = one_uv + eps_uv
        idu = identity_hat(u)
        assert compose_hat(both, idu) == both
        assert compose_hat(both, both.src and idu) == both
        hits += 1


def test_shift_hat_identity():
    v = interval(F5, 0, 2)
    s = shift_hat(identity_hat(v), 1)
    assert s == identity_hat(shift(v, 1))


def test_hom_complex_window_is_proven_exact():
    v = interval(F2, 0, 3)
    w = interval(F2, 1, 2)
    data = hom_complex(v, w)
    assert data.dim_hom == get_context(v, w).dim_hom


def test_zero_hat():
    v = interval(F2, 0, 1)
    w = interval(F2, 2, 3)
    z = zero_hat(v, w)
    assert z.is_zero and z.is_type_one and z.is_type_eps


def test_direct_sum_projections_section():
    v = interval(F5, 0, 1)
    w = interval(F5, 1, 2)
    ds = direct_sum(v, w)
    assert compose_hat(ds.project_left, ds.include_left) == identity_hat(v)
    assert compose_hat(ds.project_right, ds.include_right) == identity_hat(w)
    assert compose_hat(ds.project_left, ds.include_right).is_zero


def _random_morphism(rng, v, w):
    ctx = get_context(v, w)
    out = zero_element(v, w, 0)
    for g in ctx.hom_basis():
        out = out + g.scale(random_scalar(rng, v.field))
    return out


def _old_hat(f1, eps):
    # every epsilon part reduced through the pair's hom context
    return HatMorphism(f1, get_context(f1.src, f1.dst).canonical_eps(eps))


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_type_one_parts_build_no_context(field):
    # the class of zero is zero: a missing or zero epsilon part must not
    # build (or look up) a hom context, and must give the old path's answer
    rng = random.Random(31)
    for _ in range(6):
        u, v, w = (random_seq(rng, field, max_bars=3, lo=-2, hi=2) for _ in range(3))
        f1 = _random_morphism(rng, u, v)
        g1 = _random_morphism(rng, v, w)
        get_context.cache_clear()
        f, f0 = hat(f1), hat(f1, zero_element(u, v, 0))
        g = hat(g1)
        gf = compose_hat(g, f)
        sf = shift_hat(f, 1)
        assert get_context.cache_info().misses == 0
        assert f == f0 == _old_hat(f1, zero_element(u, v, 0))
        assert gf == _old_hat(compose(g1, f1), zero_element(u, w, 0))
        sf1 = shift_element(f1, 1)
        assert sf == _old_hat(sf1, zero_element(sf1.src, sf1.dst, 0))
        assert f.is_type_one and gf.is_type_one and sf.is_type_one


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_nonzero_eps_part_still_reduced(field):
    rng = random.Random(32)
    reduced = 0
    for _ in range(6):
        u, v, w = (random_seq(rng, field, max_bars=3, lo=-2, hi=2) for _ in range(3))
        f1 = _random_morphism(rng, u, v)
        g1 = _random_morphism(rng, v, w)
        feps = random_graded_element(rng, u, v)
        f = hat(f1, feps)
        assert f == _old_hat(f1, feps)
        assert f.feps == get_context(u, v).canonical_eps(feps)
        reduced += f.feps != feps
        g = hat(g1, random_graded_element(rng, v, w))
        eps = compose(g1, f.feps) + compose(g.feps, f1)
        assert compose_hat(g, f) == _old_hat(compose(g1, f1), eps)
        assert compose_hat(hat(g1), f) == _old_hat(compose(g1, f1), compose(g1, f.feps))
        sf1, seps = shift_element(f1, -1), shift_element(feps, -1)
        assert shift_hat(f, -1) == _old_hat(sf1, seps)
    # the random parts are not canonical, so reduction really happened
    assert reduced > 0


def test_hat_zero_across_fields_raises():
    # a zero type-1 part passes the morphism check, so the field check must
    # come from the epsilon shortcut itself
    v = interval(F2, 0, 1)
    w = interval(F5, 0, 1)
    with pytest.raises(ValidationFailed, match="different fields"):
        hat(zero_element(v, w, 0))
    with pytest.raises(ValidationFailed, match="different fields"):
        hat(zero_element(v, w, 0), zero_element(v, w, 0))


def test_zero_eps_part_of_wrong_type_rejected():
    v = interval(F5, 0, 1)
    w = interval(F5, 1, 2)
    f1 = zero_element(v, w, 0)
    with pytest.raises(ValidationFailed):
        hat(f1, zero_element(w, v, 0))
    with pytest.raises(ValidationFailed):
        hat(f1, zero_element(v, w, 1))
