"""Eps classes read from window coordinates (``hom._eps_class``), against
the element-building path of ``tests/oracles.py``: every result must have
the stored fields the old path gave, entry types included.  The zero test
of a composite (``hom._vanishes``) must give the answer of the composite
built as an element."""

import ast
import inspect
import math
import random

import pytest

import oracles
from dualseq import hom, triang
from dualseq.errors import ParseError
from dualseq.gen import random_graded_element, random_matrix, random_scalar, random_seq
from dualseq.graded import base_window, differential, make_element, zero_element
from dualseq.hom import (HatMorphism, compose_hat, direct_sum, get_context, hat, hat_eps,
                         hom_window, identity_hat, shift_hat, zero_hat)
from dualseq.io import parse_document
from dualseq.linalg import Field, Matrix
from dualseq.phantom import Diagram, inner_derivation, solve_inner
from dualseq.seq import direct_sum_seq, interval, shift, zero_seq
from dualseq.triang import (cone, truncation_inclusion, truncation_projection,
                            truncation_triangle, triangle_from_ses)

F2 = Field(2)
F5 = Field(5)
Q = Field(None)
FIELDS = [F2, F5, Q]
INF = math.inf


def _same(got, want):
    # field for field, and entry types too: over Q every entry is a Fraction
    assert oracles.stored(got) == oracles.stored(want)
    assert ([type(x) for m in got.comps + got.ltail + got.rtail for x in m.data]
            == [type(x) for m in want.comps + want.ltail + want.rtail for x in m.data])


def _same_hat(got, want):
    _same(got.f1, want.f1)
    _same(got.feps, want.feps)


def _with_rays(rng, field, v):
    # a left ray, a right ray, both or neither, next to the window
    for left in rng.sample([False, True], rng.randint(0, 2)):
        end = rng.randint(-2, 2)
        v = direct_sum_seq(v, interval(field, -INF, end) if left
                           else interval(field, end, INF))
    return v


def _obj(rng, field):
    return _with_rays(rng, field, random_seq(rng, field, max_bars=3, lo=-2, hi=2))


def _random_hat(rng, v, w):
    """A morphism with a random type-1 part and a random, non-canonical
    representative of a random eps class."""
    ctx = get_context(v, w)
    f1 = zero_element(v, w, 0)
    for g in ctx.hom_basis():
        f1 = f1 + g.scale(random_scalar(rng, v.field))
    return hat(f1, random_graded_element(rng, v, w))


def _spy(monkeypatch, module):
    """Record every ``(f1, eps_at)`` that ``module`` hands to ``hom._hat``."""
    seen, real = [], module._hat
    monkeypatch.setattr(module, "_hat", lambda f1, eps_at: seen.append((f1, eps_at))
                        or real(f1, eps_at))
    return seen


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_compose_and_shift_match_the_element_path(field):
    rng = random.Random(2100 + (field.p or 0))
    nonzero = 0
    for _ in range(16):
        u, v, w = (_obj(rng, field) for _ in range(3))
        f, g = _random_hat(rng, u, v), _random_hat(rng, v, w)
        # with an identity on either side the eps part of f or g survives
        for b, a in ((g, f), (identity_hat(v), f), (g, identity_hat(v))):
            ba = compose_hat(b, a)
            _same_hat(ba, oracles.compose_hat(b, a))
            nonzero += not ba.feps.is_zero
            for k in range(-3, 4):
                _same_hat(shift_hat(ba, k), oracles.shift_hat(ba, k))
    assert nonzero >= 8


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zero_object_and_constant_iso_iso(field):
    # make_seq pins both at window [0,0], so a shift does not move them;
    # Hom_eps vanishes against either, and shift_hat takes the type-1 branch
    rng = random.Random(2110 + (field.p or 0))
    pinned = [zero_seq(field), interval(field, -INF, INF)]
    for _ in range(6):
        v = _obj(rng, field)
        for p in pinned:
            for a, b in ((p, v), (v, p), (p, p)):
                assert get_context(a, b).dim_eps == 0
                h = _random_hat(rng, a, b)
                assert h.is_type_one
                for k in range(-3, 4):
                    _same_hat(shift_hat(h, k), oracles.shift_hat(h, k))
            h, g = _random_hat(rng, v, p), _random_hat(rng, p, v)
            _same_hat(compose_hat(g, h), oracles.compose_hat(g, h))
            _same_hat(compose_hat(h, g), oracles.compose_hat(h, g))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_cone_eps_parts_match_the_element_path(monkeypatch, field):
    rng = random.Random(2120 + (field.p or 0))
    nonzero = 0
    for _ in range(10):
        h = _random_hat(rng, _obj(rng, field), _obj(rng, field))
        seen = _spy(monkeypatch, triang)
        _, f, g = cone(h)
        lo, hi = triang._cone_window(h)
        assert len(seen) == 2
        for got, (f1, eps_at) in zip((f, g), seen):
            _same(got.feps, oracles.eps_class_at(f1.src, f1.dst, lo, hi, eps_at))
            nonzero += not got.feps.is_zero
        monkeypatch.undo()
    assert nonzero >= 3


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_connecting_classes_match_the_element_path(monkeypatch, field):
    # the w of truncation_triangle is sampled on [n-1, n-1], that of
    # triangle_from_ses on _ses_window
    rng = random.Random(2130 + (field.p or 0))
    nonzero = 0
    for _ in range(10):
        v = _obj(rng, field)
        n = rng.randint(v.lo - 1, v.hi + 1)
        seen = _spy(monkeypatch, triang)
        t = truncation_triangle(v, n)
        (f1, eps_at), = seen
        _same(t.w.feps, oracles.eps_class_at(f1.src, f1.dst, n - 1, n - 1, eps_at))
        u, p = truncation_inclusion(v, n), truncation_projection(v, n)
        seen.clear()
        s = triangle_from_ses(u, p)
        (f1, eps_at), = seen
        lo, hi = triang._ses_window(u.dst, p.dst)
        _same(s.w.feps, oracles.eps_class_at(f1.src, f1.dst, lo, hi, eps_at))
        nonzero += not t.w.feps.is_zero
        monkeypatch.undo()
    assert nonzero >= 3


@pytest.mark.parametrize("field", [F5, Q], ids=str)
def test_solve_inner_matches_the_element_path(field):
    # objects with left rays, so that the endomorphism spaces have eps parts
    rng = random.Random(2140 + (field.p or 0))
    nonzero = 0
    for _ in range(20):
        objs = {}
        for nm in "ABC":
            v = random_seq(rng, field, max_bars=3, lo=-2, hi=2)
            if rng.random() < 0.6:
                v = direct_sum_seq(v, interval(field, -INF, rng.randint(-1, 1)))
            objs[nm] = v
        a, b, c = objs.values()
        fab, gbc = hat(_random_hat(rng, a, b).f1), hat(_random_hat(rng, b, c).f1)
        diag = Diagram(objects=objs,
                       generators={"f": ("A", "B", fab), "g": ("B", "C", gbc),
                                   "gf": ("A", "C", compose_hat(gbc, fab))},
                       relations=(("g", "f", "gf"),))
        theta = {nm: get_context(v, v).eps_hat(
                     [random_scalar(rng, field) for _ in range(get_context(v, v).dim_eps)])
                 for nm, v in objs.items()}
        der = inner_derivation(diag, theta)
        got, want = solve_inner(diag, der), oracles.solve_inner(diag, der)
        assert got is not None and got.keys() == want.keys()
        for nm in got:
            _same_hat(got[nm], want[nm])
            nonzero += not got[nm].feps.is_zero
    assert nonzero >= 5


def _matrix_text(m):
    return "[" + ", ".join("[" + ", ".join(str(x) for x in m.row(r)) + "]"
                           for r in range(m.rows)) + "]"


def _seq_text(name, v):
    maps = "".join(f" map {v.lo + k} {_matrix_text(m)}" for k, m in enumerate(v.maps))
    return (f"seq {name} {{ window {v.lo} {v.hi} dims {' '.join(map(str, v.dims))}{maps}"
            f" tails {v.left_tail.value} {v.right_tail.value} }}\n")


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_parsed_morphisms_match_the_element_path(field):
    # random eps blocks on a window around the base window, with zero tails
    # or with the edge blocks repeated (constant tails)
    rng = random.Random(2150 + (field.p or 0))
    for k in range(12):
        v, w = _obj(rng, field), _obj(rng, field)
        blo, bhi = base_window(v, w, 0)
        lo, hi = blo - rng.randint(0, 2), bhi + rng.randint(0, 2)
        comps = {i: random_matrix(rng, field, w.dim(i), v.dim(i)) for i in range(lo, hi + 1)}
        constant = k % 2 == 1

        def fn(i):
            # as the parser reads it: a repeat into a degree of another
            # shape (one with no entries) is zero
            m = comps.get(min(max(i, lo), hi) if constant else i)
            z = Matrix.zeros(field, w.dim(i), v.dim(i))
            return m if m is not None and (m.rows, m.cols) == (z.rows, z.cols) else z

        body = " ".join(f"eps {i} {_matrix_text(m)}" for i, m in comps.items() if m.rows * m.cols)
        text = (f"field {field.p or 'Q'}\n" + _seq_text("V", v) + _seq_text("W", w)
                + f"mor e : V -> W {{ window {lo} {hi} {body}"
                + f" tails {'constant' if constant else 'zero'} }}\n")
        h = parse_document(text).morphism("e")
        _same(h.feps, oracles.eps_class(v, w, make_element(v, w, 0, lo, hi, fn)))
        _same(h.f1, zero_element(v, w, 0))


def test_bad_constant_repeat_is_reported_at_the_first_base_window_degree():
    # degree 0 holds 1 x 1 blocks, degree 1 holds 2 x 2 ones: the repeat of
    # the degree-1 block fails first at degree 0, where make_element would
    # meet it, though the hom window reaches down to degree -2
    text = ("field 5\nseq V { window 0 1 dims 1 2 map 0 [[1], [0]] tails iso zero }\n"
            "mor e : V -> V { window 1 1 eps 1 [[1, 0], [0, 1]] tails constant }\n")
    with pytest.raises(ParseError, match="of degree 1 into degree 0,"):
        parse_document(text)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_zero_on_the_window_is_the_zero_class(field):
    # a representative that vanishes on hom_window but not beyond it has
    # the zero class, found without building or looking up a context
    rng = random.Random(2160 + (field.p or 0))
    for k in range(6):
        ray = interval(field, -INF, rng.randint(-1, 1)) if k % 2 else interval(
            field, rng.randint(-1, 1), INF)
        v = direct_sum_seq(random_seq(rng, field, max_bars=2, lo=-2, hi=2), ray)
        w = direct_sum_seq(random_seq(rng, field, max_bars=2, lo=-2, hi=2), ray)
        L, R = hom_window(v, w)
        tails = {}

        def fn(i):
            if L <= i <= R:
                return Matrix.zeros(field, w.dim(i), v.dim(i))
            key = (i < L, i % 2)
            if key not in tails:
                m = random_matrix(rng, field, w.dim(i), v.dim(i))
                while m.is_zero and m.data:
                    m = random_matrix(rng, field, w.dim(i), v.dim(i))
                tails[key] = m
            return tails[key]

        eps = make_element(v, w, 0, L - 2, R + 2, fn)
        assert not eps.is_zero
        f1 = zero_element(v, w, 0)
        get_context.cache_clear()
        h = hat(f1, eps)
        assert get_context.cache_info().misses == 0
        _same(h.feps, zero_element(v, w, 0))
        _same(h.feps, oracles.eps_class(v, w, eps))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_eps_from_coords_matches_a_dense_vector(field):
    rng = random.Random(2170 + (field.p or 0))
    for _ in range(8):
        v, w = _obj(rng, field), _obj(rng, field)
        ctx = get_context(v, w)
        coords = [random_scalar(rng, field) if rng.random() < 0.6 else 0
                  for _ in range(ctx.dim_eps)]
        vec = [field.zero] * ctx.N
        for j, c in zip(ctx.nonpivots, coords):
            vec[j] = field.coerce(c)
        _same(ctx.eps_from_coords(coords),
              oracles.element_from_coords(v, w, 0, ctx.L, ctx.R, vec))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_library_constructors_keep_feps_canonical(field):
    # shift_hat relies on it: the feps of every constructor is the
    # canonical representative of its class
    rng = random.Random(2180 + (field.p or 0))
    for _ in range(6):
        u, v, w = (_obj(rng, field) for _ in range(3))
        f, g = _random_hat(rng, u, v), _random_hat(rng, v, w)
        f2 = _random_hat(rng, u, v)
        ctx = get_context(u, v)
        ds = direct_sum(u, v)
        hats = [f, hat_eps(random_graded_element(rng, u, v)), compose_hat(g, f),
                shift_hat(f, 1), shift_hat(f, -2), f + f2, f - f2, f2.scale(2), -f,
                identity_hat(u), zero_hat(u, v), ds.include_left, ds.include_right,
                ds.project_left, ds.project_right, *cone(f)[1:]]
        hats.append(hat(f.f1, ctx.eps_basis()[0]) if ctx.dim_eps else f)
        for h in hats:
            _same(h.feps, oracles.canonical_eps(get_context(h.src, h.dst), h.feps))


def _perturbed(rng, h):
    """``h`` with a random coboundary added to its eps part, by the raw
    constructor: the class is that of ``h``, the representative is not canonical."""
    return HatMorphism(h.f1, h.feps + differential(random_graded_element(rng, h.src, h.dst, -1)))


def _random_kind(rng, v, w):
    # a full morphism (plus the identity, on an endomorphism), its type-1 or
    # type-eps part, or zero; some perturbed
    h = _random_hat(rng, v, w)
    if v == w and rng.random() < 0.5:
        h = h + identity_hat(v)
    h = rng.choice([h, h, h, hat(h.f1), HatMorphism(zero_element(v, w, 0), h.feps), zero_hat(v, w)])
    return _perturbed(rng, h) if rng.random() < 0.3 else h


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_vanishes_matches_the_element_path(field):
    # shift(g, k) o f for f: X -> shift(Y, k) and g: Y -> Z, decided from
    # the blocks against the composite built and reduced as an element;
    # the objects are often one, so that many composites are nonzero
    rng = random.Random(2190 + (field.p or 0))
    seen = {"zero": 0, "nonzero": 0, "eps only": 0}
    for t in range(120):
        k = t % 2
        pool = [_obj(rng, field) for _ in range(rng.choice((1, 1, 2)))]
        y = rng.choice(pool)
        x, z = shift(rng.choice(pool), k), rng.choice(pool)
        f, g = _random_kind(rng, x, shift(y, k)), _random_kind(rng, y, z)
        got = hom._vanishes(*hom._composite(g, f, k))
        assert got == oracles.vanishes(g, f, k)
        one = oracles.compose_hat(oracles.shift_hat(g, k), f).f1
        seen["zero" if got else "eps only" if one.is_zero else "nonzero"] += 1
    assert seen["zero"] >= 8 and seen["nonzero"] + seen["eps only"] >= 34, seen
    assert seen["eps only"] >= 4, seen


def test_oracles_reduce_eps_classes_on_their_own():
    # the oracles reduce with their own rref of the d^-1 rows: none of them
    # reads a coset or a coordinate through a hom context
    tree = ast.parse(inspect.getsource(oracles))
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert used.isdisjoint({"reduce_vec", "eps_coords", "eps_coords_at"})


@pytest.mark.parametrize("field", FIELDS, ids=["F2", "F5", "Q"])
def test_oracle_coset_reduction_matches_the_context(field):
    # the representative with a zero at every pivot is unique, so the
    # oracle's reduction and the library's agree entry for entry
    rng = random.Random(5)
    for _ in range(30):
        v = random_seq(rng, field, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, field, max_bars=3, lo=-2, hi=2)
        ctx = get_context(v, w)
        g = random_graded_element(rng, v, w, 0)
        vec = oracles.window_vec(ctx, g)
        assert oracles.window_coords(v, w, g.component) == vec
        assert oracles.reduce_coset(v, w, vec) == ctx.reduce_vec(vec)
        assert oracles.coset_data(v, w).nonpivots == ctx.nonpivots
