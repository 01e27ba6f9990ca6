"""Triangles: cones, extensions, short exact sequences, truncations."""

import dataclasses
import math
import random
import re
from types import SimpleNamespace

import pytest

import oracles
from dualseq.barcode import decompose, is_isomorphic
from dualseq.errors import NotExact, ValidationFailed
from dualseq.gen import (random_graded_element, random_invertible, random_matrix,
                         random_seq)
from dualseq.graded import (GradedHomElement, base_window, coords_of, differential,
                            make_element, zero_element)
from dualseq import graded, hom, linalg, triang
from dualseq.hom import (HatMorphism, compose_hat, get_context, hat, hat_eps,
                         hom_window, identity_hat, zero_hat)
from dualseq.io import parse_document
from dualseq.linalg import Field, Matrix, block_matrix, split_map, subspaces
from dualseq.seq import Tail, direct_sum_seq, glue, interval, make_seq, shift, zero_seq
from dualseq.triang import (Triangle, cone, cone_triangle, extension_from_eps,
                            splits, triangle_from_ses, truncate_above,
                            truncate_below, truncation_inclusion,
                            truncation_projection, truncation_triangle)

F2 = Field(2)
F5 = Field(5)
Q = Field(None)
INF = math.inf


def random_hat(rng, f, v, w, want_eps=None):
    ctx = get_context(v, w)
    h = zero_hat(v, w)
    if ctx.dim_hom and want_eps is not True:
        from dualseq.hom import hat
        coeffs = [f.coerce(rng.randint(0, 2)) for _ in range(ctx.dim_hom)]
        for c, g in zip(coeffs, ctx.hom_basis()):
            if c != f.zero:
                h = h + hat(g).scale(c)
    if ctx.dim_eps and want_eps is not False:
        coeffs = [f.coerce(rng.randint(0, 2)) for _ in range(ctx.dim_eps)]
        for c, g in zip(coeffs, ctx.eps_basis()):
            if c != f.zero:
                h = h + hat_eps(g).scale(c)
    return h


def test_cone_of_identity_is_zero():
    for f in (F2, F5, Q):
        rng = random.Random(51)
        for _ in range(5):
            v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
            u, _, _ = cone(identity_hat(v))
            assert u == zero_seq(f)


def test_cone_of_zero_is_sum_with_shift():
    rng = random.Random(52)
    for _ in range(12):
        f = rng.choice([F2, F5, Q])
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        u, _, _ = cone(zero_hat(v, w))
        assert is_isomorphic(u, direct_sum_seq(v, shift(w, -1)))


def test_cone_triangle_verifies():
    rng = random.Random(53)
    checked = 0
    while checked < 15:
        f = rng.choice([F2, F5])
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        h = random_hat(rng, f, v, w)
        tri = cone_triangle(h)
        tri.verify()
        assert tri.c == v and tri.a == shift(w, -1)
        assert tri.w == h
        checked += 1


def _matrix_text(m):
    return "[" + ", ".join("[" + ", ".join(str(x) for x in m.row(r)) + "]"
                           for r in range(m.rows)) + "]"


def _seq_text(name, v):
    lines = [f"seq {name} {{", f"  window {v.lo} {v.hi}",
             "  dims " + " ".join(map(str, v.dims))]
    lines += [f"  map {v.lo + k} {_matrix_text(m)}" for k, m in enumerate(v.maps)]
    lines.append(f"  tails {v.left_tail.value} {v.right_tail.value}")
    return "\n".join(lines) + "\n}\n"


def _mor_text(name, key, g, lo, hi, tails):
    lines = [f"mor {name} : X -> Y {{", f"  window {lo} {hi}"]
    lines += [f"  {key} {i} {_matrix_text(g.component(i))}"
              for i in range(lo, hi + 1) if not g.component(i).is_zero]
    lines.append(f"  tails {tails}")
    return "\n".join(lines) + "\n}\n"


def test_cone_ignores_written_window():
    # the same morphism written on its own window and on one widened by 3
    # parses to the same element, window included, and has the same cone
    rng = random.Random(56)
    for k in range(12):
        f = (F2, F5, Q)[k % 3]
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        h = random_hat(rng, f, v, w)
        parsed = []
        for widen in (0, 3):
            one, eps = h.f1, h.feps
            doc = parse_document("".join([
                f"field {f.p or 'Q'}\n", _seq_text("X", v), _seq_text("Y", w),
                _mor_text("a", "one", one, one.lo - widen, one.hi + widen, "constant"),
                _mor_text("e", "eps", eps, eps.lo - widen, eps.hi + widen, "zero")]))
            parsed.append(doc.morphism("a") + doc.morphism("e"))
        tight, wide = parsed
        assert tight == wide == h
        for part in ("f1", "feps"):
            a, b = getattr(tight, part), getattr(wide, part)
            assert (a.lo, a.comps) == (b.lo, b.comps)
        u_t, f_t, g_t = cone(tight)
        u_w, f_w, g_w = cone(wide)
        assert u_t == u_w and f_t == f_w and g_t == g_w


def _parts(u, f, g):
    return u, [(e.lo, e.comps, e.ltail, e.rtail) for e in (f.f1, f.feps, g.f1, g.feps)]


@pytest.mark.parametrize("pad", [1, 2])
def test_cone_window_is_wide_enough(monkeypatch, pad):
    # beyond _cone_window every input of U, f and g is in its tail, so a
    # wider window builds the same cone, element windows included
    rng = random.Random(58)
    cases = []
    for k in range(24):
        f = (F2, F5, Q)[k % 3]
        v = random_seq(rng, f, max_bars=3, lo=-3, hi=3)
        w = random_seq(rng, f, max_bars=3, lo=-3, hi=3)
        h = random_hat(rng, f, v, w)
        cases.append((h, _parts(*cone(h))))
    real = triang._cone_window

    def wider(h):
        lo, hi = real(h)
        return lo - pad, hi + pad

    monkeypatch.setattr(triang, "_cone_window", wider)
    for h, want in cases:
        assert _parts(*cone(h)) == want


def _with_rays(rng, field, v):
    # a left ray, a right ray, both or neither, so that ISO and ZERO tails
    # meet on each side
    for left in rng.sample([False, True], rng.randint(0, 2)):
        end = rng.randint(-2, 2)
        v = direct_sum_seq(v, interval(field, -INF, end) if left
                           else interval(field, end, INF))
    return v


def _element_parts(e):
    return e.lo, e.comps, e.ltail, e.rtail


def _extension_cases():
    # random representatives, not just basis elements, so canonical classes
    # reach the edges of their windows
    rng = random.Random(59)
    out = []
    for k in range(60):
        f = (F2, F5, Q)[k % 3]
        x = _with_rays(rng, f, random_seq(rng, f, max_bars=2, lo=-2, hi=2))
        y = _with_rays(rng, f, random_seq(rng, f, max_bars=2, lo=-2, hi=2))
        out.append(random_graded_element(rng, x, y))
    return out


def _extension_parts(g):
    e = extension_from_eps(g)
    return e.total, [_element_parts(m) for h in (e.incl, e.proj) for m in (h.f1, h.feps)]


def _glued(g):
    """The ses 0 -> Y[-1] -> E -> X -> 0 glued along the components of
    ``g: X -> Y`` on a generous window (zero beyond it), not along the
    canonical form of its class."""
    x, y, f = g.src, g.dst, g.src.field
    lo, hi = min(x.lo, y.lo, g.lo) - 3, max(x.hi, y.hi, g.hi) + 3
    maps = [block_matrix(f, [[x.map_at(i), Matrix.zeros(f, x.dim(i + 1), y.dim(i - 1))],
                             [-g.component(i), -y.map_at(i - 1)]]) for i in range(lo, hi)]
    e = make_seq(f, lo, [x.dim(i) + y.dim(i - 1) for i in range(lo, hi + 1)], maps,
                 Tail.ISO if Tail.ISO in (x.left_tail, y.left_tail) else Tail.ZERO,
                 Tail.ISO if Tail.ISO in (x.right_tail, y.right_tail) else Tail.ZERO)
    inc = make_element(shift(y, -1), e, 0, lo, hi, lambda i: Matrix.zeros(
        f, x.dim(i), y.dim(i - 1)).vstack(Matrix.identity(f, y.dim(i - 1))))
    prj = make_element(e, x, 0, lo, hi, lambda i: Matrix.identity(f, x.dim(i)).hstack(
        Matrix.zeros(f, x.dim(i), y.dim(i - 1))))
    return hat(inc), hat(prj)


def _ses_cases():
    # the ses of extensions, glued along canonical and along random
    # representatives (nonzero connecting classes), and the truncation
    # sequences of sequences with rays
    exts = _extension_cases()
    out = [(e.incl, e.proj) for e in map(extension_from_eps, exts)]
    out += [_glued(g) for g in exts]
    rng = random.Random(60)
    for k in range(30):
        f = (F2, F5, Q)[k % 3]
        v = _with_rays(rng, f, random_seq(rng, f, max_bars=2, lo=-2, hi=2))
        n = rng.randint(v.lo - 1, v.hi + 1)
        out.append((truncation_inclusion(v, n), truncation_projection(v, n)))
    return out


def _triangle_parts(u, v):
    t = triangle_from_ses(u, v)
    return t.a, t.b, t.c, [_element_parts(m) for h in (t.u, t.v, t.w)
                           for m in (h.f1, h.feps)]


@pytest.mark.parametrize("pad", [1, 2])
def test_extension_and_ses_windows_are_wide_enough(monkeypatch, pad):
    # beyond _extension_window every input of E and its maps is in its
    # tail, and beyond _ses_window the connecting map is zero, so wider
    # windows build the same objects, element windows included
    exts, sess = _extension_cases(), _ses_cases()
    want = [_extension_parts(g) for g in exts], [_triangle_parts(*p) for p in sess]
    for name in ("_extension_window", "_ses_window"):
        real = getattr(triang, name)
        monkeypatch.setattr(triang, name, lambda *args, real=real: (
            real(*args)[0] - pad, real(*args)[1] + pad))
    assert [_extension_parts(g) for g in exts] == want[0]
    assert [_triangle_parts(*p) for p in sess] == want[1]


def _terms(name, args):
    # the terms of each window, left side first, as the docstrings derive them
    if name == "_extension_window":
        (fc,) = args
        return [fc.src.lo - 1, fc.lo], [fc.dst.hi + 2, fc.hi + 1]
    b, c = args
    return [b.lo, c.lo], [c.hi]


@pytest.mark.parametrize("name,side,term", [
    ("_extension_window", 0, 0), ("_extension_window", 0, 1),
    ("_extension_window", 1, 0), ("_extension_window", 1, 1),
    ("_ses_window", 0, 0), ("_ses_window", 0, 1), ("_ses_window", 1, 0)])
def test_window_terms_are_needed(monkeypatch, name, side, term):
    # moving any one term of a window in by one degree changes some answer
    # (or breaks the construction)
    exts, sess = _extension_cases(), _ses_cases()
    want = [_extension_parts(g) for g in exts], [_triangle_parts(*p) for p in sess]
    real = getattr(triang, name)

    def narrower(*args):
        terms = _terms(name, args)
        assert real(*args) == (min(terms[0]), max(terms[1]))
        terms[side][term] += 1 if side == 0 else -1
        return min(terms[0]), max(terms[1])

    monkeypatch.setattr(triang, name, narrower)
    changed = 0
    for g, parts in zip(exts, want[0]):
        try:
            changed += _extension_parts(g) != parts
        except ValidationFailed:
            changed += 1
    for p, parts in zip(sess, want[1]):
        try:
            changed += _triangle_parts(*p) != parts
        except ValidationFailed:
            changed += 1
    assert changed > 0


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("parity", [0, 1])
def test_ses_checks_cover_both_tail_parities(side, parity):
    # the exactness checks read only the components, so an input whose tail
    # fails to be surjective in one parity only is caught, in either parity
    for f in (F2, F5, Q):
        b = interval(f, -INF, 0) if side == "left" else interval(f, 0, INF)
        one, zero = Matrix.identity(f, 1), Matrix.zeros(f, 1, 1)

        def fn(i):
            if not b.dim(i):
                return Matrix.zeros(f, 0, 0)
            return one if -1 <= i <= 1 or i % 2 != parity else zero

        v = HatMorphism(make_element(b, b, 0, -1, 1, fn), zero_element(b, b, 0))
        u = zero_hat(zero_seq(f), b)
        with pytest.raises(NotExact, match="not surjective"):
            triangle_from_ses(u, v)


def _recording_splits(monkeypatch):
    # every split_map call of triang, and every degree a construction reads
    calls, degrees = [], set()
    real_split, real_splits = triang.split_map, triang._degree_splits

    def splits(f1):
        at = real_splits(f1)
        return lambda i: degrees.add(i) or at(i)

    monkeypatch.setattr(triang, "split_map", lambda m: calls.append(m) or real_split(m))
    monkeypatch.setattr(triang, "_degree_splits", splits)
    return calls, degrees


def _stored_blocks(f1):
    return {*f1.comps, *f1.ltail, *f1.rtail}


def test_split_data_once_per_block(monkeypatch):
    # one split_map per distinct block of h1 for the cone, and of u and v
    # for the triangle of a short exact sequence
    for name in ("complement", "inverse", "subspaces", "solve"):
        assert not hasattr(triang, name), name
    calls, degrees = _recording_splits(monkeypatch)
    rng = random.Random(57)
    blocks = visited = 0
    for _ in range(10):
        f = rng.choice([F2, F5, Q])
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        w = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        h = random_hat(rng, f, v, w)
        calls.clear()
        degrees.clear()
        cone(h)
        assert len(calls) == len(set(calls)) == len(_stored_blocks(h.f1))
        blocks += len(calls)
        visited += len(degrees)
    # the cone visits more than twice as many degrees as it splits blocks
    assert visited > 2 * blocks, (visited, blocks)
    for u, v in _ses_cases()[::4]:
        calls.clear()
        triangle_from_ses(u, v)
        assert len(calls) == len(_stored_blocks(u.f1)) + len(_stored_blocks(v.f1))


def _counting_rref(monkeypatch):
    count = [0]
    real = linalg._rref

    def counting(*args, **kwargs):
        count[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "_rref", counting)
    return count


def test_ses_eliminates_no_more_than_ranking_and_solving(monkeypatch):
    # the exactness checks read only ranks, so a split runs its second
    # elimination only for the blocks the connecting map reads: at most
    # one rank per distinct pair of blocks checked, and one solve per
    # section of v and per degree of the connecting map
    cases = _ses_cases()
    for u, v in cases:
        triangle_from_ses(u, v)                 # hom contexts built
    count = _counting_rref(monkeypatch)
    fewer = 0
    for u, v in cases:
        checks = range(min(u.f1.lo, v.f1.lo) - 2, max(u.f1.hi, v.f1.hi) + 3)
        pairs = {(u.f1.component(i), v.f1.component(i)) for i in checks}
        lo, hi = triang._ses_window(u.dst, v.dst)
        count[0] = 0
        triangle_from_ses(u, v)
        bound = 2 * len(pairs) + (hi + 2 - lo) + (hi + 1 - lo)
        assert count[0] <= bound, (count[0], bound)
        fewer += count[0] < bound
    assert fewer > len(cases) // 2


def test_split_map_runs_its_second_elimination_when_read(monkeypatch):
    count = _counting_rref(monkeypatch)
    for h1 in _blocks(random.Random(63), F5):
        count[0] = 0
        s = split_map(h1)
        s.rank, s.kernel, s.comp, s.pker
        assert count[0] == 1
        s.rest, s.pi, s.sec, s.rest
        assert count[0] == 2


def _blocks(rng, f):
    # zero blocks, empty ones, blocks of full row and column rank, and
    # random products m x r x n of every rank r
    out = [Matrix.zeros(f, m, n) for m, n in ((0, 0), (0, 3), (3, 0), (2, 3))]
    for n in range(1, 4):
        g = random_invertible(rng, f, n)
        out += [g, g.row_block(0, n - 1), g.row_block(0, n - 1).transpose()]
    for _ in range(40):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        r = rng.randint(0, min(m, n))
        out.append(random_matrix(rng, f, m, r) @ random_matrix(rng, f, r, n))
    return out


def _check_split(f, h1, s):
    # the parts of a split against their defining identities, with the
    # nullity and corank from the oracle rank
    m, n, r = h1.rows, h1.cols, oracles.rank(h1)
    assert s.rank == r and (s.kernel.cols, s.comp.cols, s.rest.cols) == (n - r, r, m - r)
    assert (h1 @ s.kernel).is_zero and s.pker @ s.kernel == Matrix.identity(f, n - r)
    assert (s.pker @ s.comp).is_zero and oracles.rank(s.kernel.hstack(s.comp)) == n
    assert (s.pker @ s.sec).is_zero                   # sec maps into span(comp)
    assert h1 @ s.sec @ h1 == h1
    assert (s.pi @ h1).is_zero and s.pi @ s.rest == Matrix.identity(f, m - r)
    assert h1 @ s.sec + s.rest @ s.pi == Matrix.identity(f, m)


@pytest.mark.parametrize("f", [F2, F5, Q], ids=str)
def test_split_data_identities(f):
    # split_map and the five-elimination oracle both satisfy the identities
    for h1 in _blocks(random.Random(62), f):
        _check_split(f, h1, split_map(h1))
        _check_split(f, h1, oracles.adapted_split(h1))


@pytest.mark.parametrize("f", [F2, F5, Q], ids=str)
def test_split_map_matches_references(f):
    # the kernel is the one subspaces gives and rest the oracle complement
    # of the image; pi depends only on the image and rest, so it is the
    # oracle's too, while comp is e_P, the pivot columns of h1
    for h1 in _blocks(random.Random(64), f):
        s, ref = split_map(h1), oracles.adapted_split(h1)
        assert s.kernel == subspaces(h1).kernel == ref.kernel
        assert s.rest == oracles.complement(subspaces(h1).image, h1.rows) == ref.rest
        assert s.pi == ref.pi
        assert h1 @ s.comp == subspaces(h1).image


def test_cone_object_does_not_depend_on_the_kernel_complement(monkeypatch):
    # U reads the kernel, rest, pi and pker on the kernel only, so the
    # oracle split, with another complement of the kernel, builds the same
    # object byte for byte
    rng = random.Random(65)
    differ = 0
    for k in range(45):
        f = (F2, F5, Q)[k % 3]
        v = _with_rays(rng, f, random_seq(rng, f, max_bars=3, lo=-2, hi=2))
        w = _with_rays(rng, f, random_seq(rng, f, max_bars=3, lo=-2, hi=2))
        h = random_hat(rng, f, v, w)
        want = triang.cone_object(h)
        with monkeypatch.context() as m:
            m.setattr(triang, "split_map", oracles.adapted_split)
            got = triang.cone_object(h)
        assert got == want and repr(got) == repr(want)
        differ += any(split_map(m).comp != oracles.adapted_split(m).comp
                      for m in _stored_blocks(h.f1))
    assert differ >= 5


def test_cone_calls_no_solve(monkeypatch):
    # every map of the cone is read off the splits: no solve is left
    rng = random.Random(63)
    cases = []
    for k in range(24):
        f = (F2, F5, Q)[k % 3]
        v = _with_rays(rng, f, random_seq(rng, f, max_bars=3, lo=-2, hi=2))
        w = _with_rays(rng, f, random_seq(rng, f, max_bars=3, lo=-2, hi=2))
        h = random_hat(rng, f, v, w)
        cases.append((h, _parts(*cone(h))))

    def no_solve(*args):
        raise AssertionError("cone called solve")

    monkeypatch.setattr(triang, "solve", no_solve, raising=False)
    for h, want in cases:
        assert _parts(*cone(h)) == want


def test_cone_checks_kernel_is_preserved():
    # a HatMorphism built without hat's check: h1 kills V^0 but not d_V(V^0)
    for f in (F2, F5, Q):
        v = interval(f, 0, 1)
        w = direct_sum_seq(interval(f, 0, 0), interval(f, 1, 1))
        one = make_element(v, w, 0, 0, 1, lambda i: Matrix.identity(f, 1) if i == 1
                           else Matrix.zeros(f, w.dim(i), v.dim(i)))
        with pytest.raises(ValidationFailed, match="kernel is not preserved"):
            cone(HatMorphism(one, zero_element(v, w, 0)))


def _wide_eps(rng, v, w, pad=3):
    # a representative of an eps class that is not canonical: random
    # components on the base window widened by pad, zero beyond
    blo, bhi = base_window(v, w, 0)
    comps = {i: random_matrix(rng, v.field, w.dim(i), v.dim(i))
             for i in range(blo - pad, bhi + pad + 1)}
    return make_element(v, w, 0, blo - pad, bhi + pad, lambda i: comps.get(
        i, Matrix.zeros(v.field, w.dim(i), v.dim(i))))


@pytest.mark.parametrize("side,term", [(0, 0), (0, 1), (1, 0), (1, 1)])
def test_cone_window_terms_are_needed(monkeypatch, side, term):
    # moving any one term of _cone_window in by one degree changes some cone
    # with rays (or breaks it).  The f1 terms bind on every cone; the eps
    # terms never bind on a canonical eps part, whose window lies inside
    # [f1.lo - 1, f1.hi + 1], but they do on a HatMorphism built directly
    # with a wider representative
    rng = random.Random(64)
    cases = []
    for k in range(60):
        f = (F2, F5, Q)[k % 3]
        v = _with_rays(rng, f, random_seq(rng, f, max_bars=3, lo=-3, hi=3))
        w = _with_rays(rng, f, random_seq(rng, f, max_bars=3, lo=-3, hi=3))
        h = random_hat(rng, f, v, w)
        if k % 2:
            h = HatMorphism(h.f1, _wide_eps(rng, v, w))
        cases.append((h, _parts(*cone(h))))
    real = triang._cone_window

    def narrower(h):
        terms = [h.f1.lo - 1, h.feps.lo], [h.f1.hi + 2, h.feps.hi + 1]
        assert real(h) == (min(terms[0]), max(terms[1]))
        terms[side][term] += 1 if side == 0 else -1
        return min(terms[0]), max(terms[1])

    monkeypatch.setattr(triang, "_cone_window", narrower)
    changed = 0
    for h, want in cases:
        try:
            changed += _parts(*cone(h)) != want
        except ValidationFailed:
            changed += 1
    assert changed > 0


def test_splits_decides_nonzero_class_without_solving(monkeypatch):
    # the zero class and a nonzero one are both read off the canonical
    # representative: no elimination, no hom context looked up
    from dualseq import linalg
    cases = []
    for f in (F2, F5, Q):
        v = interval(f, 0, 0)
        cases += [(extension_from_eps(get_context(v, v).eps_basis()[0]), False),
                  (extension_from_eps(zero_element(v, v, 0)), True)]
    rrefs = []
    for mod in (linalg, hom):
        real = mod._rref
        monkeypatch.setattr(mod, "_rref",
                            lambda *a, real=real, **k: rrefs.append(a) or real(*a, **k))
    before = get_context.cache_info()
    assert [splits(e) is not None for e, _ in cases] == [split for _, split in cases]
    after = get_context.cache_info()
    assert not rrefs and (after.hits, after.misses) == (before.hits, before.misses)


def _window_coboundary(rng, x, y, ctx):
    """``d^-1(h)`` for a random h supported on ``L+1..R``, so supported on
    the hom window ``[L, R]``."""
    def fn(i):
        shape = (y.dim(i - 1), x.dim(i))
        if ctx.L < i <= ctx.R:
            return random_matrix(rng, x.field, *shape)
        return Matrix.zeros(x.field, *shape)
    return differential(make_element(x, y, -1, ctx.L, ctx.R, fn))


def test_splits_matches_the_solving_oracle():
    # random classes with rays, their representatives moved by coboundaries:
    # splits agrees with the d^-1 solve in verdict and in every stored field
    rng = random.Random(2401)
    done, split, rays, solved = {F2: 0, F5: 0, Q: 0}, 0, 0, 0
    while sum(done.values()) < 300 or split < 100:
        f = rng.choice([F2, F5, Q])
        x = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        y = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        ctx = get_context(x, y)
        if ctx.dim_eps == 0:
            continue
        coords = [f.coerce(rng.randint(0, 2)) if rng.random() < 0.5 else f.zero
                  for _ in range(ctx.dim_eps)]
        g = ctx.eps_from_coords(coords) + differential(random_graded_element(rng, x, y, -1))
        e = extension_from_eps(g)
        h, want = splits(e), oracles.splits(e)
        assert (h is None) == (want is None) == any(coords)
        if h is not None:
            assert oracles.stored(h) == oracles.stored(want)
            assert differential(h) == -e.feps
            # the oracle solves: a coboundary on the window needs a nonzero h
            raw = SimpleNamespace(x=x, y=y, feps=_window_coboundary(rng, x, y, ctx))
            assert oracles.splits(raw) is not None
            solved += not raw.feps.is_zero
            split += 1
        done[f] += 1
        rays += Tail.ISO in (x.left_tail, x.right_tail, y.left_tail, y.right_tail)
    assert min(done.values()) >= 50 and rays >= 100 and solved >= 50


def test_extension_class_refuses_a_representative_that_is_not_canonical():
    # a nonzero coboundary represents the zero class, so an extension on it
    # splits, but splits reads the canonical class off feps: the
    # constructor refuses any feps but the canonical one
    rng = random.Random(3)
    refused = 0
    while refused < 16:
        x = random_seq(rng, F5, max_bars=3, lo=-2, hi=2)
        y = random_seq(rng, F5, max_bars=3, lo=-2, hi=2)
        g = differential(random_graded_element(rng, x, y, -1))
        if g.is_zero:
            continue
        e = extension_from_eps(g)
        assert e.feps.is_zero and splits(dataclasses.replace(e)) is not None
        with pytest.raises(ValidationFailed, match="not its canonical class"):
            dataclasses.replace(e, feps=g)
        refused += 1
    # and an element of another hom space
    with pytest.raises(ValidationFailed, match="not its canonical class"):
        dataclasses.replace(e, feps=zero_element(x, y, -1))


def test_extension_class_canonicity_matches_the_reduction():
    # the constructor reads the pivots instead of reducing again: on
    # canonical classes, random representatives and canonical classes plus
    # a coboundary it accepts exactly the elements equal to their class
    rng = random.Random(66)
    seen = {True: 0, False: 0}
    for k in range(45):
        f = (F2, F5, Q)[k % 3]
        x = _with_rays(rng, f, random_seq(rng, f, max_bars=2, lo=-2, hi=2))
        y = _with_rays(rng, f, random_seq(rng, f, max_bars=2, lo=-2, hi=2))
        g = random_graded_element(rng, x, y)
        c = hom._eps_class(x, y, g.component)
        dh = differential(random_graded_element(rng, x, y, -1))
        for cand in (g, c, c + dh, zero_element(x, y, 0) + dh):
            want = cand == hom._eps_class(x, y, cand.component)
            assert hom._is_class(cand) == want
            seen[want] += 1
    assert min(seen.values()) >= 40, seen


def test_triangle_endpoint_validation():
    v = interval(F2, 0, 1)
    w = interval(F2, 1, 2)
    with pytest.raises(ValidationFailed):
        Triangle(v, v, v, identity_hat(v), identity_hat(v), identity_hat(v))


def test_extension_class_roundtrip_interval():
    # the ses attached to an eps class recovers that class as its connecting
    # morphism, exactly
    rng = random.Random(54)
    pairs = [((0, 0), (0, 0)), ((0, 1), (1, 1)), ((1, 1), (1, 2)),
             ((0, 0), (0, 2))]
    for f in (F2, F5):
        for (a1, b1), (a2, b2) in pairs:
            v = interval(f, a1, b1)
            w = interval(f, a2, b2)
            ctx = get_context(v, w)
            if ctx.dim_eps == 0:
                continue
            g = ctx.eps_basis()[0]
            e = extension_from_eps(g)
            tri = triangle_from_ses(e.incl, e.proj)
            assert tri.w.feps == hat_eps(g).feps


def test_splits_iff_zero_class():
    from dualseq.graded import zero_element
    for f in (F2, F5, Q):
        v = interval(f, 0, 0)
        ctx = get_context(v, v)
        e = extension_from_eps(ctx.eps_basis()[0])
        assert splits(e) is None
        e0 = extension_from_eps(zero_element(v, v, 0))
        assert splits(e0) is not None


def test_split_extension_total_is_sum():
    v = interval(F2, 0, 1)
    w = interval(F2, 0, 1)
    from dualseq.graded import zero_element
    e = extension_from_eps(zero_element(v, w, 0))
    assert is_isomorphic(e.total, direct_sum_seq(v, shift(w, -1)))


def test_extension_of_s00_by_s00_is_s01():
    # gluing two point intervals along the nonzero eps class gives S_{0,1}
    v = interval(F5, 0, 0)
    ctx = get_context(v, v)
    e = extension_from_eps(ctx.eps_basis()[0])
    assert is_isomorphic(e.total, interval(F5, 0, 1))


def test_triangle_refuses_wrong_endpoints():
    tri = cone_triangle(identity_hat(interval(F5, 0, 1)))
    far = interval(F5, 5, 5)
    for change, name in (({"a": far}, "u must run a -> b"), ({"c": far}, "v must run b -> c"),
                         ({"w": zero_hat(tri.c, far)}, "w must run c -> shift")):
        with pytest.raises(ValidationFailed, match=name):
            dataclasses.replace(tri, **change)


def test_triangle_from_ses_refuses_a_first_map_with_a_kernel():
    # 0 : A -> B followed by the identity of B kills A in degree 0
    a = b = interval(F5, 0, 0)
    with pytest.raises(NotExact, match="first map is not injective at degree 0"):
        triangle_from_ses(zero_hat(a, b), identity_hat(b))


def test_triangle_from_ses_rejects_nonexact():
    v = interval(F2, 0, 1)
    with pytest.raises(NotExact):
        # identity followed by identity is not exact in the middle
        triangle_from_ses(identity_hat(v), identity_hat(v))


def test_triangle_from_ses_rejects_eps_maps():
    v = interval(F2, 0, 0)
    ctx = get_context(v, v)
    e = hat_eps(ctx.eps_basis()[0])
    with pytest.raises(ValidationFailed):
        triangle_from_ses(e, identity_hat(v))


def test_truncation_shapes():
    v = interval(F2, 0, 3)
    above = truncate_above(v, 2)
    assert [above.dim(i) for i in range(0, 5)] == [0, 0, 1, 1, 0]
    below = truncate_below(v, 2)
    assert [below.dim(i) for i in range(0, 5)] == [1, 1, 0, 0, 0]


def test_truncation_morphisms_compose_to_zero():
    v = interval(F5, -1, 2)
    inc = truncation_inclusion(v, 1)
    proj = truncation_projection(v, 1)
    assert compose_hat(proj, inc).is_zero or compose_hat(inc, proj).is_zero


def test_truncation_triangle_verifies():
    rng = random.Random(55)
    for _ in range(8):
        f = rng.choice([F2, F5, Q])
        v = random_seq(rng, f, max_bars=3, lo=-2, hi=2)
        n = rng.randint(-1, 2)
        tri = truncation_triangle(v, n)
        tri.verify()


def test_truncation_connecting_class_nonzero():
    # V = S_{0,1} truncated at 1: the connecting morphism carries the bottom
    # part S_{0,0} into the shifted top part with coefficient -1
    for f in (F2, F5, Q):
        v = interval(f, 0, 1)
        tri = truncation_triangle(v, 1)
        assert tri.w.is_type_eps and not tri.w.is_zero
        comp = tri.w.feps.component(0)
        assert comp.rows == comp.cols == 1
        assert comp.entry(0, 0) == f.coerce(-1)


def test_truncation_of_glued_vs_split():
    # truncating S_{0,1} separates the bar; the middle object of the
    # triangle still carries the glued bar, the split sum does not
    v = interval(F5, 0, 1)
    tri = truncation_triangle(v, 1)
    assert decompose(tri.b).counts() == decompose(v).counts()
    top = truncate_above(v, 1)
    bottom = truncate_below(v, 1)
    assert tri.a == top and tri.c == bottom
    assert decompose(direct_sum_seq(top, bottom)).counts() != \
        decompose(v).counts()


def _connecting(v, n):
    """f: truncate_below(v, n) -> shift(truncate_above(v, n), 1), zero
    except f^(n-1) = -d_V^(n-1), as a component function."""
    x, y = truncate_below(v, n), shift(truncate_above(v, n), 1)

    def fn(i):
        return -v.map_at(n - 1) if i == n - 1 else Matrix.zeros(v.field, y.dim(i), x.dim(i))

    return x, y, fn


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_truncation_triangle_is_its_extension_triangle(field):
    # v is glued from its two truncations along -d_V^(n-1), and the closed
    # form triangle is the one triangle_from_ses solves for, part by part
    rng = random.Random(62)
    for _ in range(25):
        v = _with_rays(rng, field, random_seq(rng, field, max_bars=3, lo=-2, hi=2))
        n = rng.randint(v.lo - 2, v.hi + 2)
        x, y, fn = _connecting(v, n)
        lo, hi = min(v.lo, n) - 2, max(v.hi, n) + 2
        assert glue(field, lo, hi, x.dim, y.dim, x.map_at, y.map_at, fn, (x, y)) == v
        tri = truncation_triangle(v, n)
        want = triangle_from_ses(truncation_inclusion(v, n), truncation_projection(v, n))
        for part in ("a", "b", "c", "u", "v", "w"):
            assert getattr(tri, part) == getattr(want, part), part


def test_truncation_triangle_solves_nothing(monkeypatch):
    # the connecting class is read off d_V^(n-1): no rank, no solve
    def boom(*args):
        raise AssertionError("truncation_triangle solved for its connecting class")

    for name in ("triangle_from_ses", "split_map"):
        monkeypatch.setattr(triang, name, boom)
    for f in (F2, F5, Q):
        truncation_triangle(interval(f, -INF, 1), 1).verify()


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_split_extension_is_the_direct_sum(field):
    # the extension along the zero class and the direct sum are one glue
    rng = random.Random(63)
    for _ in range(25):
        x = _with_rays(rng, field, random_seq(rng, field, max_bars=2, lo=-2, hi=2))
        y = _with_rays(rng, field, random_seq(rng, field, max_bars=2, lo=-2, hi=2))
        e = extension_from_eps(zero_element(x, y, 0))
        assert e.total == direct_sum_seq(x, shift(y, -1))


def test_cone_shift_consistency():
    # the wrapped shift really is inverse to shifting back
    v = interval(F2, 0, 2)
    assert shift(shift(v, -1), 1) == v


# -- Triangle.verify: the three composites, decided without building them ---


def _eps_unit(a, b):
    """The one eps basis morphism ``a -> b``."""
    ctx = get_context(a, b)
    assert ctx.dim_eps == 1
    return ctx.eps_hat([1])


def _failing_triangle(field, name):
    # v.u: the identity twice; w.v: the eps unit [0,1] -> shift([2,3], 1)
    # after the identity; the rotation: the eps unit after shift(id, 1)
    x, a = interval(field, 0, 1), interval(field, 2, 3)
    if name == "v.u":
        return Triangle(x, x, x, identity_hat(x), identity_hat(x), zero_hat(x, shift(x, 1)))
    e = _eps_unit(x, shift(a, 1))
    assert e.is_type_eps and not e.is_zero
    if name == "w.v":
        return Triangle(a, x, x, zero_hat(a, x), identity_hat(x), e)
    return Triangle(a, a, x, identity_hat(a), zero_hat(a, x), e)


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
@pytest.mark.parametrize("name", ["v.u", "w.v", "shift(u).w"])
def test_verify_names_the_composite_that_does_not_vanish(field, name):
    tri = _failing_triangle(field, name)
    with pytest.raises(ValidationFailed, match=re.escape(f"triangle: {name} does not vanish")):
        tri.verify()


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_verify_reads_the_tails_of_a_raw_morphism(field):
    # a raw v: X -> X zero on its stored window but the identity beyond it,
    # on both rays of X: v.u has its nonzero blocks only in the tails
    x = direct_sum_seq(interval(field, -INF, 0), interval(field, 1, INF))
    lo, hi = base_window(x, x, 0)
    for side in (-1, 1):
        def fn(i, side=side):
            beyond = i < lo if side < 0 else i > hi
            return (Matrix.identity(field, x.dim(i)) if beyond
                    else Matrix.zeros(field, x.dim(i), x.dim(i)))

        v = HatMorphism(make_element(x, x, 0, lo, hi, fn), zero_element(x, x, 0))
        assert not v.is_zero and all(m.is_zero for m in v.f1.comps)
        tri = Triangle(x, x, x, identity_hat(x), v, zero_hat(x, shift(x, 1)))
        with pytest.raises(ValidationFailed, match=re.escape("triangle: v.u does not vanish")):
            tri.verify()


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_a_coboundary_eps_part_vanishes(field):
    # w: Y -> shift(Z, 1) whose raw eps part is a coboundary d(x): w o id_Y
    # has the blocks of d(x), nonzero window coordinates, but the zero class;
    # so has a cone triangle whose last map carries such a coboundary
    rng = random.Random(64)
    done = 0
    while done < 6:
        y, z = (_with_rays(rng, field, random_seq(rng, field, max_bars=2, lo=-2, hi=2))
                for _ in range(2))
        z1 = shift(z, 1)
        d = differential(random_graded_element(rng, y, z1, -1))
        if not any(coords_of(d.component, *hom_window(y, z1))):
            continue
        w = HatMorphism(zero_element(y, z1, 0), d)
        assert oracles.vanishes(w, identity_hat(y))
        Triangle(z, y, y, zero_hat(z, y), identity_hat(y), w).verify()
        h = random_hat(rng, field, y, z)
        tri = cone_triangle(h)
        dh = differential(random_graded_element(rng, y, z, -1))
        Triangle(tri.a, tri.b, tri.c, tri.u, tri.v, HatMorphism(h.f1, h.feps + dh)).verify()
        done += 1


def test_verify_builds_no_element(monkeypatch):
    rng = random.Random(65)
    tris = [truncation_triangle(interval(f, -INF, 1), 1) for f in (F2, F5, Q)]
    for f in (F2, F5, Q):
        for _ in range(4):
            v, w = (_with_rays(rng, f, random_seq(rng, f, max_bars=3, lo=-2, hi=2))
                    for _ in range(2))
            tris.append(cone_triangle(random_hat(rng, f, v, w)))
    assert any(not t.u.is_type_one for t in tris)

    def boom(*args):
        raise AssertionError("Triangle.verify built a composite")

    for module in (graded, hom, triang):
        for name in ("compose", "shift_element", "compose_hat", "shift_hat"):
            monkeypatch.setattr(module, name, boom, raising=False)
    built, real = [], GradedHomElement.__post_init__
    monkeypatch.setattr(GradedHomElement, "__post_init__",
                        lambda self: built.append(self) or real(self))
    for tri in tris:
        tri.verify()
    assert not built
