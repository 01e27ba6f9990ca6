"""Triangles: cones, extensions, short exact sequences, truncations."""

import math
import random

import pytest

from dualseq.barcode import decompose, is_isomorphic
from dualseq.errors import NotExact, ValidationFailed
from dualseq.gen import random_graded_element, random_seq
from dualseq.graded import make_element, zero_element
from dualseq import triang
from dualseq.hom import (HatMorphism, compose_hat, get_context, hat, hat_eps,
                         identity_hat, zero_hat)
from dualseq.io import parse_document
from dualseq.linalg import Field, Matrix, block_matrix
from dualseq.seq import Tail, direct_sum_seq, interval, make_seq, shift, zero_seq
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


def test_split_data_once_per_block(monkeypatch):
    calls, degrees = [], set()
    real_subspaces, real_at = triang.subspaces, triang._SplitData.at

    def at(self, i):
        degrees.add(i)
        return real_at(self, i)

    monkeypatch.setattr(triang, "subspaces", lambda m: calls.append(m) or real_subspaces(m))
    monkeypatch.setattr(triang._SplitData, "at", at)
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
        f1 = h.f1
        assert len(calls) == len(set(calls)) == len({*f1.comps, *f1.ltail, *f1.rtail})
        blocks += len(calls)
        visited += len(degrees)
    # the cone visits more than twice as many degrees as it splits blocks
    assert visited > 2 * blocks, (visited, blocks)


def test_splits_decides_nonzero_class_without_solving(monkeypatch):
    from dualseq.graded import zero_element
    solves = []
    real_solve = triang.solve
    monkeypatch.setattr(triang, "solve", lambda a, b: solves.append(a) or real_solve(a, b))
    for f in (F2, F5, Q):
        v = interval(f, 0, 0)
        ctx = get_context(v, v)
        e = extension_from_eps(ctx.eps_basis()[0])
        assert splits(e) is None and not solves
        assert splits(extension_from_eps(zero_element(v, v, 0))) is not None
        assert len(solves) == 1
        solves.clear()


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


def test_cone_shift_consistency():
    # the wrapped shift really is inverse to shifting back
    v = interval(F2, 0, 2)
    assert shift(shift(v, -1), 1) == v
