import math
import random

import pytest

from dualseq.barcode import Interval, assemble, make_barcode
from dualseq.errors import ValidationFailed
from dualseq.gen import random_barcode, random_seq
from dualseq.io import parse_document
from dualseq.linalg import Field, Matrix
from dualseq.seq import (NEG_INF, POS_INF, Seq, Tail, direct_sum_seq, interval,
                         make_seq, shift, signed_identity, zero_seq)

F2 = Field(2)
F5 = Field(5)
Q = Field(None)


def test_make_seq_trims_zero_margins():
    v = make_seq(F2, 0, (0, 1, 0), [Matrix.zeros(F2, 1, 0),
                                    Matrix.zeros(F2, 0, 1)],
                 Tail.ZERO, Tail.ZERO)
    assert (v.lo, v.hi) == (1, 1)
    assert v.dims == (1,)


def test_zero_seq_dims():
    z = zero_seq(F5)
    assert z.dim(-3) == 0 and z.dim(7) == 0
    assert z.left_tail is Tail.ZERO and z.right_tail is Tail.ZERO


def test_interval_finite():
    v = interval(F5, 0, 2)
    assert [v.dim(i) for i in range(-1, 4)] == [0, 1, 1, 1, 0]
    # interior transitions carry the sign (-1)^i
    assert v.map_at(0).entry(0, 0) == F5.coerce(1)
    assert v.map_at(1).entry(0, 0) == F5.coerce(-1)


def test_interval_rays():
    r = interval(F2, 0, math.inf)
    assert r.right_tail is Tail.ISO and r.left_tail is Tail.ZERO
    assert r.dim(100) == 1 and r.dim(-1) == 0
    l = interval(F2, -math.inf, 0)
    assert l.left_tail is Tail.ISO
    assert l.dim(-100) == 1 and l.dim(1) == 0
    full = interval(F2, -math.inf, math.inf)
    assert full.dim(50) == 1 and full.dim(-50) == 1


def test_interval_rejects_reversed():
    with pytest.raises(ValidationFailed):
        interval(F2, 2, 0)


def test_iso_tail_requires_constant_boundary():
    # an iso right tail forces the boundary transition to be (-1)^i id
    v = interval(F2, 0, math.inf)
    k = v.map_at(v.hi)
    assert k.rows == k.cols == 1


def test_shift_window_and_signs():
    v = interval(F5, 0, 2)
    w = shift(v, 1)
    assert (w.lo, w.hi) == (-1, 1)
    assert w.map_at(-1) == v.map_at(0).scale(F5.coerce(-1))
    back = shift(w, -1)
    assert back == v


def test_shift_double_is_identity_on_random():
    rng = random.Random(11)
    for _ in range(20):
        f = rng.choice([F2, F5, Q])
        v = random_seq(rng, f, max_bars=4, lo=-3, hi=3)
        for n in (-2, -1, 1, 3):
            assert shift(shift(v, n), -n) == v


def test_direct_sum_dims():
    v = interval(F2, 0, 1)
    w = interval(F2, 1, 2)
    s = direct_sum_seq(v, w)
    assert [s.dim(i) for i in range(0, 3)] == [1, 2, 1]


def test_direct_sum_with_iso_tails():
    v = interval(F2, 0, math.inf)
    w = interval(F2, -math.inf, 0)
    s = direct_sum_seq(v, w)
    assert s.dim(0) == 2 and s.dim(5) == 1 and s.dim(-5) == 1
    assert s.left_tail is Tail.ISO and s.right_tail is Tail.ISO


def test_map_shape_validation():
    with pytest.raises(ValidationFailed):
        make_seq(F2, 0, (1, 1), [Matrix.zeros(F2, 2, 1)], Tail.ZERO, Tail.ZERO)


def test_make_seq_checks_shapes_before_trimming():
    # degree 0 is trimmed under the Zero tail; its map is still checked
    with pytest.raises(ValidationFailed, match="shape 5x7, expected 1x0"):
        make_seq(F2, 0, (0, 1), [Matrix.zeros(F2, 5, 7)], Tail.ZERO, Tail.ZERO)
    with pytest.raises(ValidationFailed, match="wrong field"):
        make_seq(F2, 0, (0, 1), [Matrix.zeros(F5, 1, 0)], Tail.ZERO, Tail.ZERO)


def test_far_transitions_signed_identity():
    v = interval(F5, -math.inf, math.inf)
    for i in (-7, -4, 6):
        m = v.map_at(i)
        want = F5.coerce((-1) ** i)
        assert m.entry(0, 0) == want


# -- one normal form -----------------------------------------------------------


def _matrix_text(m):
    return "[" + ", ".join("[" + ", ".join(str(x) for x in row) + "]"
                           for row in m.to_lists()) + "]"


@pytest.mark.parametrize("f", [F2, F5, Q], ids=["F2", "F5", "Q"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_constant_iso_sequence_is_one_seq(f, n):
    # the constant Iso-Iso sequence has no finite structure: however it is
    # declared, its window is [0,0]
    want = Seq(f, 0, 0, (n,), (), Tail.ISO, Tail.ISO)
    if n == 1:
        assert interval(f, NEG_INF, POS_INF) == want
    field_text = "Q" if f.p is None else str(f.p)
    for lo in range(-3, 4):
        for hi in range(lo, 4):
            maps = [signed_identity(f, n, i) for i in range(lo, hi)]
            v = make_seq(f, lo, (n,) * (hi - lo + 1), maps, Tail.ISO, Tail.ISO)
            assert v == want
            for k in (-2, -1, 1, 2):
                assert shift(v, k) == want
            text = (f"field {field_text}\nseq V {{ window {lo} {hi} "
                    f"dims {' '.join([str(n)] * (hi - lo + 1))} "
                    + "".join(f"map {lo + t} {_matrix_text(m)} " for t, m in enumerate(maps))
                    + "tails iso iso }")
            assert parse_document(text).seq("V") == want


def _shifted(bc, k):
    """The barcode of ``shift(assemble(bc), k)``: every bar moves down by k."""
    return make_barcode(bc.field, [Interval(iv.a - k if isinstance(iv.a, int) else iv.a,
                                            iv.b - k if isinstance(iv.b, int) else iv.b)
                                   for iv in bc.intervals])


def test_shift_moves_bars_on_the_nose():
    rng = random.Random(17)
    barcodes = []
    for f in (F2, F5, Q):
        barcodes += [random_barcode(rng, f, max_bars=4, lo=-3, hi=3) for _ in range(15)]
        barcodes += [make_barcode(f, [Interval(NEG_INF, POS_INF)] * m) for m in (1, 2, 3)]
    for bc in barcodes:
        v = assemble(bc)
        for k in (-3, -2, -1, 1, 2, 3):
            assert shift(v, k) == assemble(_shifted(bc, k))
            assert shift(shift(v, k), -k) == v


def test_make_seq_ignores_padding_with_tail_degrees():
    # materializing past the window pads with tail degrees: zero spaces under
    # a Zero tail, signed identities under an Iso tail
    rng = random.Random(23)
    seqs = [assemble(make_barcode(f, [Interval(NEG_INF, POS_INF)] * m))
            for f in (F2, F5, Q) for m in (1, 2)]
    for _ in range(120):
        f = rng.choice([F2, F5, Q])
        seqs.append(random_seq(rng, f, max_bars=4, lo=-3, hi=3,
                               scrambled=rng.random() < 0.5))
    for v in seqs:
        lo, hi = v.lo - rng.randint(0, 3), v.hi + rng.randint(0, 3)
        dims = [v.dim(i) for i in range(lo, hi + 1)]
        maps = [v.map_at(i) for i in range(lo, hi)]
        assert make_seq(v.field, lo, dims, maps, v.left_tail, v.right_tail) == v


@pytest.mark.parametrize("a,b,message", [
    (0.5, 1, "bad interval endpoint: 0.5"),
    (0, 0.5, "bad interval endpoint: 0.5"),
    (-math.inf, "1", "bad interval endpoint: '1'"),
    (0, -math.inf, "bad interval endpoint: -inf"),
])
def test_interval_endpoint_refusals(a, b, message):
    with pytest.raises(ValidationFailed) as exc:
        interval(F5, a, b)
    assert str(exc.value) == message
