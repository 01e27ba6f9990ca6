"""Document grammar and JSON serialization."""

import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest

from dualseq.barcode import decompose
from dualseq.config import MAX_SPAN
from dualseq.errors import ParseError, ValidationFailed
from dualseq.gen import random_eps_complex, random_seq
from dualseq.hom import identity_hat
from dualseq.io import (barcode_from_json, barcode_to_json, complex_from_json,
                        complex_to_json, field_from_json, field_to_json,
                        matrix_from_json, parse_document, report_json, seq_from_json,
                        seq_to_json)
from dualseq.linalg import Field
from dualseq.seq import interval

F2 = Field(2)
F5 = Field(5)
Q = Field(None)

DOC = """
# comments run to end of line
field 5

seq V {
  window 0 2
  dims 1 2 1
  map 0 [[1], [2]]
  map 1 [[3, 1]]
  tails zero zero
}

seq Ray { interval 0 inf }
seq Point { interval 0 0 }

complex C {
  degree 0
  ranks 1 1
  deps 0 [[1]]
}

mor id_pt : Point -> Point {
  window 0 0
  one 0 [[1]]
}

diagram D {
  objects Point
  gen i : Point -> Point = id_pt
  rel i i = i
}

derivation Z on D { }
"""


def test_parse_document_sections():
    doc = parse_document(DOC)
    assert set(doc.seqs) == {"V", "Ray", "Point"}
    assert set(doc.complexes) == {"C"}
    assert doc.morphism("id_pt") == identity_hat(doc.seq("Point"))
    assert doc.seq("Ray") == interval(F5, 0, math.inf)
    assert "D" in doc.diagrams and "Z" in doc.derivations


def test_parse_rational_field():
    doc = parse_document("field Q\nseq A { window 0 1 dims 1 1 map 0 [[1/2]] }")
    from fractions import Fraction
    assert doc.seq("A").map_at(0).entry(0, 0) == Fraction(1, 2)


@pytest.mark.parametrize("text,frag", [
    ("field 4", "prime"),
    ("field Q\nseq A { dims 1 }", "window"),
    ("field Q\nseq A { window 1 0 dims 1 }", "window"),
    ("field Q\nseq A { window 0 1 dims 1 1 map 0 [[1, 2]] }", "1 x 1"),
    ("field Q\nseq A { window 0 1 dims 1 1 tails iso sideways }", "zero or iso"),
    ("field Q\nmor f : A -> B { }", "unknown sequence"),
    ("field Q\nseq A { interval 1 0 }", ""),
    ("field Q\nwat A { }", "declaration"),
    ("field Q\nseq A { window 0 0 dims 1 } %", "unexpected"),
])
def test_parse_errors(text, frag):
    with pytest.raises((ParseError, ValidationFailed)) as exc:
        parse_document(text)
    assert frag.lower() in str(exc.value).lower()


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_document("field 2\nseq A {\n  window 0 1\n  dims 1 1\n  map 5 [[1]]\n}")
    assert exc.value.line == 5
    assert "outside window" in str(exc.value)


RAY2 = "field 5\nseq X { window 0 1  dims 1 2  tails zero iso }\n"


def test_constant_tail_rejects_shape_change():
    # the 1 x 1 block at degree 0 cannot repeat into the 2 x 2 degrees above
    with pytest.raises(ParseError, match="tails constant") as exc:
        parse_document(RAY2 + "mor f : X -> X { window 0 0  one 0 [[1]]  tails constant }")
    assert (exc.value.line, exc.value.col) == (3, 49)


@pytest.mark.parametrize("mor", [
    # repeats only into shapes with no entries: an identity on a zero-tailed
    # sequence, like the `ix` morphisms of the CLI benchmark documents
    "seq P { interval 0 1 }\nmor f : P -> P { window 0 1  one 0 [[1]]  one 1 [[1]]"
    "  tails constant }",
    # a zero boundary block repeats as zero in any shape
    "mor f : X -> X { window 0 0  one 0 [[0]]  tails constant }",
])
def test_constant_tail_into_empty_or_from_zero(mor):
    doc = parse_document(RAY2 + mor)
    f = doc.morphism("f")
    assert f.f1.component(-1).data == ()
    assert f.f1.component(3).is_zero


@pytest.mark.parametrize("text,line,col", [
    ("field 5\nseq A { interval 0 1 }\n  seq A { interval 0 2 }", 3, 3),
    ("field 5\ncomplex C { ranks 1 }\ncomplex C { ranks 2 }", 3, 1),
    ("field 5\nseq P { interval 0 0 }\nmor f : P -> P { window 0 0 one 0 [[1]] }\n"
     "mor f : P -> P { }", 4, 1),
    ("field 5\nseq P { interval 0 0 }\ndiagram D { objects P }\ndiagram D { }", 4, 1),
    ("field 5\nseq P { interval 0 0 }\ndiagram D { objects P }\n"
     "derivation Z on D { }\nderivation Z on D { }", 5, 1),
    ("field 5\nseq A { interval 0 1 }\ncomplex A { ranks 1 }", 3, 1),
])
def test_parse_duplicate_name(text, line, col):
    # a second declaration of a name would silently replace the first, or,
    # under another kind, shadow it for commands that look in both
    with pytest.raises(ParseError, match="declared twice") as exc:
        parse_document(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_complex_validated_on_load():
    bad = ("field 5\ncomplex C { degree 0 ranks 1 2 1"
           " d1 0 [[1], [0]] d1 1 [[0, 1]] deps 1 [[1, 0]] }")
    with pytest.raises(ValidationFailed):
        parse_document(bad)


def test_seq_json_roundtrip_random():
    rng = random.Random(81)
    for _ in range(25):
        f = rng.choice([F2, F5, Q])
        v = random_seq(rng, f, max_bars=4, lo=-3, hi=3)
        assert seq_from_json(seq_to_json(v), f) == v


def test_seq_json_missing_key():
    data = seq_to_json(interval(F5, 0, 1))
    del data["window"]
    with pytest.raises(ValidationFailed, match="window"):
        seq_from_json(data, F5)


def test_seq_json_unknown_tail():
    data = seq_to_json(interval(F5, 0, 1))
    data["tails"] = ["zero", "bogus"]
    with pytest.raises(ValidationFailed, match="bogus"):
        seq_from_json(data, F5)
    data["tails"] = [["iso"], "zero"]
    with pytest.raises(ValidationFailed):
        seq_from_json(data, F5)


@pytest.mark.parametrize("window,dims,maps,tails", [
    ([0, 1], [1], [], ["zero", "zero"]),                 # window longer than dims
    ([0, 0], [1, 1], [[[1]]], ["zero", "zero"]),         # dims longer than window
    ([0, 1], [1, 1], [[[1]], [[1]]], ["zero", "zero"]),  # one map too many
    (3, [1], [], ["zero", "zero"]),                      # window not a list
    ([0, 0], 1, [], ["zero", "zero"]),                   # dims not a list
    ([0, 1], [1, 1], {"0": [[1]]}, ["zero", "zero"]),    # maps not a list
    ([0, 0], [1], [], "zero"),                           # tails not a list
    (["a", 0], [1], [], ["zero", "zero"]),               # window entry not an int
    ([0, 0.5], [1], [], ["zero", "zero"]),               # window entry a float
    ([0, 1], [1, "x"], [[[1]]], ["zero", "zero"]),       # dim not an int
    ([0, 0], [0.5], [], ["zero", "zero"]),               # dim a float
    ([0, 0], [-1], [], ["zero", "zero"]),                # negative dim
    ([0, 1], [1, 1], [5], ["zero", "zero"]),             # map not a matrix
    ([0, 1], [1, 1], [[["x"]]], ["zero", "zero"]),       # matrix entry not a number
])
def test_seq_json_shape_mismatch(window, dims, maps, tails):
    data = {"window": window, "dims": dims, "maps": maps, "tails": tails}
    with pytest.raises(ValidationFailed):
        seq_from_json(data, F5)


@pytest.mark.parametrize("data", [3, None, [[0, 0], [1], [], ["zero", "zero"]]])
def test_seq_json_not_an_object(data):
    with pytest.raises(ValidationFailed):
        seq_from_json(data, F5)


def test_complex_json_roundtrip_random():
    rng = random.Random(82)
    for _ in range(15):
        f = rng.choice([F2, F5, Q])
        c = random_eps_complex(rng, f, max_len=5, max_rank=3)
        assert complex_from_json(complex_to_json(c), f) == c


@pytest.mark.parametrize("data", [
    {},                                                         # missing keys
    [],                                                         # not an object
    None,
    {"degree": 0, "ranks": [1], "d1": []},                      # missing deps
    {"degree": 0, "ranks": "ab", "d1": [], "deps": []},         # ranks not a list
    {"degree": 0, "ranks": [1, 1], "d1": {}, "deps": [[[0]]]},  # d1 not a list
    {"degree": "0", "ranks": [1], "d1": [], "deps": []},        # degree not an int
    {"degree": True, "ranks": [1], "d1": [], "deps": []},       # degree a bool
    {"degree": 0, "ranks": [1, "x"], "d1": [[[0]]], "deps": [[[0]]]},
    {"degree": 0, "ranks": [1, False], "d1": [[]], "deps": [[]]},
    {"degree": 0, "ranks": [1.0], "d1": [], "deps": []},
    {"degree": 0, "ranks": [1, 1], "d1": [], "deps": [[[0]]]},  # d1 count
    {"degree": 0, "ranks": [1, 1], "d1": [[[0]]], "deps": []},  # deps count
    {"degree": 0, "ranks": [1], "d1": [[[0]]], "deps": [[[0]]]},
    {"degree": 0, "ranks": [], "d1": [], "deps": []},           # no ranks
])
def test_complex_json_malformed(data):
    with pytest.raises(ValidationFailed):
        complex_from_json(data, F5)


@pytest.mark.parametrize("data", [
    {},                                  # missing key
    [],                                  # not an object
    "intervals",
    {"intervals": 5},                    # not a list
    {"intervals": [[1]]},                # interval not a pair
    {"intervals": [[0, 1, 2]]},
    {"intervals": ["ab"]},
    {"intervals": [[0, "abc"]]},         # only "inf" and "-inf" are endpoints
    {"intervals": [["-x", 2]]},
    {"intervals": [["inf", 2]]},         # +inf cannot start a bar
    {"intervals": [[True, 2]]},          # a bool is not an integer
    {"intervals": [[0, 1.5]]},
    {"intervals": [[0, None]]},
    {"intervals": [[2, 1]]},             # out of order
])
def test_barcode_json_malformed(data):
    with pytest.raises(ValidationFailed):
        barcode_from_json(data, F5)


def test_barcode_json_infinite_endpoints():
    bc = barcode_from_json({"intervals": [["-inf", 0], [1, "inf"], ["-inf", "inf"]]}, F5)
    assert sorted(map(str, bc.intervals)) == ["[-inf,0]", "[-inf,inf]", "[1,inf]"]


def test_barcode_json_roundtrip():
    rng = random.Random(83)
    for _ in range(15):
        f = rng.choice([F2, F5])
        v = random_seq(rng, f, max_bars=5, lo=-3, hi=3)
        bc = decompose(v, with_certificate=False)
        assert barcode_from_json(barcode_to_json(bc), f) == bc


@pytest.mark.parametrize("entry,field", [
    (1.5, F5),                  # read as 1 by int()
    (2.7, Q),                   # read as 2 by int()
    (True, F5),                 # a bool is not an integer
    (json.loads("1e400"), F5),  # inf: int() raised OverflowError
    ("1.5", Q),                 # decimal strings are not "a/b"
    ("1/0", Q),
    ("2/5", F5),                # denominator not invertible mod 5
    (None, F5),
    ([1], F5),
], ids=["float-F5", "float-Q", "bool", "inf", "decimal-string", "zero-denominator",
        "denominator-mod-p", "null", "list"])
def test_matrix_json_refuses_non_scalars(entry, field):
    with pytest.raises(ValidationFailed, match="bad matrix entry|denominator"):
        matrix_from_json([[entry]], field, 1, 1)


@pytest.mark.parametrize("entry,field,want", [
    (7, F5, 2), (-1, F5, 4), (10**400, F5, 0), ("3/2", F5, 4), ("-3/4", Q, Fraction(-3, 4)),
    ("6", Q, Fraction(6)),
], ids=["int", "negative", "huge", "fraction-mod-p", "fraction", "int-string"])
def test_matrix_json_reads_integers_and_fractions(entry, field, want):
    assert matrix_from_json([[entry]], field, 1, 1).data == (want,)


def test_seq_json_negative_dims_refused_before_maps():
    data = seq_to_json(interval(F5, 0, 1))
    data["dims"] = [-1, 1]
    with pytest.raises(ValidationFailed, match="dims must be integers >= 0"):
        seq_from_json(data, F5)


def test_complex_json_negative_ranks_refused_before_maps():
    data = {"degree": 0, "ranks": [1, -1], "d1": [[[0]]], "deps": [[[0]]]}
    with pytest.raises(ValidationFailed, match="ranks must be integers >= 0"):
        complex_from_json(data, F5)


def test_json_payload_is_valid_json():
    v = interval(Q, 0, 1)
    s = report_json({"object": seq_to_json(v)})
    data = json.loads(s)
    assert data["schema"] == 1
    assert data["object"]["window"] == [0, 1]


def test_rational_entries_serialized_as_strings():
    doc = parse_document("field Q\nseq A { window 0 1 dims 1 1 map 0 [[-2/3]] }")
    j = seq_to_json(doc.seq("A"))
    assert j["maps"][0][0][0] == "-2/3"
    back = seq_from_json(j, Q)
    assert back.map_at(0).entry(0, 0) == Fraction(-2, 3)


@pytest.mark.parametrize("field", [F2, F5, Q], ids=["F2", "F5", "Q"])
def test_field_json_roundtrip(field):
    assert field_from_json(field_to_json(field)) == field


@pytest.mark.parametrize("data", ["abc", "5", "q", None, [5], {}, 2.7, 5.0,
                                  True, False, 4, 1, 0, -3, 2**31 + 11])
def test_field_json_malformed(data):
    with pytest.raises(ValidationFailed):
        field_from_json(data)


# -- the span limit -----------------------------------------------------


def _refused_before_building(fn):
    # the limit is checked before anything grows with the span: the whole
    # call stays far below the memory one degree per entry would take
    tracemalloc.start()
    try:
        with pytest.raises(ValidationFailed, match=f"more than the limit of {MAX_SPAN}"):
            fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("body", [
    "seq P { interval 0 100000000 }",
    "seq P { interval -100000000 0 }",
    "seq V { window 0 100000000 dims 1 }",
    "seq V { interval 0 0 }\nmor m : V -> V { window -100000000 0 }",
])
def test_document_span_limit(body):
    _refused_before_building(lambda: parse_document(f"field 5\n{body}\n"))


def test_document_span_limit_boundary():
    doc = parse_document(f"field 5\nseq P {{ interval 0 {MAX_SPAN - 1} }}\n")
    assert doc.seq("P").hi - doc.seq("P").lo + 1 == MAX_SPAN
    with pytest.raises(ValidationFailed, match=f"spans {MAX_SPAN + 1} degrees"):
        parse_document(f"field 5\nseq P {{ interval 0 {MAX_SPAN} }}\n")


@pytest.mark.parametrize("intervals", [
    [[0, 10**9]],
    [[0, 0], [10**9, "inf"]],          # short bars, far apart
    [["-inf", -10**9], [0, "inf"]],
])
def test_barcode_json_span_limit(intervals):
    _refused_before_building(lambda: barcode_from_json({"intervals": intervals}, F5))


def test_seq_json_span_limit():
    _refused_before_building(lambda: seq_from_json(
        {"window": [0, 10**9], "dims": [1], "maps": [], "tails": ["zero", "zero"]}, F5))

