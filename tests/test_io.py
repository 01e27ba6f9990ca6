"""Document grammar and JSON serialization."""

import json
import math
import random

import pytest

from dualseq.barcode import decompose
from dualseq.errors import ParseError, ValidationFailed
from dualseq.gen import random_eps_complex, random_seq
from dualseq.hom import identity_hat
from dualseq.io import (barcode_from_json, barcode_to_json, complex_from_json,
                        complex_to_json, field_from_json, field_to_json,
                        parse_document, report_json, seq_from_json,
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


def test_json_payload_is_valid_json():
    v = interval(Q, 0, 1)
    s = report_json({"object": seq_to_json(v)})
    data = json.loads(s)
    assert data["schema"] == 1
    assert data["object"]["window"] == [0, 1]


def test_rational_entries_serialized_as_strings():
    from fractions import Fraction
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
