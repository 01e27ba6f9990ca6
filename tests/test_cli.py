"""Command-line surface: outputs, JSON reports, exit codes."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import dualseq
from dualseq import barcode, cli
from dualseq.cli import _build_parser, main
from dualseq.dualnum import HomotopyEquivalence

DOC = """
field 2

seq S01 { interval 0 1 }
seq S00 { interval 0 0 }
seq MRay { interval -inf 0 }
seq P00 { interval 0 0 }

complex Contractible {
  degree 0
  ranks 1 1
  d1 0 [[1]]
}

complex Point { ranks 1 }

mor e00 : S00 -> S00 {
  window 0 0
  eps 0 [[1]]
}

mor deep : MRay -> S00 {
  window 0 0
  eps 0 [[1]]
}

mor idS : S00 -> S00 { window 0 0 one 0 [[1]] }

diagram D {
  objects S00
  gen e : S00 -> S00 = e00
}

diagram E {
  objects S00, P00
  gen i : S00 -> S00 = idS
  gen j : S00 -> P00 = idS
  rel i i = i
}

derivation T on D { D e = e00 }
derivation Z on D { }
# D(i.i) = D(i) + D(i) = 0 over F2, but D(i) = e00
derivation Bad on E { D i = e00 }
# D(j) = j.theta_S00 - theta_P00.j is solved by theta_P00 = e00 (over F2), theta_S00 = 0
derivation Inner on E { D j = e00 }
"""


@pytest.fixture()
def doc_path(tmp_path):
    p = tmp_path / "doc.txt"
    p.write_text(DOC)
    return str(p)


def run(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_decompose_human(doc_path, capsys):
    code, out, _ = run(capsys, "decompose", doc_path, "S01")
    assert code == 0
    assert "[0,1] x1" in out
    assert "certificate: OK" in out


def test_cohomology_human(doc_path, capsys):
    code, out, _ = run(capsys, "cohomology", doc_path, "S01")
    assert code == 0
    assert "H^0: 1, H^1: 1" in out
    # a complex is read by eps_cohomology: k[eps] in degree 0 has H^0 = k^2
    assert run(capsys, "cohomology", doc_path, "Point") == (0, "H^0: 2\n", "")
    assert run(capsys, "cohomology", doc_path, "Contractible") == (0, "H^0: 0, H^1: 0\n", "")


def test_minimize_human(doc_path, capsys):
    code, out, _ = run(capsys, "minimize", doc_path, "Contractible")
    assert code == 0
    assert "minimal model: 0; certificates: OK" in out
    code, out, _ = run(capsys, "minimize", doc_path, "Point")
    assert (code, out) == (0, "minimal model: ranks 1 (degrees 0..0); certificates: OK\n")


def test_classify_human(doc_path, capsys):
    code, out, _ = run(capsys, "classify", doc_path, "S01")
    assert code == 0
    assert "h-projective: yes" in out


def test_hom_human(doc_path, capsys):
    code, out, _ = run(capsys, "hom", doc_path, "S00", "S00")
    assert code == 0
    assert "dim Hom_1: 1" in out and "dim Hom_eps: 1" in out


@pytest.mark.parametrize("body,args", [
    ("seq P { interval 0 100000000 }", ("decompose", "P")),
    ("seq P { window -100000000 0 dims 1 }", ("decompose", "P")),
    ("", ("truncate", "S01", "-100000000")),
    # short objects far apart, and a ray starting far out
    ("seq Far { interval 4000000 4000000 }", ("hom", "S00", "Far")),
    ("seq Far { interval 4000000 inf }", ("decompose", "Far")),
    ("", ("truncate", "S01", "20000")),
])
def test_span_limit_exit_code(tmp_path, capsys, body, args):
    p = tmp_path / "big.txt"
    p.write_text(DOC + body + "\n")
    code, out, err = run(capsys, args[0], str(p), *args[1:])
    assert (code, out) == (1, "")
    assert err.startswith("validation error: ") and "more than the limit of" in err


def test_hom_reports_stabilization_certificate(doc_path, capsys):
    # S00 -> S00: irregular region [-1, 1], fixed margin 1
    code, out, _ = run(capsys, "hom", doc_path, "S00", "S00")
    lines = out.splitlines()
    assert code == 0 and lines[:2] == ["dim Hom_1: 1", "dim Hom_eps: 1"]
    assert lines[-1] == "certificate: window [-2, 2], margin 1"
    code, out, _ = run(capsys, "hom", doc_path, "S00", "S00", "--json")
    data = json.loads(out)
    assert code == 0 and (data["dim_hom"], data["dim_eps"]) == (1, 1)
    assert data["certificate"] == {"window": [-2, 2], "margin": 1}


def test_cone_human(doc_path, capsys):
    code, out, _ = run(capsys, "cone", doc_path, "e00")
    assert code == 0
    assert "[0,1] x1" in out


def test_truncate_human(doc_path, capsys):
    code, out, _ = run(capsys, "truncate", doc_path, "S01", "1")
    assert code == 0
    assert "[1,1] x1" in out


def test_phantom_human(doc_path, capsys):
    code, out, _ = run(capsys, "phantom", doc_path, "e00")
    assert code == 0
    assert "phantom: no" in out


def test_derivation_check_and_solve(doc_path, capsys):
    code, out, _ = run(capsys, "derivation-check", doc_path, "D", "T")
    assert code == 0 and "OK" in out
    code, out, _ = run(capsys, "inner-solve", doc_path, "D", "T")
    assert code == 0 and "not inner" in out
    code, out, _ = run(capsys, "inner-solve", doc_path, "D", "Z")
    assert code == 0 and out.startswith("inner")
    assert run(capsys, "derivation-check", doc_path, "E", "Bad") == (0, "violated: i i = i\n", "")
    assert run(capsys, "derivation-check", doc_path, "E", "Inner") == (0, "OK\n", "")
    assert run(capsys, "inner-solve", doc_path, "E", "Inner") == (
        0, "inner\ntheta[P00]  0: [[1]]\ntheta[S00]  0\n", "")


@pytest.mark.parametrize("command", ["derivation-check", "inner-solve"])
@pytest.mark.parametrize("diagram,derivation,message", [
    ("Nope", "T", "unknown diagram 'Nope'"),
    ("D", "Nope", "unknown derivation 'Nope'"),
    ("D", "Bad", "derivation 'Bad' is not defined on diagram 'D'"),
])
def test_derivation_lookup_errors_exit_one(doc_path, capsys, command, diagram, derivation,
                                           message):
    assert run(capsys, command, doc_path, diagram, derivation) == (
        1, "", f"validation error: {message}\n")


def test_json_reports(doc_path, capsys):
    reports = {}
    for args, key in [
        (("decompose", doc_path, "S01", "--json"), "barcode"),
        (("classify", doc_path, "S01", "--json"), "h_projective"),
        (("hom", doc_path, "S00", "S00", "--json"), "dim_eps"),
        (("cone", doc_path, "e00", "--json"), "cone"),
        (("minimize", doc_path, "Contractible", "--json"), "minimal"),
        (("cohomology", doc_path, "S01", "--json"), "cohomology"),
        (("phantom", doc_path, "e00", "--json"), "phantom"),
        (("truncate", doc_path, "S01", "0", "--json"), "truncation"),
        (("derivation-check", doc_path, "D", "T", "--json"), "ok"),
        (("inner-solve", doc_path, "D", "Z", "--json"), "theta"),
        (("cohomology", doc_path, "Point", "--json"), "cohomology"),
        (("minimize", doc_path, "Point", "--json"), "minimal"),
        (("phantom", doc_path, "deep", "--json"), "levels"),
        (("derivation-check", doc_path, "E", "Bad", "--json"), "violated"),
        (("inner-solve", doc_path, "E", "Inner", "--json"), "theta"),
    ]:
        code, out, _ = run(capsys, *args)
        assert code == 0, args
        data = json.loads(out)
        assert data["schema"] == 1
        assert key in data, args
        reports[args[0], args[2]] = data
    assert reports["cohomology", "Point"]["cohomology"] == {"0": 2}
    assert reports["minimize", "Point"]["minimal"]["ranks"] == [1]
    deep = reports["phantom", "deep"]
    assert (deep["levels"], deep["phantom"]) == ([[-1, 0], [-2, 0], [-3, 0]], False)
    assert "levels" not in reports["phantom", "e00"]
    bad = reports["derivation-check", "E"]
    assert (bad["ok"], bad["violated"]) == (False, ["i", "i", "i"])
    theta = reports["inner-solve", "E"]["theta"]
    assert theta["P00"]["eps"] == {"degree": 0, "window": [0, 0], "components": {"0": [[1]]}}
    assert "eps" not in theta["S00"] and "eps" not in reports["inner-solve", "D"]["theta"]["S00"]


def test_json_decompose_roundtrips(doc_path, capsys):
    from dualseq.io import barcode_from_json, seq_from_json
    from dualseq.linalg import Field
    code, out, _ = run(capsys, "decompose", doc_path, "S01", "--json")
    data = json.loads(out)
    bc = barcode_from_json(data["barcode"], Field(2))
    assert [str(iv) for iv in bc.intervals] == ["[0,1]"]
    code, out, _ = run(capsys, "truncate", doc_path, "S01", "1", "--json")
    data = json.loads(out)
    t = seq_from_json(data["truncation"], Field(2))
    assert (t.lo, t.hi) == (1, 1)


def test_exit_one_on_validation(doc_path, capsys):
    code, _, err = run(capsys, "decompose", doc_path, "Missing")
    assert code == 1 and "unknown sequence" in err


def test_exit_one_on_parse_error(tmp_path, capsys):
    p = tmp_path / "bad.txt"
    p.write_text("field 2\nseq A { window 0 1 dims 1 }\n")
    code, _, err = run(capsys, "decompose", str(p), "A")
    assert code == 1 and "line" in err


def test_exit_one_on_duplicate_name(tmp_path, capsys):
    p = tmp_path / "dup.txt"
    p.write_text("field 2\nseq A { interval 0 1 }\nseq A { interval 0 0 }\n")
    code, _, err = run(capsys, "decompose", str(p), "A")
    assert code == 1 and "line 3, col 1" in err and "declared twice" in err


def test_exit_one_on_name_declared_under_two_kinds(tmp_path, capsys):
    # `cohomology A` would otherwise silently read the complex
    p = tmp_path / "dup.txt"
    p.write_text("field 2\nseq A { interval 0 1 }\ncomplex A { ranks 1 }\n")
    code, _, err = run(capsys, "cohomology", str(p), "A")
    assert code == 1 and "line 3, col 1" in err and "declared twice" in err


@pytest.mark.parametrize("field", ["5", "Q"])
def test_exit_one_on_zero_denominator(tmp_path, capsys, field):
    p = tmp_path / "zero.txt"
    p.write_text(f"field {field}\nseq A {{ window 0 1 dims 1 1\n  map 0 [[3/0]] }}\n")
    code, out, err = run(capsys, "decompose", str(p), "A")
    assert (code, out) == (1, "")
    assert err == "parse error: line 3, col 11: zero denominator in 3/0\n"


def test_exit_one_on_document_not_utf8(tmp_path, capsys):
    p = tmp_path / "latin.txt"
    p.write_bytes(b"field 5\nseq A { interval 0 1 } \xff\n")
    code, out, err = run(capsys, "decompose", str(p), "A")
    assert (code, out) == (1, "")
    assert err == ("parse error: line 2, col 24: document is not UTF-8: "
                   "byte 0xff at offset 31\n")


def test_exit_one_on_missing_file(capsys):
    code, _, err = run(capsys, "decompose", "/nonexistent/x.txt", "A")
    assert code == 1


def test_exit_one_on_bad_flag(doc_path, capsys):
    code, _, err = run(capsys, "decompose", doc_path, "S01", "--wat")
    assert code == 1


def test_exit_two_on_depth_exceeded(doc_path, capsys):
    code, _, err = run(capsys, "phantom", doc_path, "deep", "--depth", "1")
    assert code == 2
    assert "stabilize" in err


@pytest.mark.parametrize("depth", ["0", "-3"])
def test_depth_below_one_exits_one(doc_path, capsys, depth):
    code, out, err = run(capsys, "phantom", doc_path, "deep", "--depth", depth)
    assert (code, out) == (1, "")
    assert err.startswith("validation error: ") and "at least 1" in err


def test_depth_flag_default_succeeds(doc_path, capsys):
    code, out, _ = run(capsys, "phantom", doc_path, "deep")
    assert code == 0
    assert "phantom: no" in out


def test_cached_parser_keeps_no_state(doc_path, capsys):
    # one parser serves every in-process call; no flag may leak into the next
    _build_parser.cache_clear()
    first = run(capsys, "phantom", doc_path, "deep")
    assert first[0] == 0
    assert run(capsys, "phantom", doc_path, "deep", "--depth", "1")[0] == 2
    assert run(capsys, "phantom", doc_path, "deep") == first
    assert run(capsys, "decompose", doc_path, "S01", "--depth", "1")[0] == 1
    assert run(capsys, "phantom", doc_path, "deep", "--bogus")[0] == 1
    assert _build_parser.cache_info().misses == 1


def test_each_command_decomposes_and_verifies_once(doc_path, capsys, monkeypatch):
    # decompose verifies its certificate and minimize its homotopy
    # equivalence; a command repeats neither
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("decompose", "verify_certificate"):
        wrapped = counted(name, getattr(barcode, name))
        for mod in (barcode, cli):
            if hasattr(mod, name):
                monkeypatch.setattr(mod, name, wrapped)
    monkeypatch.setattr(HomotopyEquivalence, "verify",
                        counted("verify", HomotopyEquivalence.verify))
    once = Counter(decompose=1, verify_certificate=1)
    for argv, want in [
            (("decompose", doc_path, "S01"), once),
            (("decompose", doc_path, "S01", "--json"), once),
            (("cone", doc_path, "e00"), once),
            (("cone", doc_path, "e00", "--json"), once),
            (("truncate", doc_path, "S01", "1"), once),
            (("truncate", doc_path, "S01", "1", "--json"), once),
            (("minimize", doc_path, "Contractible"), Counter(verify=1)),
            (("minimize", doc_path, "Contractible", "--json"), Counter(verify=1))]:
        calls.clear()
        assert run(capsys, *argv)[0] == 0
        assert calls == want, argv


# -- output pins over small documents, one query each -------------------------

PIN_DOCS = {
    "smoke": """field 5
seq V { window 0 1 dims 1 1 map 0 [[1]] }
mor idV : V -> V { window 0 1 one 0 [[1]] one 1 [[1]] }
""",
    "block": """field 5
seq A { interval 1 2 }
seq B { interval 0 1 }
mor h : A -> B { window 1 1 one 1 [[1]] }
""",
    "zero": """field 5
seq A { interval 0 1 }
seq B { interval 0 0 }
mor z : A -> B { }
""",
    "epsunit": """field 5
seq A { interval 0 1 }
seq B { interval 1 2 }
mor e : A -> B { window 1 1 eps 1 [[1]] }
""",
    "contractible": """field 5
complex K { ranks 1 1 d1 0 [[1]] }
""",
    "adapted": """field 5
complex K { ranks 1 2 1 d1 1 [[1,1]] deps 0 [[1],[4]] deps 1 [[0,2]] }
""",
    "adaptedq": """field Q
complex K { ranks 2 2 d1 0 [[0,0],[3/2,3/4]] deps 0 [[-1,1],[2,-1]] }
""",
    "glue": """field 5
seq V { window 0 1 dims 1 2 map 0 [[1],[0]] }
seq W { window 0 2 dims 1 2 1 map 0 [[1],[0]] map 1 [[0,1]] }
mor h : V -> W { window 1 1 one 1 [[0,1],[0,0]] eps 1 [[0,0],[1,0]] }
""",
    "far": """field 5
seq A { interval 0 0 }
seq B { interval 20000 20000 }
""",
    "iso": """field 5
seq V { window 3 3 dims 1 tails iso iso }
mor z : V -> V { }
""",
    "deep": """field 2
seq MRay { interval -inf 0 }
seq S00 { interval 0 0 }
seq S11 { interval 1 1 }
mor deep : MRay -> S00 { window 0 0 eps 0 [[1]] }
mor z : MRay -> S11 { }
""",
    "more": """field 2
seq S00 { interval 0 0 }
seq P00 { interval 0 0 }
seq S01 { interval 0 1 }
complex Point { ranks 1 }
mor e00 : S00 -> S00 { window 0 0 eps 0 [[1]] }
mor idS : S00 -> S00 { window 0 0 one 0 [[1]] }
diagram E {
  objects S00, P00
  gen i : S00 -> S00 = idS
  gen j : S00 -> P00 = idS
  rel i i = i
}
derivation Bad on E { D i = e00 }
derivation Inner on E { D j = e00 }
""",
    "gen": """field 5
seq A { interval 0 0 }
mor p : A -> A { window 0 0 one 0 [[1]] }
diagram D { objects A gen f : A -> A = p gen f : A -> A = p }
""",
}


@pytest.mark.parametrize("doc,args,code,lines,err,report", [
    ("smoke", ("decompose", "V"), 0, ["[0,1] x1"], "", {}),
    # the cone of an identity is contractible: its barcode is empty
    ("smoke", ("cone", "idV"), 0, ["(empty)"], "", {}),
    # a block with a kernel and a cokernel: the cone of [1,2] -> [0,1] is
    # the kernel [2,2] plus the cokernel [0,0] moved up one degree
    ("block", ("cone", "h"), 0, ["[1,1] x1", "[2,2] x1"], "", {}),
    # the cone of a zero map A -> B is A (+) B[-1], glued along zero
    ("zero", ("cone", "z"), 0, ["[0,1] x1", "[1,1] x1"], "", {}),
    # the cone of the eps unit [a,b] -> [c,d] is [a, d+1] (+) [c+1, b]: for
    # [0,1] -> [1,2] that is [0,3], the second summand empty
    ("epsunit", ("cone", "e"), 0, ["[0,3] x1"], "", {}),
    # k[eps] -> k[eps] with d1 = 1 is contractible: its minimal model is 0
    ("contractible", ("minimize", "K"), 0,
     ["minimal model: 0; certificates: OK"], "", {}),
    # d1 = [1 1] kills (4,1) in degree 1, and deps carries degree 0 onto it
    # with coordinate 4: the minimal model is k -> k, deps 4
    ("adapted", ("minimize", "K", "--json"), 0, [], "",
     {"minimal": {"d1": [[[0]]], "degree": 0, "deps": [[[4]]], "ranks": [1, 1]},
      "certificates": "OK"}),
    # over Q the homotopy equivalence of this reduction has nonzero k1,
    # keps, feps and geps, so every part of each certificate identity is
    # exercised
    ("adaptedq", ("minimize", "K", "--json"), 0, [], "",
     {"minimal": {"d1": [[[0]]], "degree": 0, "deps": [[["3/2"]]], "ranks": [1, 1]},
      "certificates": "OK"}),
    # h1 has a kernel and a cokernel in degree 1, and h_eps glues the kernel
    # to the cokernel one degree up: the map [[4, 0]] of U
    ("glue", ("cone", "h", "--json"), 0, [], "",
     {"cone": {"dims": [1, 2, 1, 1], "maps": [[[1], [0]], [[4, 0]], [[4]]],
               "tails": ["zero", "zero"], "window": [0, 3]}}),
    # the hom window of [0,1] with itself at the proven margin 1
    ("smoke", ("hom", "V", "V"), 0, ["certificate: window [-2, 3], margin 1"], "", {}),
    # two objects 20000 degrees apart: refused before anything is built
    ("far", ("hom", "A", "B"), 1, [], "more than the limit of 10000", {}),
    # the constant Iso-Iso sequence has no finite structure: wherever it is
    # declared, it and its zero map's cone sit on window [0,0]
    ("iso", ("cone", "z"), 0, ["cone: window [0,0], dims 2, tails iso iso"], "", {}),
    # the eps class from the left ray to a point survives truncation; a depth
    # below the levels of its certificate exits 2
    ("deep", ("phantom", "deep"), 0,
     ["phantom: no ", "stable after 3 levels (n=-1: 0, n=-2: 0, n=-3: 0)"], "", {}),
    ("deep", ("phantom", "deep", "--depth", "1"), 2, [],
     "did not stabilize within 1 truncation levels", {}),
    ("deep", ("phantom", "deep", "--depth", "2"), 2, [], "", {}),
    # the proven certificate: three levels of 0 from min(v.lo, w.lo) - 1 when
    # Hom_eps is nonzero, one level at v.lo when it is 0
    ("deep", ("phantom", "deep", "--json"), 0, [], "",
     {"levels": [[-1, 0], [-2, 0], [-3, 0]], "phantom": False}),
    ("deep", ("phantom", "z", "--json"), 0, [], "",
     {"levels": [[0, 0]], "phantom": True, "reason": "zero class"}),
    # that class is the one eps basis element of the pair, placed in its one
    # block: it is stored on the window [0,0]
    ("deep", ("hom", "MRay", "S00"), 0, ["dim Hom_eps: 1", "eps[0]  0: [[1]]"], "", {}),
    ("deep", ("hom", "MRay", "S00", "--json"), 0, [], "",
     {"eps_basis": [{"degree": 0, "window": [0, 0], "components": {"0": [[1]]}}]}),
    # the identity of the ray is its one hom basis element, built with
    # constant tails and stored on [0,0]; the certificate is the hom window
    # and its margin
    ("deep", ("hom", "MRay", "MRay", "--json"), 0, [], "",
     {"hom_basis": [{"degree": 0, "window": [0, 0], "components": {"0": [[1]]}}],
      "certificate": {"margin": 1, "window": [-2, 2]}}),
    ("more", ("classify", "S01"), 0, ["h-projective: yes"], "", {}),
    # k[eps] in degree 0, read as a complex: H^0 = k^2
    ("more", ("cohomology", "Point"), 0, ["H^0: 2"], "", {}),
    ("more", ("truncate", "S01", "1"), 0, ["[1,1] x1"], "", {}),
    # D(i.i) = D(i) + D(i) = 0 over F2, but D(i) = e00
    ("more", ("derivation-check", "E", "Bad"), 0, ["violated: i i = i"], "", {}),
    # D(j) = e00 is inner, with theta the eps unit of P00
    ("more", ("inner-solve", "E", "Inner"), 0, ["theta[P00]  0: [[1]]"], "", {}),
    # a generator declared twice is refused at its name
    ("gen", ("decompose", "A"), 1, [], "repeated gen f", {}),
])
def test_output_pins(tmp_path, capsys, doc, args, code, lines, err, report):
    # each line in `lines` is a whole line of stdout (one that starts with
    # a blank-terminated prefix like "phantom: no " is matched as a prefix),
    # `err` is a substring of stderr, and `report` pins JSON values
    p = tmp_path / f"{doc}.txt"
    p.write_text(PIN_DOCS[doc])
    got_code, out, got_err = run(capsys, args[0], str(p), *args[1:])
    assert got_code == code, got_err
    out_lines = out.splitlines()
    for line in lines:
        if line.endswith(" "):
            assert any(x.startswith(line) for x in out_lines), (line, out)
        else:
            assert line in out_lines, (line, out)
    assert err in got_err
    if code != 0:
        assert out == ""
    if report:
        data = json.loads(out)
        assert {k: data[k] for k in report} == report, data


def test_inner_solve_without_generators(tmp_path, capsys):
    # no generator, no equation: every theta is zero, and the derivation is inner
    p = tmp_path / "free.txt"
    p.write_text("field 5\nseq A { interval 0 1 }\ndiagram G { objects A }\n"
                 "derivation N on G { }\n")
    assert run(capsys, "inner-solve", str(p), "G", "N") == (0, "inner\ntheta[A]  0\n", "")
    code, out, err = run(capsys, "inner-solve", str(p), "G", "N", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "schema": 1, "command": "inner-solve", "diagram": "G", "derivation": "N",
        "inner": True,
        "theta": {"A": {"one": {"degree": 0, "window": [0, 1],
                                "components": {"0": [[0]], "1": [[0]]}}}}}


# a fresh interpreter limited to 1 GB of address space runs one query
_CAPPED = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from dualseq.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("text,args,message", [
    ("seq V { window 0 0 dims 100000 }\nmor z : V -> V { }\n", ("decompose", "V"),
     "sequence dimension 100000 is more than the limit of 1000"),
    ("seq V { window 0 0 dims 100000 }\n", ("decompose", "V"),
     "sequence dimension 100000 is more than the limit of 1000"),
    ("complex K { ranks 100000 }\n", ("minimize", "K"),
     "complex rank 100000 is more than the limit of 1000"),
    # 500 blocks of about 10^6 entries from a 2 KB document
    ("seq V { window 0 499 dims " + " ".join(str(d) for d in range(1000, 500, -1)) + " }\n",
     ("decompose", "V"),
     "the squares of the sequence dimensions sum to 292041750, more than the limit of 1000^2"),
    # 90,000 window coordinates, and one dense kernel vector of that length
    # per basis element
    ("seq V { window 0 0 dims 300 }\n", ("hom", "V", "V"),
     "hom window [-2, 2] has 90000 coordinates, more than the limit of 10000"),
    ("seq V { window 0 0 dims 80 }\n", ("hom", "V", "V", "--json"),
     "hom basis of 6400 vectors of 6400 coordinates has 40960000 entries, "
     "more than the limit of 8000000"),
    # 400 declarations, each within the limits, in 14.7 KB: refused at the
    # second, before the 512 shared zero blocks of distinct shapes fill memory
    ("".join(f"seq S{k} {{ window 0 1 dims {700 - k} 700 }}\n" for k in range(400)),
     ("decompose", "S0"),
     "the squares of the dimensions and ranks declared in the document sum to "
     "1958601, more than the limit of 1000^2"),
], ids=["dims-with-morphism", "dims", "ranks", "dims-staircase", "hom-window",
        "hom-kernel", "document"])
def test_oversized_input_exits_one_under_a_memory_cap(tmp_path, text, args, message):
    p = tmp_path / "big.txt"
    p.write_text("field 2\n" + text)
    src = str(Path(dualseq.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    r = subprocess.run([sys.executable, "-c", _CAPPED, args[0], str(p), *args[1:]],
                       capture_output=True, text=True, env=env, timeout=120)
    assert (r.returncode, r.stdout, r.stderr) == (1, "", f"validation error: {message}\n")
