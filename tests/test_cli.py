"""Command-line surface: outputs, JSON reports, exit codes."""

import json
from collections import Counter

import pytest

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
