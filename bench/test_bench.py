"""Tests of the benchmark itself.  Run with: python3 -m pytest bench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 4   # ops per workload in the smoke runs


def tiny(name, tmp_path):
    wl = workloads.BUILDERS[name](5, tmp_path)
    wl.ops = wl.ops[:TINY]
    return wl


@pytest.mark.parametrize("name", sorted(workloads.BUILDERS))
def test_tiny_smoke_run(name, tmp_path):
    wl = tiny(name, tmp_path)
    lat, factors, failed, errors = run.run_ops(wl, passes=1)
    assert (len(lat), len(factors), failed, errors) == (TINY, TINY, 0, [])
    assert set(run.latency_metrics(lat, failed)) <= {m["name"] for m in SPEC["end_to_end"]}


def test_wrong_answer_and_exception_are_counted_not_raised(tmp_path):
    wl = tiny("hom_cold", tmp_path)
    good = wl.ops[0]

    def boom():
        raise ValueError("boom")

    wl.ops = [good,
              workloads.Op("wrong", good.run, lambda got: got == ("not", "this")),
              workloads.Op("raises", boom, lambda got: True)]
    lat, _, failed, errors = run.run_ops(wl, passes=1)
    assert (len(lat), failed) == (3, 2)
    assert errors == ["wrong: wrong answer", "raises: ValueError: boom"]


def _bindings():
    """Every module attribute and class attribute of the loaded dualseq modules."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "dualseq" and not modname.startswith("dualseq."):
            continue
        for attr, val in vars(mod).items():
            out[(modname, attr)] = val
            if isinstance(val, type) and val.__module__ == modname:
                for cattr, cval in vars(val).items():
                    out[(modname, attr, cattr)] = cval
    return out


@pytest.fixture(scope="module")
def traced(tmp_path_factory, monkeypatch_module):
    monkeypatch_module.setattr(run, "KERNEL_REPEATS", 1)
    monkeypatch_module.setattr(run, "OUT", tmp_path_factory.mktemp("out"))
    wl = tiny("cli_docs", tmp_path_factory.mktemp("docs"))
    before = _bindings()
    result = run.measure_traced(wl, "cli_docs", 5)
    return before, _bindings(), result


@pytest.fixture(scope="module")
def monkeypatch_module():
    mp = pytest.MonkeyPatch()
    yield mp
    mp.undo()


def test_traced_run_restores_every_wrapped_name(traced):
    before, after, _ = traced
    assert before.keys() == after.keys()
    assert [k for k, v in before.items() if after[k] is not v] == []


def test_traced_run_reports_every_per_layer_metric(traced):
    _, _, (metrics, attempted, failed, errors, notes) = traced
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(metrics) == sorted(names)
    assert (attempted, failed, errors) == (2 * TINY, 0, [])
    assert metrics["io.bytes_parsed"][0] > 0 and metrics["cli.self_s"][0] > 0
    layer_map = json.loads((BENCH / "layer_map.json").read_text())["metrics"]
    assert sorted(layer_map) == sorted(names)


def test_install_rebinds_imported_copies():
    from dualseq import hom, linalg
    originals = (hom._rref, hom.subspaces, linalg.rank)
    t = tracer.Tracer()
    t.install()
    try:
        assert hom._rref is not originals[0] and hom._rref.__wrapped__ is originals[0]
        assert hom.subspaces.__wrapped__ is originals[1]
        assert linalg.rank.__wrapped__ is originals[2]
    finally:
        t.restore()
    assert (hom._rref, hom.subspaces, linalg.rank) == originals


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "hom_cold",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert out.returncode != 0
    assert out.stdout == ""
