"""dualseq benchmark: one seeded, single-process, closed-loop workload per run.

    python3 bench/run.py --workload hom_cold --seed 1 --seconds 20 --trace 0

One client runs the workload's ops back to back, with no threads.  Every
answer is checked outside the timed span.  With ``--trace 0`` the run cycles
through the ops for ``--seconds`` and reports the end-to-end metrics.  With
``--trace 1`` it runs a fixed number of passes over the ops untraced, then
the same passes traced, and reports the per-layer metrics; a fixed amount of
work (not ``--seconds``) makes its counts repeat exactly for a given seed.
The last line of stdout is the result as JSON; the lines before it are the
same metrics for reading, and the provenance.  Spans of a traced run are
written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# The CPU speed of a shared virtual machine drifts: on a 2-vCPU Xeon VM the
# same rank() call took 57..85 ms within 30 s, in wall and CPU time alike,
# and the drift hits all pure-Python work the same way.  Every reported time
# is therefore scaled to a nominal speed, at which the reference kernel below
# takes REF_NOMINAL_S; the speed is sampled between blocks of about BLOCK_S
# of ops.  Raw times are printed beside the scaled ones.
REF_NOMINAL_S = 0.005
BLOCK_S = 0.25
IMPORT_REPEATS = 5
KERNEL_REPEATS = 3
# (field, size) of the fixed-size elimination kernels in the traced report
KERNELS = (("F2", 120), ("F5", 120), ("Q", 40))
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import dualseq; "
                "print(time.perf_counter() - t)")


def run_op(wl, op, errors):
    """Run one op closed-loop; returns (answer ok, seconds in the op)."""
    if wl.before_op is not None:
        wl.before_op()
    t0 = time.perf_counter()
    try:
        result = op.run()
    except Exception as e:   # a failed op is counted, never fatal
        dt = time.perf_counter() - t0
        errors.append(f"{op.label}: {type(e).__name__}: {e}")
        return False, dt
    dt = time.perf_counter() - t0
    try:
        ok = bool(op.check(result))
    except Exception as e:
        errors.append(f"{op.label}: check raised {type(e).__name__}: {e}")
        return False, dt
    if not ok:
        errors.append(f"{op.label}: wrong answer")
    return ok, dt


def _reference_kernel():
    """Fixed pure-Python work, independent of dualseq, in the kinds dualseq
    does: modular elimination on list rows, Fraction arithmetic, and the
    allocation, text and JSON work of a CLI query."""
    rows = [row[:] for row in _REF_ROWS]
    for c, pivot in enumerate(rows):
        for row in rows:
            if row is not pivot and row[c]:
                k = row[c]
                row[:] = [(x - k * y) % 5 for x, y in zip(row, pivot)]
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(i, i + 1) * Fraction(i + 2, 2 * i + 3)
    text = json.dumps({f"k{i}": [i, f"[{i}, {-i}]", {"n": i % 7}] for i in range(300)})
    words = re.findall(r"-?\d+|[A-Za-z_]\w*|[\[\]{},:]", text)
    return rows, total, len(words), len(json.loads(text))


_REF_ROWS = [[(7 * i + 3 * j * j + i * j + 1) % 5 for j in range(48)] for i in range(48)]


def speed_factor() -> float:
    """REF_NOMINAL_S / (median time of three reference runs): below 1 when
    the machine runs slower than nominal."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_kernel()
        times.append(time.perf_counter() - t0)
    return REF_NOMINAL_S / statistics.median(times)


def run_ops(wl, seconds=None, passes=1, tracer=None):
    """Cycle through the ops until ``seconds`` have passed or, when
    ``seconds`` is None, for exactly ``passes`` passes.

    Between blocks of about BLOCK_S the machine speed is sampled; each op
    gets the mean factor of the samples before and after its block.
    Returns (raw latencies, speed factor per op, failed, errors)."""
    lat, factors, errors, failed = [], [], [], 0
    deadline = None if seconds is None else time.perf_counter() + seconds
    before, block_end, in_block = speed_factor(), time.perf_counter() + BLOCK_S, 0
    i = 0
    while True:
        if i % len(wl.ops) == 0:
            if deadline is None and i == passes * len(wl.ops):
                break
            if wl.on_cycle is not None:
                wl.on_cycle()
        if tracer is not None:
            tracer.active = True
        try:
            ok, dt = run_op(wl, wl.ops[i % len(wl.ops)], errors)
        finally:
            if tracer is not None:
                tracer.active = False
        lat.append(dt)
        failed += not ok
        i += 1
        in_block += 1
        now = time.perf_counter()
        if now >= block_end:
            after = speed_factor()
            factors += [(before + after) / 2] * in_block
            before, block_end, in_block = after, time.perf_counter() + BLOCK_S, 0
        if deadline is not None and now >= deadline:
            break
    if in_block:
        after = speed_factor()
        factors += [(before + after) / 2] * in_block
    return lat, factors, failed, errors


def import_seconds() -> tuple:
    """Median time of ``import dualseq`` in a fresh interpreter, and the
    speed factor around the measurement."""
    def once():
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        return float(out.stdout.strip().splitlines()[-1])
    once()   # writes the bytecode cache on a fresh checkout
    before = speed_factor()
    raw = statistics.median(once() for _ in range(IMPORT_REPEATS))
    return raw, (before + speed_factor()) / 2


def set_up(name, seed):
    """Build the workload SETUP_REPEATS times from a cold cache, each time
    generating its inputs and running its warm-up; keep the last build.
    Returns (workload, median raw seconds, median scaled seconds)."""
    import workloads
    raw, scaled, wl = [], [], None
    for _ in range(SETUP_REPEATS):
        if wl is not None and wl.cleanup is not None:
            wl.cleanup()
        workloads.clear_context_cache()
        before = speed_factor()
        t0 = time.perf_counter()
        wl = workloads.BUILDERS[name](seed, OUT)
        for op in wl.ops[:wl.warmup]:
            run_op(wl, op, [])
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * (before + speed_factor()) / 2)
    return wl, statistics.median(raw), statistics.median(scaled)


def kernel_series(seed) -> dict:
    """Median scaled ms of rank, subspaces and solve on fixed-size random
    systems."""
    from dualseq import gen, linalg
    fields = {"F2": linalg.Field.prime(2), "F5": linalg.Field.prime(5),
              "Q": linalg.Field.rationals()}
    rng = random.Random(seed)
    out = {}
    before = speed_factor()
    for fname, n in KERNELS:
        a = gen.random_matrix(rng, fields[fname], n, n)
        b = gen.random_matrix(rng, fields[fname], n, 1)
        for kernel, args in (("rank", (a,)), ("subspaces", (a,)), ("solve", (a, b))):
            fn = getattr(linalg, kernel)
            times = []
            for _ in range(KERNEL_REPEATS):
                t0 = time.perf_counter()
                fn(*args)
                times.append(time.perf_counter() - t0)
            out[f"linalg.{kernel}_ms.{fname}_{n}"] = 1e3 * statistics.median(times)
    factor = (before + speed_factor()) / 2
    return {k: (v * factor, "ms") for k, v in out.items()}


def provenance(name, seed, seconds, trace, wl) -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=30,
                                    check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dualseq").glob("*.py")):
        digest.update(path.read_bytes())
    return {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "source_sha256": digest.hexdigest()[:16],
            "inputs": wl.summary}


def latency_metrics(lat, failed) -> dict:
    done = len(lat) - failed
    return {
        "ops_per_s": (done / sum(lat), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lat), "ms"),
        "latency_p95_ms": (1e3 * sorted(lat)[math.ceil(0.95 * len(lat)) - 1], "ms"),
    }


def _scaled(lat, factors) -> list:
    return [t * f for t, f in zip(lat, factors)]


def _hit_ratio(h0) -> float:
    import workloads
    hits, misses = (b - a for a, b in zip(h0, workloads.cache_counts()))
    return hits / (hits + misses) if hits + misses else 0.0


def measure(wl, seconds, setup):
    import workloads
    h0 = workloads.cache_counts()
    lat, factors, failed, errors = run_ops(wl, seconds)
    metrics = latency_metrics(_scaled(lat, factors), failed)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "MB")
    metrics["setup_s"] = (setup["scaled"], "s")
    raw = latency_metrics(lat, failed)
    p95 = metrics["latency_p95_ms"][0] / 1e3
    notes = {"latency_samples": len(lat),
             "samples_beyond_p95": sum(t > p95 for t in _scaled(lat, factors)),
             "failed_ratio": failed / len(lat),
             "cache_hit_ratio": _hit_ratio(h0),
             "speed_factor_median": statistics.median(factors),
             "raw": {**{k: v for k, (v, _) in raw.items()}, "setup_s": setup["raw"]}}
    return metrics, len(lat), failed, errors, notes


def measure_traced(wl, name, seed):
    import tracer as tr
    import workloads
    base, base_factors, base_failed, errors = run_ops(wl, passes=wl.trace_passes)
    t = tr.Tracer()
    h0 = workloads.cache_counts()
    t.install()
    try:
        lat, factors, failed, more = run_ops(wl, passes=wl.trace_passes, tracer=t)
    finally:
        t.restore()
    factor = statistics.median(factors)
    metrics = {k: (v * factor if unit in ("s", "ms") else v, unit)
               for k, (v, unit) in tr.layer_metrics(t, _hit_ratio(h0)).items()}
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{name}-seed{seed}.csv"
    t.write_spans(spans)
    metrics.update(kernel_series(seed))
    metrics["trace.overhead_ratio"] = (
        latency_metrics(_scaled(lat, factors), failed)["ops_per_s"][0]
        / latency_metrics(_scaled(base, base_factors), base_failed)["ops_per_s"][0],
        "ratio")
    notes = {"traced_ops": len(lat), "spans": len(t.spans), "spans_file": str(spans),
             "speed_factor_median": factor}
    return metrics, len(lat) + len(base), failed + base_failed, errors + more, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("hom_cold", "cli_docs", "hatcat_warm"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dualseq" / "__init__.py").is_file():
        print(f"error: no dualseq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    OUT.mkdir(exist_ok=True)

    import_raw, import_factor = import_seconds()
    wl, build_raw, build_scaled = set_up(args.workload, args.seed)
    setup = {"raw": import_raw + build_raw,
             "scaled": import_raw * import_factor + build_scaled}
    try:
        if args.trace:
            metrics, attempted, failed, errors, notes = measure_traced(
                wl, args.workload, args.seed)
        else:
            metrics, attempted, failed, errors, notes = measure(wl, args.seconds, setup)
    finally:
        if wl.cleanup is not None:
            wl.cleanup()

    prov = provenance(args.workload, args.seed, args.seconds, args.trace, wl)
    prov.update(notes, import_raw_s=import_raw, build_and_warmup_raw_s=build_raw)
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for err in errors[:20]:
        print("# failed op: " + err)
    layer_map = json.loads((Path(__file__).resolve().parent / "layer_map.json")
                           .read_text())["metrics"] if args.trace else {}
    for key, (value, unit) in metrics.items():
        line = f"{key} {value:.6g} {unit}"
        if key in notes.get("raw", {}):
            line += f" (raw {notes['raw'][key]:.6g})"
        if key.startswith("latency_"):
            line += f" (of {notes['latency_samples']} samples, " \
                    f"{notes['samples_beyond_p95']} beyond p95)"
        if key in layer_map:
            moves = layer_map[key]
            line += f"  -> {', '.join(moves['moves']) or 'none'} on {', '.join(moves['on'])}"
        print(line)
    print(f"failed_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
