"""Per-layer spans recorded from outside the library.

``Tracer.install`` wraps the public functions of every ``dualseq`` layer
module, plus a few methods, and rebinds every copy of each wrapped name: a
``from .linalg import rank`` in ``dualseq.hom`` is its own binding, so
patching only the defining module would miss most calls.  Spans are kept in
memory with their parent and written out at the end; ``restore`` puts every
original object back.

A span's self time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import importlib
import math
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("linalg", "seq", "graded", "hom", "barcode", "dualnum", "triang",
          "phantom", "io", "cli")
# _rref is private, but it is the elimination kernel that hom, phantom and
# dualnum call directly; without it most elimination time would be missed.
PRIVATE = {"linalg": ("_rref",)}
METHODS = {
    "hom": {"HomContext": ("__init__", "canonical_eps", "eps_coords",
                           "eps_from_coords", "hom_basis", "eps_basis")},
    "dualnum": {"HomotopyEquivalence": ("verify",)},
    "triang": {"Triangle": ("verify",)},
}
BUILD = "hom.HomContext.__init__"
COSET = ("hom.HomContext.canonical_eps", "hom.HomContext.eps_coords",
         "hom.HomContext.eps_from_coords")
ELIMINATION = ("rank", "subspaces", "solve", "inverse", "reduce", "complement",
               "_rref")
# upper ends of the window-size bands of the build-time series
N_BANDS = (16, 32, 64, 128)


def _targets():
    """(layer, span name, owner class or None, attribute, original)."""
    for layer in LAYERS:
        mod = importlib.import_module("dualseq." + layer)
        for name, obj in vars(mod).items():
            public = not name.startswith("_") or name in PRIVATE.get(layer, ())
            if (public and callable(obj) and not isinstance(obj, type)
                    and getattr(obj, "__module__", None) == mod.__name__):
                yield layer, f"{layer}.{name}", None, name, obj
        for cls_name, names in METHODS.get(layer, {}).items():
            cls = getattr(mod, cls_name, None)
            for name in names:
                if cls is not None and name in vars(cls):
                    yield layer, f"{layer}.{cls_name}.{name}", cls, name, vars(cls)[name]


def _cells(args) -> int:
    """rows x cols of the system handed to an elimination entry point."""
    if len(args) >= 3 and isinstance(args[1], list):      # _rref(field, rows, width)
        return len(args[1]) * args[2]
    m = args[0]
    return getattr(m, "rows", 0) * getattr(m, "cols", 0)


class Tracer:
    def __init__(self):
        self.active = False          # spans are recorded only while True
        self.names = []              # span name per name index
        self.layer_of = []           # layer per name index
        self.calls = []              # per name index
        self.self_s = []             # per name index
        self.spans = []              # (parent id, name index, start, duration)
        self.builds = []             # (N, inclusive seconds, widenings)
        self.counts = defaultdict(int)
        self._stack = []
        self._patched = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        by_id = {}
        for layer, span, cls, attr, fn in _targets():
            wrapper = self._wrap(fn, span, layer)
            if cls is not None:
                setattr(cls, attr, wrapper)
                self._patched.append((cls, attr, fn))
            else:
                by_id[id(fn)] = (fn, wrapper)
        for modname, mod in list(sys.modules.items()):
            if modname != "dualseq" and not modname.startswith("dualseq."):
                continue
            for attr, val in list(vars(mod).items()):
                hit = by_id.get(id(val))
                if hit is not None and hit[0] is val:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, val))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, span, layer):
        idx = len(self.names)
        self.names.append(span)
        self.layer_of.append(layer)
        self.calls.append(0)
        self.self_s.append(0.0)
        hook = self._hook_for(span, layer)
        stack, spans, calls, self_s = self._stack, self.spans, self.calls, self.self_s

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            sid = len(spans)
            spans.append(None)
            frame = [sid, 0.0, idx]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                if parent is not None:
                    parent[1] += dur
                spans[sid] = (parent[0] if parent else -1, idx, t0, dur)
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
            if hook is not None:
                hook(args, kwargs, result, dur, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters taken at the same boundaries -----------------------------

    def _hook_for(self, span, layer):
        name = span.rsplit(".", 1)[-1]
        c = self.counts
        if layer == "linalg" and name in ELIMINATION:
            def hook(args, kwargs, result, dur, parent):
                # count a system once, at the outermost elimination call
                if parent is None or self.layer_of[parent[2]] != "linalg":
                    cells = _cells(args)
                    c["linalg.cells"] += cells
                    c["linalg.max_cells"] = max(c["linalg.max_cells"], cells)
            return hook
        if span == BUILD:
            def hook(args, kwargs, result, dur, parent):
                ctx = args[0]
                config = args[3] if len(args) > 3 else kwargs.get("config")
                margin = getattr(ctx, "margin", 0)
                base = getattr(config, "base_margin", None)
                if base is None:
                    base = getattr(importlib.import_module("dualseq.config").DEFAULT,
                                   "base_margin", margin)
                self.builds.append((getattr(ctx, "N", 0), dur, margin - base))
            return hook
        if span == "barcode.decompose":
            def hook(args, kwargs, result, dur, parent):
                c["barcode.bars"] += len(result.intervals)
            return hook
        if span == "phantom.phantom_basis":
            def hook(args, kwargs, result, dur, parent):
                c["phantom.levels_inspected"] += len(result[1].levels)
            return hook
        if span == "phantom.is_phantom":
            def hook(args, kwargs, result, dur, parent):
                if result.certificate is not None:
                    c["phantom.levels_inspected"] += len(result.certificate.levels)
            return hook
        if span == "io.parse_document":
            def hook(args, kwargs, result, dur, parent):
                c["io.bytes_parsed"] += len(args[0].encode())
            return hook
        return None

    # -- results ------------------------------------------------------------

    def self_of(self, *spans) -> float:
        return sum(s for n, s in zip(self.names, self.self_s) if n in spans)

    def calls_of(self, *spans) -> int:
        return sum(k for n, k in zip(self.names, self.calls) if n in spans)

    def layer_calls(self, layer) -> int:
        return sum(k for l, k in zip(self.layer_of, self.calls) if l == layer)

    def layer_self(self, layer) -> float:
        return sum(s for l, s in zip(self.layer_of, self.self_s) if l == layer)

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,duration_s\n")
            for sid, (parent, idx, t0, dur) in enumerate(self.spans):
                fh.write(f"{sid},{parent},{self.names[idx]},{t0:.9f},{dur:.9f}\n")


def scaling_exponent(builds) -> float:
    """Least-squares slope of log(build time) against log(N), N >= 8."""
    pts = [(math.log(n), math.log(t)) for n, t, _ in builds if n >= 8 and t > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(t: Tracer, hit_ratio: float) -> dict:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    ns = [n for n, _, _ in t.builds]
    out = {
        "hom.build_s": (t.self_of(BUILD), "s"),
        "hom.window_N_max": (max(ns, default=0), "count"),
        "hom.window_N_sum": (sum(ns), "count"),
        "hom.widenings": (sum(w for _, _, w in t.builds), "count"),
        "hom.scaling_exponent": (scaling_exponent(t.builds), "slope"),
        "hom.contexts_built": (len(t.builds), "count"),
        "hom.cache_hit_ratio": (hit_ratio, "ratio"),
        "hom.coset_calls": (t.calls_of(*COSET), "count"),
        "hom.coset_s": (t.self_of(*COSET), "s"),
    }
    lo = 0
    for hi in N_BANDS:
        band = [d for n, d, _ in t.builds if lo < n <= hi]
        out[f"hom.build_ms.N{lo + 1:03d}_{hi:03d}"] = (
            1e3 * sum(band) / len(band) if band else 0.0, "ms")
        lo = hi
    out.update({
        "linalg.calls": (t.layer_calls("linalg"), "count"),
        "linalg.self_s": (t.layer_self("linalg"), "s"),
        "linalg.cells": (t.counts["linalg.cells"], "cells"),
        "linalg.max_cells": (t.counts["linalg.max_cells"], "cells"),
        "graded.calls": (t.layer_calls("graded"), "count"),
        "graded.self_s": (t.layer_self("graded"), "s"),
        "seq.calls": (t.layer_calls("seq"), "count"),
        "seq.self_s": (t.layer_self("seq"), "s"),
        "barcode.calls": (t.layer_calls("barcode"), "count"),
        "barcode.decompose_s": (t.self_of("barcode.decompose"), "s"),
        "barcode.verify_s": (t.self_of("barcode.verify_certificate"), "s"),
        "barcode.bars": (t.counts["barcode.bars"], "count"),
        "dualnum.calls": (t.layer_calls("dualnum"), "count"),
        "dualnum.minimize_s": (t.self_of("dualnum.minimize"), "s"),
        "dualnum.verify_s": (t.self_of("dualnum.HomotopyEquivalence.verify"), "s"),
        "triang.calls": (t.layer_calls("triang"), "count"),
        "triang.cone_s": (t.self_of("triang.cone"), "s"),
        "triang.verify_s": (t.self_of("triang.Triangle.verify"), "s"),
        "triang.splits_s": (t.self_of("triang.splits"), "s"),
        "phantom.calls": (t.layer_calls("phantom"), "count"),
        "phantom.self_s": (t.layer_self("phantom"), "s"),
        "phantom.levels_inspected": (t.counts["phantom.levels_inspected"], "count"),
        "io.parse_s": (t.self_of("io.parse_document", "io.parse_path"), "s"),
        "io.bytes_parsed": (t.counts["io.bytes_parsed"], "bytes"),
        "io.report_s": (sum(s for n, s in zip(t.names, t.self_s)
                            if n == "io.report_json" or n.endswith("_to_json")), "s"),
        "cli.self_s": (t.layer_self("cli"), "s"),
    })
    return out
