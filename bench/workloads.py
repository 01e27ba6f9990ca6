"""Seeded inputs, timed ops and answer checks for the three benchmark workloads.

Every sequence is generated from a known barcode and then scrambled by a
basis change, so the expected answers come from the bars and not from the
code being timed.  A workload is a fixed list of ops that the runner cycles
through; each op is one closed-loop request (run) plus an answer check that
runs outside the timed span.

Library calls inside ops go through module attributes (``hom.get_context``,
``cli.main``) so that the tracer's rebinding of those names is seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, List, Optional

from dualseq import (barcode, cli, gen, graded, hom, linalg, phantom, seq,
                     triang)

F2 = linalg.Field.prime(2)
F5 = linalg.Field.prime(5)
Q = linalg.Field.rationals()
NEG_INF, POS_INF = seq.NEG_INF, seq.POS_INF

# The original lru_cache object, kept before any tracer rebinds the name.
CONTEXT_CACHE = hom.get_context

@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    name: str
    ops: List[Op]
    summary: dict
    warmup: int                                  # ops run once during set-up
    trace_passes: int = 1                        # passes in each traced phase
    before_op: Optional[Callable[[], None]] = None   # untimed, before every op
    on_cycle: Optional[Callable[[], None]] = None    # untimed, before every pass
    cleanup: Optional[Callable[[], None]] = None


def clear_context_cache() -> None:
    clear = getattr(CONTEXT_CACHE, "cache_clear", None)
    if clear is not None:
        clear()


def cache_counts() -> tuple:
    """(hits, misses) of the hom context cache, or (0, 0) without one."""
    info = getattr(CONTEXT_CACHE, "cache_info", None)
    if info is None:
        return (0, 0)
    ci = info()
    return (ci.hits, ci.misses)


# -- answers from bars ---------------------------------------------------


def assembled(field, bars):
    """The normal-form sequence with the given bars."""
    return barcode.assemble(barcode.make_barcode(
        field, [barcode.Interval(a, b) for a, b in bars]))


def scramble(rng, v):
    """``v`` conjugated by random basis changes.  Next to an Iso tail the
    basis stays fixed, because the tail maps are fixed signed identities."""
    if v.is_zero_object:
        return v
    f = v.field
    iso = seq.Tail.ISO
    u = {i: (linalg.Matrix.identity(f, v.dim(i))
             if (i == v.lo and v.left_tail is iso) or (i == v.hi and v.right_tail is iso)
             else gen.random_invertible(rng, f, v.dim(i)))
         for i in range(v.lo, v.hi + 1)}
    maps = [u[i + 1] @ v.map_at(i) @ linalg.inverse(u[i]) for i in range(v.lo, v.hi)]
    return seq.make_seq(f, v.lo, v.dims, maps, v.left_tail, v.right_tail)


def random_bars(rng, field, max_bars, lo=-4, hi=4) -> list:
    bc = gen.random_barcode(rng, field, max_bars, lo, hi)
    return [(iv.a, iv.b) for iv in bc.intervals]


def hom_dims(bars_v, bars_w) -> tuple:
    """dim Hom([a,b] -> [c,d]) = [c <= a <= d <= b] and
    dim Hom_eps = [a <= c <= b <= d, c > -inf, b < inf], summed over pairs."""
    one = sum(c <= a <= d <= b for a, b in bars_v for c, d in bars_w)
    eps = sum(a <= c <= b <= d and c != NEG_INF and b != POS_INF
              for a, b in bars_v for c, d in bars_w)
    return one, eps


def bar_counts(bars) -> dict:
    """Multiplicities keyed as the CLI prints bars, e.g. ``[-inf,2]``."""
    return dict(Counter(f"[{_end(a)},{_end(b)}]" for a, b in bars))


def _end(x) -> str:
    if x == NEG_INF:
        return "-inf"
    if x == POS_INF:
        return "inf"
    return str(int(x))


def truncated_bars(bars, n: int) -> list:
    """Bars of the truncation keeping degrees >= n."""
    return [(max(a, n), b) for a, b in bars if b >= n]


def shifted_bars(bars, k: int) -> list:
    return [(a + k, b + k) for a, b in bars]


def seq_cohomology(bars) -> dict:
    """H^i of a sequence counts the bar endpoints at i."""
    out = Counter()
    for a, b in bars:
        for x in (a, b):
            if x not in (NEG_INF, POS_INF):
                out[int(x)] += 1
    return dict(out)


def minimal_cohomology(bars) -> dict:
    """Cohomology of the total complex of the minimal complex D = eps * d_V,
    V assembled from finite bars: 2 dim V^i - rk d^i - rk d^(i-1)."""
    def dim(i):
        return sum(a <= i <= b for a, b in bars)

    def rk(i):
        return sum(a <= i and i + 1 <= b for a, b in bars)

    lo = min(a for a, _ in bars)
    hi = max(b for _, b in bars)
    out = {i: 2 * dim(i) - rk(i) - rk(i - 1) for i in range(lo, hi + 1)}
    return {i: h for i, h in out.items() if h}


def classify_from_bars(bars) -> dict:
    ends_inf = any(b == POS_INF for _, b in bars)
    starts_inf = any(a == NEG_INF for a, _ in bars)
    return {
        "injective": all(a == NEG_INF for a, _ in bars),
        "acyclic": all(a == NEG_INF and b == POS_INF for a, b in bars),
        "h_projective": not ends_inf,
        "bounded_class": "plus" if ends_inf else ("b" if starts_inf else "sb"),
        "indecomposable": len(bars) == 1,
    }


def _nonzero(d: dict) -> dict:
    return {int(k): v for k, v in d.items() if v}


# -- hom_cold --------------------------------------------------------------


def window_size(v, w, margin: int = 3) -> int:
    """N = sum_i dim V^i dim W^i over the hom window at the base margin.
    Used only to stratify inputs by size."""
    lo = min(v.lo, w.lo - 1) - margin
    hi = max(v.hi, w.hi + 1) + margin
    return sum(v.dim(i) * w.dim(i) for i in range(lo, hi + 1))


# One pass over the pool visits every slot of this schedule, in this order,
# POOL_CYCLES times.  (field, N band, max bars per sequence, slots).  The
# bands are narrow so that the cost mix, and with it p50 and p95, is nearly
# the same for every seed: p50 falls inside the F2 N 52..60 slots and p95
# inside the largest F2 band, which holds 3 of every 19 ops.  Each round of
# the schedule has the whole mix, so a partial pass measures the same mix.
# Q elimination runs on growing Fractions (one scrambled Q pair at N ~ 104
# took 10.9 s), so Q pairs stay at N <= 24.
HOM_SCHEDULE = [
    ("F2", 1, 16, 4, 2), ("F5", 1, 16, 3, 1), ("Q", 1, 8, 2, 1),
    ("F2", 17, 40, 6, 1), ("F5", 17, 40, 5, 1), ("Q", 9, 16, 3, 1),
    ("F2", 52, 60, 8, 4), ("F5", 48, 64, 7, 2),
    ("F2", 80, 100, 9, 1), ("F5", 80, 100, 8, 1), ("Q", 17, 24, 3, 1),
    ("F2", 116, 124, 10, 3),
]
POOL_CYCLES = 14
FIELDS = {"F2": F2, "F5": F5, "Q": Q}


def _pair_in_band(shape, rng, field, n_lo, n_hi, max_bars):
    """Bars drawn from ``shape`` with N in [n_lo, n_hi], scrambled with ``rng``."""
    for _ in range(5000):
        bv, bw = random_bars(shape, field, max_bars), random_bars(shape, field, max_bars)
        v, w = assembled(field, bv), assembled(field, bw)
        n = window_size(v, w)
        if n_lo <= n <= n_hi:
            return scramble(rng, v), scramble(rng, w), bv, bw, n
    raise RuntimeError(f"no pair with N in [{n_lo}, {n_hi}]")


def _hom_op(v, w):
    ctx = hom.get_context(v, w)
    return (ctx.dim_hom, ctx.dim_eps, len(ctx.hom_basis()), len(ctx.eps_basis()))


def build_hom_cold(seed: int) -> Workload:
    # the bars of the pool are the same for every seed and the seed draws the
    # basis changes, so the cost of a pass hardly depends on the seed
    shape, rng = random.Random(0), random.Random(seed)
    ops, sizes = [], []
    for _ in range(POOL_CYCLES):
        for fname, n_lo, n_hi, max_bars, slots in HOM_SCHEDULE:
            for _ in range(slots):
                v, w, bv, bw, n = _pair_in_band(shape, rng, FIELDS[fname], n_lo, n_hi,
                                                max_bars)
                one, eps = hom_dims(bv, bw)
                ops.append(Op(f"hom {fname} N={n}", partial(_hom_op, v, w),
                              partial(_is, (one, eps, one, eps))))
                sizes.append((fname, n))
    ns = sorted(n for _, n in sizes)
    summary = {
        "pairs": len(ops),
        "pairs_by_field": dict(Counter(f for f, _ in sizes)),
        "N_quartiles": statistics.quantiles(ns, n=4),
        "N_min": ns[0], "N_max": ns[-1],
        "N_bands": [f"{f}:{lo}-{hi}x{k}" for f, lo, hi, _, k in HOM_SCHEDULE],
        "Q_N_max": max(n for f, n in sizes if f == "Q"),
    }
    # every pass starts cold: contexts of the previous pass are dropped
    return Workload("hom_cold", ops, summary, warmup=3, on_cycle=clear_context_cache)


# -- cli_docs --------------------------------------------------------------


def _mat(m) -> str:
    return "[" + ", ".join("[" + ", ".join(str(x) for x in m.row(r)) + "]"
                           for r in range(m.rows)) + "]"


def _seq_text(name: str, v) -> str:
    out = [f"seq {name} {{", f"  window {v.lo} {v.hi}",
           "  dims " + " ".join(str(d) for d in v.dims)]
    for k, m in enumerate(v.maps):
        if not m.is_zero:
            out.append(f"  map {v.lo + k} {_mat(m)}")
    out.append(f"  tails {v.left_tail.name.lower()} {v.right_tail.name.lower()}")
    return "\n".join(out) + "\n}\n"


def _element_lines(key: str, g) -> list:
    return [f"  {key} {i} {_mat(g.component(i))}"
            for i in range(g.lo, g.hi + 1) if not g.component(i).is_zero]


def _mor_text(name, src, dst, window, one=None, eps=None, constant=False) -> str:
    out = [f"mor {name} : {src} -> {dst} {{", f"  window {window[0]} {window[1]}"]
    if one is not None:
        out += _element_lines("one", one)
    if eps is not None:
        out += _element_lines("eps", eps)
    if constant:
        out.append("  tails constant")
    return "\n".join(out) + "\n}\n"


def _random_element(rng, basis, zero, field):
    out = zero
    for b in basis:
        out = out + b.scale(gen.random_scalar(rng, field))
    return out


def _minimal_complex_text(shape, rng, field, bars):
    """Complex C = M (+) contractible pieces, scrambled per degree, where M
    is the minimal complex D = eps * d_V of V = assemble(bars)."""
    v = assembled(field, bars)
    lo, hi = v.lo - 1, v.hi + 1
    piece = {i: shape.randint(0, 1) for i in range(lo, hi)}   # k[eps] -> k[eps] at i
    piece[lo - 1] = piece[hi] = 0
    Z = linalg.Matrix.zeros
    ranks = [v.dim(i) + piece[i] + piece[i - 1] for i in range(lo, hi + 1)]

    def sizes(i):
        return (v.dim(i), piece[i], piece[i - 1])

    d1s, depss = [], []
    for i in range(lo, hi):
        src, dst = sizes(i), sizes(i + 1)
        grid1 = [[Z(field, r, c) for c in src] for r in dst]
        grid1[2][1] = linalg.Matrix.identity(field, piece[i])
        gride = [[Z(field, r, c) for c in src] for r in dst]
        gride[0][0] = v.map_at(i)
        d1s.append(linalg.block_matrix(field, grid1))
        depss.append(linalg.block_matrix(field, gride))
    u = [gen.random_invertible(rng, field, r) for r in ranks]
    uinv = [linalg.inverse(m) for m in u]
    d1s = [u[k + 1] @ d1s[k] @ uinv[k] for k in range(len(d1s))]
    depss = [u[k + 1] @ depss[k] @ uinv[k] for k in range(len(depss))]
    out = ["complex C {", f"  degree {lo}", "  ranks " + " ".join(map(str, ranks))]
    for k in range(len(d1s)):
        if not d1s[k].is_zero:
            out.append(f"  d1 {lo + k} {_mat(d1s[k])}")
        if not depss[k].is_zero:
            out.append(f"  deps {lo + k} {_mat(depss[k])}")
    ranks_m = {i: v.dim(i) for i in range(v.lo, v.hi + 1) if v.dim(i)}
    return "\n".join(out) + "\n}\n", ranks_m


def _seq_where(shape, rng, field, max_bars, keep, lo=-3, hi=3):
    """The first bars drawn from ``shape`` that satisfy ``keep``, and their
    sequence scrambled with ``rng``."""
    while True:
        bars = random_bars(shape, field, max_bars, lo, hi)
        if keep(bars):
            return scramble(rng, assembled(field, bars)), bars


def _finite_bars(rng, k, lo=-3, hi=3) -> list:
    out = []
    for _ in range(k):
        a = rng.randint(lo, hi)
        out.append((a, rng.randint(a, hi)))
    return out


def _doc(shape, rng, field, bars, n_lo, n_hi):
    """Documents over one field: (purpose, text, [(argv, check kind, answer)]).

    ``shape`` draws the bars and the truncation degree, ``rng`` the basis
    changes and morphism coefficients.  Every hom window of the documents'
    morphisms (X-X, X-Y, Y-Y, P-P) has N in [n_lo, n_hi].
    """
    def fits(*pairs):
        return all(n_lo <= window_size(*(assembled(field, b) for b in pair)) <= n_hi
                   for pair in pairs)

    x, bx = _seq_where(shape, rng, field, bars,
                       lambda b: len(b) == bars and fits((b, b)))
    y, by = _seq_where(shape, rng, field, bars, lambda b: len(b) == bars
                       and hom_dims(bx, b)[0] > 0 and fits((b, b), (bx, b)))
    p, _ = _seq_where(shape, rng, field, 2, lambda b: len(b) == 2
                      and any(a == NEG_INF for a, _ in b)
                      and all(e != POS_INF for _, e in b) and fits((b, b)))
    bm = _finite_bars(shape, bars)
    complex_text, ranks_m = _minimal_complex_text(shape, rng, field, bm)

    zero_xy = graded.zero_element(x, y, 0)
    f1 = zero_xy
    while f1.is_zero:
        f1 = _random_element(rng, hom.get_context(x, y).hom_basis(), zero_xy, field)
    fxy = hom.hat(f1)
    theta = [hom.hat_eps(_random_element(rng, hom.get_context(s, s).eps_basis(),
                                         graded.zero_element(s, s, 0), field))
             for s in (x, y)]
    dfx = (hom.compose_hat(fxy, theta[0]) - hom.compose_hat(theta[1], fxy)).feps
    ident = graded.identity_element
    n = shape.randint(x.lo, x.hi + 1)
    head = f"field {'Q' if field.p is None else field.p}\n"
    sx, sy, sp = _seq_text("X", x), _seq_text("Y", y), _seq_text("P", p)
    ix = _mor_text("ix", "X", "X", (x.lo, x.hi), one=ident(x), constant=True)
    # one document per purpose, so a query parses only what it needs
    return [
        ("seqs", "\n".join([head, sx, sy]), [
            (["decompose", "X"], "bars", bar_counts(bx)),
            (["classify", "Y"], "classify", classify_from_bars(by)),
            (["hom", "X", "Y"], "hom", hom_dims(bx, by)),
            (["cohomology", "X"], "cohomology", seq_cohomology(bx)),
            (["truncate", "X", str(n)], "bars_after_header",
             bar_counts(truncated_bars(bx, n))),
        ]),
        ("maps", "\n".join([head, sx, sy, sp, ix,
                            _mor_text("z", "X", "Y", (x.lo, x.hi)),
                            _mor_text("zyx", "Y", "X", (y.lo, y.hi)),
                            _mor_text("zxx", "X", "X", (x.lo, x.hi)),
                            _mor_text("ip", "P", "P", (p.lo, p.hi), one=ident(p),
                                      constant=True),
                            _mor_text("zp", "P", "P", (p.lo, p.hi))]), [
            # cone of 0: X -> Y is X (+) Y[-1]; the cone of an identity is zero
            (["cone", "z"], "bars_after_header", bar_counts(bx + shifted_bars(by, 1))),
            (["cone", "zyx"], "bars_after_header", bar_counts(by + shifted_bars(bx, 1))),
            (["cone", "zxx"], "bars_after_header", bar_counts(bx + shifted_bars(bx, 1))),
            (["cone", "ix"], "bars_after_header", {}),
            (["phantom", "zp"], "phantom", True),
            (["phantom", "ip"], "phantom", False),
        ]),
        ("complex", "\n".join([head, complex_text]), [
            (["minimize", "C"], "minimize", ranks_m),
            (["cohomology", "C"], "cohomology", minimal_cohomology(bm)),
        ]),
        ("diagram", "\n".join([
            head, sx, sy, ix,
            _mor_text("fxy", "X", "Y", (f1.lo, f1.hi), one=f1, constant=True),
            _mor_text("dfx", "X", "Y", (dfx.lo, dfx.hi), eps=dfx),
            "diagram D {\n  objects X, Y\n  gen f : X -> Y = fxy\n"
            "  gen i : X -> X = ix\n  rel f i = f\n}\n",
            "derivation T on D {\n  D f = dfx\n}\n"]), [
            (["derivation-check", "D", "T"], "ok", True),
            (["inner-solve", "D", "T"], "inner", True),
        ]),
    ]


def _bar_lines(lines) -> dict:
    if lines == ["(empty)"]:
        return {}
    out = {}
    for line in lines:
        bar, k = line.split(" x")
        out[bar] = int(k)
    return out


def _ranks_map(lo, ranks) -> dict:
    return {lo + k: r for k, r in enumerate(ranks) if r}


def _check_json(kind, want, rep) -> bool:
    if kind == "bars":
        return rep["certificate"] == "OK" and rep["barcode"]["counts"] == want
    if kind == "bars_after_header":
        return rep["barcode"]["counts"] == want
    if kind == "classify":
        return all(rep[k] == v for k, v in want.items())
    if kind == "hom":
        return ((rep["dim_hom"], rep["dim_eps"]) == want
                and (len(rep["hom_basis"]), len(rep["eps_basis"])) == want)
    if kind == "minimize":
        m = rep["minimal"]
        return rep["certificates"] == "OK" and _ranks_map(m["degree"], m["ranks"]) == want
    if kind == "cohomology":
        return _nonzero(rep["cohomology"]) == want
    return rep[kind] is want          # phantom, ok, inner


def _check_human(kind, want, lines) -> bool:
    if kind == "bars":
        return lines[-1] == "certificate: OK" and _bar_lines(lines[:-1]) == want
    if kind == "bars_after_header":
        return _bar_lines(lines[1:]) == want
    if kind == "classify":
        yes = {True: "yes", False: "no"}
        return set(lines) == {
            f"injective: {yes[want['injective']]}",
            f"acyclic: {yes[want['acyclic']]}",
            f"h-projective: {yes[want['h_projective']]}",
            f"indecomposable: {yes[want['indecomposable']]}",
            f"bounded class: {want['bounded_class']}"}
    if kind == "hom":
        return lines[:2] == [f"dim Hom_1: {want[0]}", f"dim Hom_eps: {want[1]}"]
    if kind == "minimize":
        if not want:
            return lines == ["minimal model: 0; certificates: OK"]
        lo, hi = min(want), max(want)
        ranks = " ".join(str(want.get(i, 0)) for i in range(lo, hi + 1))
        return lines == [f"minimal model: ranks {ranks} (degrees {lo}..{hi}); "
                         "certificates: OK"]
    if kind == "cohomology":
        got = {}
        if lines != ["0"]:
            for part in lines[0].split(", "):
                deg, h = part[2:].split(": ")
                got[int(deg)] = int(h)
        return _nonzero(got) == want
    if kind == "phantom":
        return lines[0].startswith(f"phantom: {'yes' if want else 'no'} ")
    if kind == "ok":
        return lines == ["OK"]
    return lines[0] == "inner"


def _cli_op(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_check(kind, want, as_json, result) -> bool:
    code, out = result
    if code != 0:
        return False
    if as_json:
        return _check_json(kind, want, json.loads(out))
    return _check_human(kind, want, out.splitlines())


# (field, bars per sequence, band of every hom window N) per document set.
# The bars of set k are the same for every seed, drawn from Random(k): the
# seed draws basis changes and coefficients, so the work per query, and with
# it p50 and p95, hardly depends on the seed.
CLI_DOCS = [(F5, 3, 12, 30), (Q, 2, 6, 12)] * 8


def build_cli_docs(seed: int, workdir: Path) -> Workload:
    rng = random.Random(seed)
    docdir = workdir / f"docs-{seed}"
    docdir.mkdir(parents=True, exist_ok=True)
    ops, doc_bytes = [], Counter()
    for k, (field, bars, n_lo, n_hi) in enumerate(CLI_DOCS):
        for purpose, text, queries in _doc(random.Random(k), rng, field, bars,
                                           n_lo, n_hi):
            path = docdir / f"{purpose}{k}.txt"
            path.write_text(text)
            for argv, kind, want in queries:
                doc_bytes[argv[0]] += len(text.encode())
                for flag in ([], ["--json"]):
                    ops.append(Op(" ".join([argv[0], path.name, *argv[1:], *flag]),
                                  partial(_cli_op, [argv[0], str(path), *argv[1:], *flag]),
                                  partial(_cli_check, kind, want, bool(flag))))
    # in random order every prefix of a pass, so also a run that ends in
    # mid-pass, samples the whole mix
    rng.shuffle(ops)
    summary = {
        "document_sets": [f"{'Q' if f.p is None else 'F%d' % f.p}, {b} bars, "
                          f"N {lo}-{hi}" for f, b, lo, hi in CLI_DOCS],
        "queries": len(ops),
        "document_bytes_per_command": dict(doc_bytes),
    }
    # each query starts as cold as a fresh process (import cost is set-up)
    return Workload("cli_docs", ops, summary, warmup=28,
                    before_op=clear_context_cache,
                    cleanup=partial(shutil.rmtree, docdir, True))


# -- hatcat_warm -------------------------------------------------------------


def _rand_hat(rng, x, y, with_eps=True):
    ctx = hom.get_context(x, y)
    zero = graded.zero_element(x, y, 0)
    f1 = _random_element(rng, ctx.hom_basis(), zero, x.field)
    feps = _random_element(rng, ctx.eps_basis(), zero, x.field) if with_eps else None
    return hom.hat(f1, feps)


# The hatcat_warm pool: intervals, rays and sums of them.  The bars are the
# same for every seed; the seed scrambles the sums and draws the operands.
HAT_POOL = [
    [(0, 0)], [(0, 1)], [(-1, 1)],
    [(NEG_INF, 0)], [(NEG_INF, 1)], [(0, POS_INF)],
    [(NEG_INF, 0), (0, 1)], [(-1, 0), (0, 1)],
    [(-1, 1), (0, 1), (1, 2)], [(-1, POS_INF), (0, 0)],
]


def _compose_op(g, f):
    return hom.compose_hat(g, f)


def _compose_check(h, g, f, gf) -> bool:
    # associativity, evaluated outside the timed span
    return hom.compose_hat(h, gf) == hom.compose_hat(hom.compose_hat(h, g), f)


def _cone_op(h):
    triang.cone_triangle(h).verify()
    return True


def _extension_op(f):
    return triang.splits(triang.extension_from_eps(f)) is not None


def _truncation_op(v, n):
    triang.truncation_triangle(v, n).verify()
    return True


def _phantom_op(v, w):
    return phantom.phantom_basis(v, w)


def _phantom_check(result) -> bool:
    basis, cert = result
    return cert.levels[-1][1] == len(basis) and all(b.is_type_eps for b in basis)


def _inner_op(diag, der):
    return phantom.check_derivation(diag, der), phantom.solve_inner(diag, der)


def _inner_check(diag, der, result) -> bool:
    bad, theta = result
    return (bad is None and theta is not None
            and phantom.inner_derivation(diag, theta).assignment == der.assignment)


def _is(want, got) -> bool:
    return got == want


HATCAT_ROUNDS = 16


def build_hatcat_warm(seed: int) -> Workload:
    rng = random.Random(seed)
    pool = [scramble(rng, assembled(F5, bars)) for bars in HAT_POOL]
    left_iso = [v for v in pool if v.left_tail is seq.Tail.ISO
                and v.right_tail is seq.Tail.ZERO]
    h_proj = [v for v in pool if v.right_tail is seq.Tail.ZERO]
    pick = rng.choice
    ops = []
    for _ in range(HATCAT_ROUNDS):
        x, y, z, w = (pick(pool) for _ in range(4))
        f, g, h = _rand_hat(rng, x, y), _rand_hat(rng, y, z), _rand_hat(rng, z, w)
        ops.append(Op("compose_hat", partial(_compose_op, g, f),
                      partial(_compose_check, h, g, f)))

        ops.append(Op("cone_triangle.verify", partial(_cone_op, _rand_hat(rng, x, y)),
                      partial(_is, True)))

        x, y = pick(pool), pick(pool)
        ctx = hom.get_context(x, y)
        coeffs = [gen.random_scalar(rng, F5) if rng.random() < 0.5 else 0
                  for _ in range(ctx.dim_eps)]
        cls = graded.zero_element(x, y, 0)
        for c, e in zip(coeffs, ctx.eps_basis()):
            cls = cls + e.scale(c)
        # a random coboundary does not change the class
        f = cls + graded.differential(gen.random_graded_element(rng, x, y, -1))
        ops.append(Op("extension_from_eps+splits", partial(_extension_op, f),
                      partial(_is, not any(coeffs))))

        v = pick(pool)
        ops.append(Op("truncation_triangle.verify",
                      partial(_truncation_op, v, rng.randint(v.lo - 1, v.hi + 1)),
                      partial(_is, True)))

        ops.append(Op("phantom_basis", partial(_phantom_op, pick(left_iso), pick(h_proj)),
                      _phantom_check))

        a, b, c = (pick(pool) for _ in range(3))
        f = _rand_hat(rng, a, b, with_eps=False)
        g = _rand_hat(rng, b, c, with_eps=False)
        diag = phantom.Diagram(
            objects={"A": a, "B": b, "C": c},
            generators={"f": ("A", "B", f), "g": ("B", "C", g),
                        "gf": ("A", "C", hom.compose_hat(g, f))},
            relations=(("g", "f", "gf"),))
        theta = {nm: hom.hat_eps(_random_element(
                     rng, hom.get_context(s, s).eps_basis(),
                     graded.zero_element(s, s, 0), F5))
                 for nm, s in diag.objects.items()}
        der = phantom.inner_derivation(diag, theta)
        ops.append(Op("check_derivation+solve_inner", partial(_inner_op, diag, der),
                      partial(_inner_check, diag, der)))
    summary = {
        "field": "F5",
        "pool_size": len(pool),
        "pool_bars": [len(bars) for bars in HAT_POOL],
        "ops_per_pass": len(ops),
        "ops_by_type": dict(Counter(op.label for op in ops)),
    }
    # set-up runs one full pass, so the measured phase starts with a warm cache
    return Workload("hatcat_warm", ops, summary, warmup=len(ops), trace_passes=10)


BUILDERS = {
    "hom_cold": lambda seed, workdir: build_hom_cold(seed),
    "cli_docs": build_cli_docs,
    "hatcat_warm": lambda seed, workdir: build_hatcat_warm(seed),
}
