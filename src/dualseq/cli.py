"""Command-line front end.

Every subcommand reads a document file, resolves named values out of it, runs
one library operation, and prints either a short human report or, with
``--json``, a stable versioned JSON report. Exit codes: 0 on success, 1 on
parse or validation failure, 2 when a phantom certificate exceeds --depth.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import lru_cache
from typing import Callable, Dict, List, NamedTuple, Optional

from .barcode import Barcode, classify, decompose
from .dualnum import as_complex, cohomology, eps_cohomology, minimize
from .errors import ParseError, StabilizationDepthExceeded, ValidationFailed
from .graded import GradedHomElement
from .hom import get_context
from .io import (Document, barcode_to_json, check_span, complex_to_json,
                 element_to_json, matrix_to_json, morphism_to_json, parse_path,
                 report_json, seq_to_json)
from .phantom import check_derivation, is_phantom, solve_inner
from .seq import Seq
from .triang import cone_object, truncate_above


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags, which this tool reserves
    # for non-stabilization; route usage problems through exit code 1.
    def error(self, message):
        raise _UsageError(message)


def _fmt_matrix(m) -> str:
    return json.dumps(matrix_to_json(m))


def _fmt_element(g: GradedHomElement) -> str:
    parts = [f"{i}: {_fmt_matrix(g.component(i))}"
             for i in range(g.lo, g.hi + 1) if not g.component(i).is_zero]
    return "; ".join(parts) if parts else "0"


def _fmt_seq(v: Seq) -> str:
    dims = " ".join(str(d) for d in v.dims) if v.dims else "-"
    return (f"window [{v.lo},{v.hi}], dims {dims}, "
            f"tails {v.left_tail.name.lower()} {v.right_tail.name.lower()}")


def _barcode_lines(bc: Barcode) -> List[str]:
    items = sorted(bc.counts().items(), key=lambda p: p[0].sort_key)
    if not items:
        return ["(empty)"]
    return [f"{iv} x{k}" for iv, k in items]


def _lookup_deriv(doc: Document, diag_name: str, der_name: str):
    if diag_name not in doc.diagrams:
        raise ValidationFailed(f"unknown diagram {diag_name!r}")
    if der_name not in doc.derivations:
        raise ValidationFailed(f"unknown derivation {der_name!r}")
    der = doc.derivations[der_name]
    diag = doc.diagrams[diag_name]
    if der.diagram is not diag:
        raise ValidationFailed(
            f"derivation {der_name!r} is not defined on diagram {diag_name!r}")
    return diag, der


# Each handler runs one command on a parsed document.  With --json it
# returns the payload of the report, which main puts in the envelope after
# the command and its positional arguments; without, it prints the report.

def _decompose(doc: Document, args) -> Optional[dict]:
    # decompose verifies the certificate it returns
    bc = decompose(doc.seq(args.object))
    if args.json:
        return {"barcode": barcode_to_json(bc), "certificate": "OK"}
    print("\n".join(_barcode_lines(bc)))
    print("certificate: OK")


def _classify(doc: Document, args) -> Optional[dict]:
    c = classify(doc.seq(args.object))
    if args.json:
        return dataclasses.asdict(c)
    for label, val in [("injective", c.injective), ("acyclic", c.acyclic),
                       ("h-projective", c.h_projective),
                       ("indecomposable", c.indecomposable)]:
        print(f"{label}: {'yes' if val else 'no'}")
    print(f"bounded class: {c.bounded_class}")


def _hom(doc: Document, args) -> Optional[dict]:
    ctx = get_context(doc.seq(args.src), doc.seq(args.dst))
    hb = ctx.hom_basis()
    eb = ctx.eps_basis()
    if args.json:
        return {"dim_hom": ctx.dim_hom, "dim_eps": ctx.dim_eps,
                "hom_basis": [element_to_json(g) for g in hb],
                "eps_basis": [element_to_json(g) for g in eb],
                "certificate": {"window": [ctx.L, ctx.R], "margin": ctx.margin}}
    print(f"dim Hom_1: {ctx.dim_hom}")
    print(f"dim Hom_eps: {ctx.dim_eps}")
    for t, g in enumerate(hb):
        print(f"one[{t}]  {_fmt_element(g)}")
    for t, g in enumerate(eb):
        print(f"eps[{t}]  {_fmt_element(g)}")
    print(f"certificate: window [{ctx.L}, {ctx.R}], margin {ctx.margin}")


def _cone(doc: Document, args) -> Optional[dict]:
    u = cone_object(doc.morphism(args.morphism))
    bc = decompose(u)
    if args.json:
        return {"cone": seq_to_json(u), "barcode": barcode_to_json(bc)}
    print(f"cone: {_fmt_seq(u)}")
    print("\n".join(_barcode_lines(bc)))


def _minimize(doc: Document, args) -> Optional[dict]:
    # minimize verifies its homotopy equivalence
    nm, _ = minimize(doc.complex(args.complex))
    if args.json:
        return {"minimal": complex_to_json(as_complex(nm)), "certificates": "OK"}
    if sum(nm.ranks) == 0:
        desc = "0"
    else:
        ranks = " ".join(str(r) for r in nm.ranks)
        desc = f"ranks {ranks} (degrees {nm.lo}..{nm.hi})"
    print(f"minimal model: {desc}; certificates: OK")


def _cohomology(doc: Document, args) -> Optional[dict]:
    # one entry per degree of a window, which is never empty
    name = args.object
    if name in doc.complexes:
        h = eps_cohomology(doc.complexes[name])
    else:
        h = cohomology(doc.seq(name))
    if args.json:
        return {"cohomology": {str(i): h[i] for i in sorted(h)}}
    print(", ".join(f"H^{i}: {h[i]}" for i in sorted(h)))


def _phantom(doc: Document, args) -> Optional[dict]:
    verdict = is_phantom(doc.morphism(args.morphism), depth=args.depth)
    cert = verdict.certificate
    if args.json:
        out = {"phantom": verdict.phantom, "reason": verdict.reason}
        if cert is not None:
            out["levels"] = [[n, d] for n, d in cert.levels]
        return out
    print(f"phantom: {'yes' if verdict.phantom else 'no'} ({verdict.reason})")
    if cert is not None:
        print(cert)


def _truncate(doc: Document, args) -> Optional[dict]:
    v = doc.seq(args.object)
    # truncate_above builds the degrees from n up to the top of v
    check_span(args.n, max(args.n, v.hi), "truncation window")
    t = truncate_above(v, args.n)
    bc = decompose(t)
    if args.json:
        return {"truncation": seq_to_json(t), "barcode": barcode_to_json(bc)}
    print(f"truncation: {_fmt_seq(t)}")
    print("\n".join(_barcode_lines(bc)))


def _derivation_check(doc: Document, args) -> Optional[dict]:
    bad = check_derivation(*_lookup_deriv(doc, args.diagram, args.derivation))
    if args.json:
        return {"ok": bad is None, "violated": list(bad) if bad is not None else None}
    if bad is None:
        print("OK")
    else:
        outer, inner, equals = bad
        print(f"violated: {outer} {inner} = {equals}")


def _inner_solve(doc: Document, args) -> Optional[dict]:
    theta = solve_inner(*_lookup_deriv(doc, args.diagram, args.derivation))
    if args.json:
        out = {"inner": theta is not None}
        if theta is not None:
            out["theta"] = {name: morphism_to_json(h)
                            for name, h in sorted(theta.items())}
        return out
    if theta is None:
        print("not inner")
    else:
        print("inner")
        for name in sorted(theta):
            print(f"theta[{name}]  {_fmt_element(theta[name].feps)}")


class _Command(NamedTuple):
    run: Callable[[Document, argparse.Namespace], Optional[dict]]
    args: Dict[str, type]                      # positional, after the document
    options: Dict[str, object] = {}            # flag: default, of the default's type


# Every command once: the parser is built from this table, and a JSON report
# echoes the command and its positional arguments.
_COMMANDS = {
    "decompose": _Command(_decompose, {"object": str}),
    "classify": _Command(_classify, {"object": str}),
    "hom": _Command(_hom, {"src": str, "dst": str}),
    "cone": _Command(_cone, {"morphism": str}),
    "minimize": _Command(_minimize, {"complex": str}),
    "cohomology": _Command(_cohomology, {"object": str}),
    "phantom": _Command(_phantom, {"morphism": str}, {"--depth": 12}),
    "truncate": _Command(_truncate, {"object": str, "n": int}),
    "derivation-check": _Command(_derivation_check, {"diagram": str, "derivation": str}),
    "inner-solve": _Command(_inner_solve, {"diagram": str, "derivation": str}),
}

# The report prefix and exit code of each error; 2 is reserved for a
# phantom certificate deeper than --depth.
_ERRORS = {
    _UsageError: ("usage error", 1),
    ParseError: ("parse error", 1),
    ValidationFailed: ("validation error", 1),      # NotExact included
    StabilizationDepthExceeded: ("stabilization error", 2),
    OSError: ("io error", 1),
}


# argparse keeps no state between parse_args calls (each call fills a fresh
# Namespace), so in-process callers such as tests share one parser.
@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    parser = _Parser(prog="dualseq", description=__doc__)
    common = _Parser(add_help=False)
    common.add_argument("document", help="path to a document file")
    common.add_argument("--json", action="store_true",
                        help="emit a versioned JSON report")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for arg, kind in cmd.args.items():
            p.add_argument(arg, type=kind)
        for flag, default in cmd.options.items():
            p.add_argument(flag, type=type(default), default=default)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cmd = _COMMANDS[args.command]
        payload = cmd.run(parse_path(args.document), args)
        if args.json:
            echo = {arg: getattr(args, arg) for arg in cmd.args}
            print(report_json({"command": args.command, **echo, **payload}))
        return 0
    except tuple(_ERRORS) as e:
        prefix, code = next(v for t, v in _ERRORS.items() if isinstance(e, t))
        print(f"{prefix}: {e}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
