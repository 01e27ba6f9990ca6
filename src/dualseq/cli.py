"""Command-line front end.

Every subcommand reads a document file, resolves named values out of it, runs
one library operation, and prints either a short human report or, with
``--json``, a stable versioned JSON report. Exit codes: 0 on success, 1 on
parse or validation failure, 2 when a phantom chain fails to stabilize.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import List, Optional

from .barcode import Barcode, classify, decompose
from .dualnum import as_complex, cohomology, eps_cohomology, minimize
from .errors import (NotExact, ParseError, StabilizationDepthExceeded,
                     ValidationFailed)
from .graded import GradedHomElement
from .hom import get_context
from .io import (Document, barcode_to_json, check_span, complex_to_json,
                 element_to_json, matrix_to_json, morphism_to_json, parse_path,
                 report_json, seq_to_json)
from .phantom import check_derivation, is_phantom, solve_inner
from .seq import Seq
from .triang import cone, truncate_above


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


def _cmd_decompose(doc: Document, args) -> dict:
    # decompose verifies the certificate it returns
    bc = decompose(doc.seq(args.object))
    if args.json:
        return {"command": "decompose", "object": args.object,
                "barcode": barcode_to_json(bc), "certificate": "OK"}
    for line in _barcode_lines(bc):
        print(line)
    print("certificate: OK")
    return {}


def _cmd_classify(doc: Document, args) -> dict:
    v = doc.seq(args.object)
    c = classify(v)
    if args.json:
        return {"command": "classify", "object": args.object,
                "injective": c.injective, "acyclic": c.acyclic,
                "h_projective": c.h_projective,
                "bounded_class": c.bounded_class,
                "finitely_generated_degreewise": c.finitely_generated_degreewise,
                "indecomposable": c.indecomposable}
    for label, val in [("injective", c.injective), ("acyclic", c.acyclic),
                       ("h-projective", c.h_projective),
                       ("indecomposable", c.indecomposable)]:
        print(f"{label}: {'yes' if val else 'no'}")
    print(f"bounded class: {c.bounded_class}")
    return {}


def _cmd_hom(doc: Document, args) -> dict:
    v = doc.seq(args.src)
    w = doc.seq(args.dst)
    ctx = get_context(v, w)
    hb = ctx.hom_basis()
    eb = ctx.eps_basis()
    cert = ctx.certificate
    if args.json:
        return {"command": "hom", "src": args.src, "dst": args.dst,
                "dim_hom": ctx.dim_hom, "dim_eps": ctx.dim_eps,
                "hom_basis": [element_to_json(g) for g in hb],
                "eps_basis": [element_to_json(g) for g in eb],
                "certificate": {"window": list(cert.window), "margin": cert.margin}}
    print(f"dim Hom_1: {ctx.dim_hom}")
    print(f"dim Hom_eps: {ctx.dim_eps}")
    for t, g in enumerate(hb):
        print(f"one[{t}]  {_fmt_element(g)}")
    for t, g in enumerate(eb):
        print(f"eps[{t}]  {_fmt_element(g)}")
    print(f"certificate: window [{cert.window[0]}, {cert.window[1]}], "
          f"margin {cert.margin}")
    return {}


def _cmd_cone(doc: Document, args) -> dict:
    h = doc.morphism(args.morphism)
    u, _, _ = cone(h)
    bc = decompose(u)
    if args.json:
        return {"command": "cone", "morphism": args.morphism,
                "cone": seq_to_json(u), "barcode": barcode_to_json(bc)}
    print(f"cone: {_fmt_seq(u)}")
    for line in _barcode_lines(bc):
        print(line)
    return {}


def _cmd_minimize(doc: Document, args) -> dict:
    c = doc.complex(args.complex)
    nm, _ = minimize(c)   # minimize verifies its homotopy equivalence
    total = sum(nm.ranks)
    if total == 0:
        desc = "0"
    else:
        ranks = " ".join(str(r) for r in nm.ranks)
        desc = f"ranks {ranks} (degrees {nm.lo}..{nm.hi})"
    if args.json:
        return {"command": "minimize", "complex": args.complex,
                "minimal": complex_to_json(as_complex(nm)),
                "certificates": "OK"}
    print(f"minimal model: {desc}; certificates: OK")
    return {}


def _cmd_cohomology(doc: Document, args) -> dict:
    name = args.object
    if name in doc.complexes:
        h = eps_cohomology(doc.complexes[name])
    else:
        h = cohomology(doc.seq(name))
    if args.json:
        return {"command": "cohomology", "object": name,
                "cohomology": {str(i): h[i] for i in sorted(h)}}
    if not h:
        print("0")
    else:
        print(", ".join(f"H^{i}: {h[i]}" for i in sorted(h)))
    return {}


def _cmd_phantom(doc: Document, args) -> dict:
    h = doc.morphism(args.morphism)
    verdict = is_phantom(h, depth=args.depth)
    cert = str(verdict.certificate) if verdict.certificate is not None else None
    if args.json:
        out = {"command": "phantom", "morphism": args.morphism,
               "phantom": verdict.phantom, "reason": verdict.reason}
        if verdict.certificate is not None:
            out["levels"] = [[n, d] for n, d in verdict.certificate.levels]
        return out
    print(f"phantom: {'yes' if verdict.phantom else 'no'} ({verdict.reason})")
    if cert:
        print(cert)
    return {}


def _cmd_truncate(doc: Document, args) -> dict:
    v = doc.seq(args.object)
    # truncate_above builds the degrees from n up to the top of v
    check_span(args.n, max(args.n, v.hi), "truncation window")
    t = truncate_above(v, args.n)
    bc = decompose(t)
    if args.json:
        return {"command": "truncate", "object": args.object, "n": args.n,
                "truncation": seq_to_json(t), "barcode": barcode_to_json(bc)}
    print(f"truncation: {_fmt_seq(t)}")
    for line in _barcode_lines(bc):
        print(line)
    return {}


def _cmd_derivation_check(doc: Document, args) -> dict:
    diag, der = _lookup_deriv(doc, args.diagram, args.derivation)
    bad = check_derivation(diag, der)
    if args.json:
        return {"command": "derivation-check", "diagram": args.diagram,
                "derivation": args.derivation, "ok": bad is None,
                "violated": list(bad) if bad is not None else None}
    if bad is None:
        print("OK")
    else:
        outer, inner, equals = bad
        print(f"violated: {outer} {inner} = {equals}")
    return {}


def _cmd_inner_solve(doc: Document, args) -> dict:
    diag, der = _lookup_deriv(doc, args.diagram, args.derivation)
    theta = solve_inner(diag, der)
    if args.json:
        out = {"command": "inner-solve", "diagram": args.diagram,
               "derivation": args.derivation, "inner": theta is not None}
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
    return {}


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

    p = sub.add_parser("decompose", parents=[common])
    p.add_argument("object")
    p.set_defaults(fn=_cmd_decompose)

    p = sub.add_parser("classify", parents=[common])
    p.add_argument("object")
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("hom", parents=[common])
    p.add_argument("src")
    p.add_argument("dst")
    p.set_defaults(fn=_cmd_hom)

    p = sub.add_parser("cone", parents=[common])
    p.add_argument("morphism")
    p.set_defaults(fn=_cmd_cone)

    p = sub.add_parser("minimize", parents=[common])
    p.add_argument("complex")
    p.set_defaults(fn=_cmd_minimize)

    p = sub.add_parser("cohomology", parents=[common])
    p.add_argument("object")
    p.set_defaults(fn=_cmd_cohomology)

    p = sub.add_parser("phantom", parents=[common])
    p.add_argument("morphism")
    p.add_argument("--depth", type=int, default=12)
    p.set_defaults(fn=_cmd_phantom)

    p = sub.add_parser("truncate", parents=[common])
    p.add_argument("object")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_truncate)

    p = sub.add_parser("derivation-check", parents=[common])
    p.add_argument("diagram")
    p.add_argument("derivation")
    p.set_defaults(fn=_cmd_derivation_check)

    p = sub.add_parser("inner-solve", parents=[common])
    p.add_argument("diagram")
    p.add_argument("derivation")
    p.set_defaults(fn=_cmd_inner_solve)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        doc = parse_path(args.document)
        payload = args.fn(doc, args)
        if args.json:
            print(report_json(payload))
        return 0
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 1
    except (NotExact, ValidationFailed) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 1
    except StabilizationDepthExceeded as e:
        print(f"stabilization error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"io error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
