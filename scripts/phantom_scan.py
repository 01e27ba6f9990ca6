"""Scan pairs of h-projective intervals for nonzero phantom subspaces.

For every ordered pair drawn from the grid the script reports the dimension
of the phantom subspace of Hom^eps together with its certificate (the
truncation levels, each proven 0 by the argument in ``dualseq.phantom``, so
every pair reports zero).  Compact sources are included as controls.  A
depth below the number of levels is reported as a depth failure.
"""

import argparse
import json
import math
import sys

sys.path.insert(0, "src")

from dualseq import (Field, StabilizationDepthExceeded, Tail, get_context,
                     interval, phantom_basis)

INF = math.inf


def grid(field, lo, hi):
    out = []
    for a in [-INF] + list(range(lo, hi + 1)):
        for b in range(int(max(a, lo)), hi + 1):   # finite b: h-projective
            out.append(((a, b), interval(field, a, b)))
    return out


def label(a, b):
    left = "-inf" if a == -INF else str(a)
    return f"[{left},{b}]"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--field", default="2", help="prime p, or Q for rationals")
    ap.add_argument("--lo", type=int, default=-2)
    ap.add_argument("--hi", type=int, default=2)
    ap.add_argument("--depth", type=int, default=12)
    ap.add_argument("--json", action="store_true")
    args = ap.parse_args()

    f = Field(None) if args.field.upper() == "Q" else Field(int(args.field))
    objs = grid(f, args.lo, args.hi)

    rows, hits, failures = [], 0, 0
    for (sa, sb), v in objs:
        for (ta, tb), w in objs:
            ctx = get_context(v, w)
            if ctx.dim_eps == 0:
                continue
            try:
                basis, cert = phantom_basis(v, w, depth=args.depth)
            except StabilizationDepthExceeded as exc:
                failures += 1
                rows.append({"src": label(sa, sb), "dst": label(ta, tb),
                             "eps": ctx.dim_eps, "phantom": None,
                             "error": str(exc)})
                continue
            dim = len(basis)
            hits += bool(dim)
            rows.append({"src": label(sa, sb), "dst": label(ta, tb),
                         "eps": ctx.dim_eps, "phantom": dim,
                         "levels": [lv for lv, _ in cert.levels],
                         "compact": v.left_tail is Tail.ZERO})

    if args.json:
        print(json.dumps({"schema": 1, "field": args.field,
                          "depth": args.depth, "rows": rows}, indent=2))
        return
    for r in rows:
        if r.get("error"):
            print(f"{r['src']} -> {r['dst']}: eps {r['eps']}, {r['error']}")
            continue
        tag = "compact" if r["compact"] else f"levels {r['levels']}"
        print(f"{r['src']} -> {r['dst']}: eps {r['eps']}, "
              f"phantom {r['phantom']} ({tag})")
    print(f"{len(rows)} pairs with eps classes; "
          f"{hits} nonzero phantom spaces; {failures} depth failures")


if __name__ == "__main__":
    main()
