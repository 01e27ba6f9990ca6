"""Time ``decompose`` over a series of barcode sizes.

For every size and each of the fields F5 and Q the script draws scrambled
sequences with exactly that many bars (random intervals with endpoints in
``[-4, 4]`` and rays, each sequence conjugated by random basis changes;
seed 1, one random stream per field) and prints one JSON line with the
median milliseconds of ``decompose`` without and with its verified
certificate.  A change in the complexity of the sweep shows up as a change
in how the medians grow with the size; over Q the entries of the basis
changes, and so the cost of exact arithmetic, grow with it too.
"""

import argparse
import json
import random
import statistics
import sys
import time

sys.path.insert(0, "src")

from dualseq import Field, decompose
from dualseq.barcode import assemble, make_barcode
from dualseq.gen import random_interval, scramble

FIELDS = (Field(5), Field(None))
LO, HI = -4, 4
SEED = 1


def sample(rng, field, bars):
    bc = make_barcode(field, [random_interval(rng, LO, HI) for _ in range(bars)])
    return scramble(rng, assemble(bc))


def median_ms(fn, seqs):
    times = []
    for v in seqs:
        t0 = time.perf_counter()
        fn(v)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="8,16,24,32,48,64",
                    help="comma-separated bar counts")
    ap.add_argument("--repeats", type=int, default=5,
                    help="sequences drawn per size")
    args = ap.parse_args()
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    rngs = [random.Random(SEED) for _ in FIELDS]
    for bars in (int(s) for s in args.sizes.split(",")):
        for field, rng in zip(FIELDS, rngs):
            seqs = [sample(rng, field, bars) for _ in range(args.repeats)]
            print(json.dumps({
                "field": repr(field), "bars": bars, "repeats": args.repeats,
                "decompose_ms": round(median_ms(
                    lambda v: decompose(v, with_certificate=False), seqs), 3),
                "decompose_certified_ms": round(median_ms(decompose, seqs), 3),
            }), flush=True)


if __name__ == "__main__":
    main()
