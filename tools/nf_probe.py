"""Time `normal_form` on dense unipotent germs, one germ at a time.

    python3 tools/nf_probe.py N:CAP [N:CAP ...] [--seed S] [--repeat R]

Each germ is one unipotent Jordan block of size N at degree cap CAP, with
every quadratic monomial in every component, each coefficient a small
nonzero rational p/q (|p| <= 4, 1 <= q <= 3) drawn from a generator seeded
by (N, CAP, S).  The germ is built and solved in-process, with blowdyn
imported from this checkout's src/.  For each germ one line is printed:

    n cap cost seconds stdout_bytes accepted

cost is the `normalform` command's joint measure n*C(n + cap, n),
seconds the median wall time of R `normal_form` calls on the germ (R = 1
by default; one call's time moves with the machine's load, so a
before/after table wants R > 1), stdout_bytes the length of the text the
command prints for that result, and accepted whether the command takes
the germ (cost at most `cli.NORMALFORM_COST`).
"""

import argparse
import math
import os
import random
import statistics
import sys
import time
from fractions import Fraction
from itertools import combinations_with_replacement

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from blowdyn import cli  # noqa: E402
from blowdyn.lifting import germ_from_terms  # noqa: E402
from blowdyn.normalform import normal_form  # noqa: E402
from blowdyn.partition import build_structure  # noqa: E402
from blowdyn.scalars import QI_ONE, GaussianRational  # noqa: E402


def dense_germ(n, cap, seed):
    """The probe germ of one unipotent n-block at cap."""
    rng = random.Random("nf_probe/%d/%d/%d" % (n, cap, seed))
    terms = {}
    for j in range(1, n + 1):
        for mono in combinations_with_replacement(range(n), 2):
            e = tuple(mono.count(i) for i in range(n))
            p = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            terms[(j, e)] = GaussianRational(Fraction(p, rng.randint(1, 3)))
    return germ_from_terms(build_structure((n,), (QI_ONE,)), terms, cap=cap)


def probe(n, cap, seed, repeat=1):
    germ = dense_germ(n, cap, seed)
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        nf = normal_form(germ)
        times.append(time.perf_counter() - start)
    seconds = statistics.median(times)
    text = cli.json_text({"schema": cli.SCHEMA,
                          **cli.normalform_payload(nf)}) + "\n"
    cost = n * math.comb(n + cap, n)
    return cost, seconds, len(text.encode()), cost <= cli.NORMALFORM_COST


def shape(text):
    n, cap = text.split(":")
    return int(n), int(cap)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("shapes", nargs="+", type=shape, metavar="N:CAP")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--repeat", type=int, default=1, metavar="R",
                    help="calls per germ; the median is printed")
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be at least 1")
    print("n cap cost seconds stdout_bytes accepted")
    for n, cap in args.shapes:
        cost, seconds, size, ok = probe(n, cap, args.seed, args.repeat)
        print("%d %d %d %.4f %d %s" % (n, cap, cost, seconds, size,
                                       "yes" if ok else "no"), flush=True)


if __name__ == "__main__":
    main()
