#!/usr/bin/env python3
"""Time the exhaustive census of equivariant sign tables.

For each n the census scans all 2^(n!) candidate tables on the n!
permutations and keeps the ones fixed by the twisted action; the claim under
test is that exactly two survive — the inversion-parity sign and its
negation.  n = 4 scans 2^24 = 16,777,216 bitmasks.

Example:
    python3 scripts/fixed_point_census.py --max-n 4
"""

import argparse
import math
import sys
import time

from signdeloop.deloopings import exhaustive_fixed_points
from signdeloop.finite import enumerate_bijections, fin
from signdeloop.perms import sign_inversions


def parse_config(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=4)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    cfg = parse_config(argv)
    ok = True
    print(f"{'n':>3} {'space':>12} {'found':>6} {'sign±':>6} {'time':>9}")
    for n in range(cfg.min_n, cfg.max_n + 1):
        space = 1 << math.factorial(n)
        start = time.perf_counter()
        tables = exhaustive_fixed_points(n)
        elapsed = time.perf_counter() - start
        base = fin(n)
        expected = {p: sign_inversions(p) for p in enumerate_bijections(base, base)}
        negated = {p: -s for p, s in expected.items()}
        matches = {frozenset(t.items()) for t in tables} == {
            frozenset(expected.items()),
            frozenset(negated.items()),
        }
        ok &= len(tables) == 2 and matches
        print(
            f"{n:>3} {space:>12} {len(tables):>6} {'yes' if matches else 'NO':>6}"
            f" {elapsed:>8.3f}s"
        )
    print("census matches ±sign everywhere" if ok else "MISMATCH FOUND")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
