#!/usr/bin/env python3
"""Sweep the invariant suite across carrier sizes and print a summary table.

Example:
    python3 scripts/verify_sweep.py --min-n 2 --max-n 6 --seed 0
    python3 scripts/verify_sweep.py --construction cartier --json
"""

import argparse
import json
import sys

from signdeloop.deloopings import CONSTRUCTIONS
from signdeloop.verify import run_verification


def parse_config(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--min-n", type=int, default=2)
    parser.add_argument("--max-n", type=int, default=6)
    parser.add_argument(
        "--construction",
        choices=["all", *CONSTRUCTIONS],
        default="all",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", action="store_true")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    cfg = parse_config(argv)
    rows = []
    all_pass = True
    for n in range(cfg.min_n, cfg.max_n + 1):
        reports = run_verification(n, construction=cfg.construction, seed=cfg.seed)
        for report in reports:
            checks = len(report.checks)
            failed = [c.name for c in report.checks if not c.passed]
            all_pass &= not failed
            rows.append(
                {
                    "n": n,
                    "construction": report.construction,
                    "checks": checks,
                    "failed": failed,
                    "seconds": round(report.duration, 3),
                }
            )
    if cfg.json:
        print(json.dumps({"passed": all_pass, "rows": rows}, indent=2))
    else:
        print(f"{'n':>3} {'construction':<12} {'checks':>6} {'time':>8}  status")
        for row in rows:
            status = "ok" if not row["failed"] else "FAIL " + ",".join(row["failed"])
            print(
                f"{row['n']:>3} {row['construction']:<12} {row['checks']:>6}"
                f" {row['seconds']:>7.3f}s  {status}"
            )
        print("all checks passed" if all_pass else "FAILURES PRESENT")
    return 0 if all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
