"""One measured repetition of a workload, in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/worker.py verify --n 5 --seed 3 [--exhaustive-fixed] [--trace]
    PYTHONPATH=src python3 perfbench/worker.py cli --seed 3 --passes 2 [--trace]

run.py spawns it.  `verify` times run_verification; `cli` runs the seeded
command mix through run_command in this process.  With --trace the
package's public functions are wrapped first (see spans.py).  The last line
of stdout is one JSON object with the timings, the outputs the gate needs
and, when traced, the span aggregates.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time


def run_verify(args) -> dict:
    from signdeloop.verify import run_verification

    cpu, start = time.process_time(), time.perf_counter()
    reports = run_verification(args.n, "all", args.seed, exhaustive_fixed=args.exhaustive_fixed)
    wall = time.perf_counter() - start
    return {
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu,
        "checks": [
            {
                "construction": r.construction,
                "name": c.name,
                "passed": c.passed,
                "detail": c.detail,
                "duration": c.duration,
            }
            for r in reports
            for c in r.checks
        ],
    }


def run_cli(args) -> dict:
    from gate import cli_mix
    from signdeloop.cli import run_command

    commands = []
    cpu, start = time.process_time(), time.perf_counter()
    for invocation in (inv for batch in cli_mix(args.seed, args.passes) for inv in batch):
        buffer = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            code = run_command(list(invocation.argv))
        commands.append(
            {"exit": code, "output": buffer.getvalue(), "seconds": time.perf_counter() - t0}
        )
    wall = time.perf_counter() - start
    return {"wall_s": wall, "cpu_s": time.process_time() - cpu, "commands": commands}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=["verify", "cli"])
    parser.add_argument("--n", type=int)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--exhaustive-fixed", action="store_true")
    parser.add_argument("--passes", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)
    result = run_verify(args) if args.mode == "verify" else run_cli(args)
    if tracer is not None:
        result["totals"] = tracer.totals()
        result["spans"] = tracer.table()
    sys.stdout.write("\n" + json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
