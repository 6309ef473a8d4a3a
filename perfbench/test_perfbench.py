"""Tests of the benchmark's own logic: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from gate import (  # noqa: E402
    EXPECTED,
    OBSERVED_FLOORS,
    Invocation,
    check_cli,
    cli_gate,
    cli_mix,
    trace_gate,
    verify_gate,
)
from spans import Tracer  # noqa: E402
from stats import beyond, rank, tail_percentile  # noqa: E402


# --------------------------------------------------------------------------
# Percentile rule.

def test_nearest_rank():
    assert rank(100, 50) == 50
    assert rank(100, 90) == 90
    assert rank(7, 50) == 4
    assert rank(1, 90) == 1


def test_tail_needs_ten_samples_beyond():
    samples = list(range(1, 101))  # 100 samples: rank 90, ten beyond
    assert beyond(100, 90) == 10
    assert tail_percentile(samples, 90) == 90
    assert beyond(99, 90) == 9
    assert tail_percentile(samples[:99], 90) is None
    assert tail_percentile(list(range(1000)), 99) == 989
    assert tail_percentile(list(range(1000)), 99.5) is None


def test_tail_ignores_input_order():
    samples = list(range(200, 0, -1))
    assert tail_percentile(samples, 90) == 180


# --------------------------------------------------------------------------
# Self time on a synthetic span tree.

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def test_self_time_subtracts_direct_children():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    leaf = tracer.span("leaf", lambda: clock.advance(2))

    def _mid():
        clock.advance(1)
        leaf()
        clock.advance(1)
        leaf()

    mid = tracer.span("mid", _mid)

    def _top():
        clock.advance(3)
        mid()
        leaf()

    top = tracer.span("top", _top)
    top()
    totals = tracer.totals()
    assert totals["top"] == {"calls": 1, "total_s": 11.0, "self_s": 3.0}
    assert totals["mid"] == {"calls": 1, "total_s": 6.0, "self_s": 2.0}
    assert totals["leaf"] == {"calls": 3, "total_s": 6.0, "self_s": 6.0}
    # Aggregated per (boundary, parent).
    assert tracer.spans[("leaf", "mid")] == [2, 4.0, 4.0]
    assert tracer.spans[("leaf", "top")] == [1, 2.0, 2.0]
    assert tracer.spans[("top", None)] == [1, 11.0, 3.0]


def test_self_time_with_recursion_and_errors():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def _down(k):
        clock.advance(1)
        if k == 0:
            raise ValueError("bottom")
        down(k - 1)

    down = tracer.span("down", _down)
    with pytest.raises(ValueError):
        down(2)
    assert tracer.totals()["down"] == {"calls": 3, "total_s": 6.0, "self_s": 3.0}
    # The stack unwound: a later span has no parent.
    tracer.span("after", lambda: None)()
    assert ("after", None) in tracer.spans


def test_counters_and_distinct_inputs():
    tracer = Tracer(clock=FakeClock())
    double = tracer.span("double", lambda x: 2 * x, key=lambda x: x)
    count = tracer.counter("count", lambda: None)
    for x in (1, 2, 1, 1):
        double(x)
    count()
    count()
    totals = tracer.totals()
    assert totals["double"]["calls"] == 4 and totals["double"]["distinct"] == 2
    assert totals["count"]["calls"] == 2


# --------------------------------------------------------------------------
# Coverage gate.

def _report(expected):
    return [
        {"construction": c, "name": n, "passed": True, "detail": d, "duration": 0.1}
        for (c, n), d in expected.items()
    ]


@pytest.mark.parametrize("workload", sorted(EXPECTED))
def test_gate_accepts_the_expected_report(workload):
    result = verify_gate(EXPECTED[workload], _report(EXPECTED[workload]))
    assert (result.failed, result.extra) == (0, 0)
    assert result.attempted == len(EXPECTED[workload])


def test_gate_flags_a_dropped_check():
    expected = EXPECTED["verify-s7"]
    checks = [c for c in _report(expected) if c["name"] != "alternating-kernel"]
    result = verify_gate(expected, checks)
    assert result.failed == 1 and result.attempted == len(expected)
    assert result.problems == ["core/alternating-kernel: missing"]


def test_gate_flags_exhaustive_turned_sampled():
    expected = EXPECTED["verify-s7"]
    checks = _report(expected)
    for c in checks:
        if c["name"] == "cycle-roundtrip":
            c["detail"] = "1000 sampled permutations roundtrip with distinct forms"
    result = verify_gate(expected, checks)
    assert result.failed == 1
    assert "5040 permutations roundtrip" in result.problems[0]


def test_gate_counts_extras_and_failures():
    expected = EXPECTED["verify-s5"]
    checks = _report(expected)
    checks.append({"construction": "core", "name": "new-check", "passed": True, "detail": "", "duration": 0})
    result = verify_gate(expected, checks)
    assert (result.failed, result.extra, result.attempted) == (0, 1, len(expected) + 1)
    checks[0]["passed"] = False
    checks.append(dict(checks[1]))
    result = verify_gate(expected, checks)
    assert result.failed == 2  # the failing check and the duplicate


def test_trace_gate_flags_work_the_tracer_did_not_see():
    floors = OBSERVED_FLOORS["verify-s7"]
    result = trace_gate(floors, {"cycles.cycle_decompose": {"calls": 5040}})
    assert (result.attempted, result.failed) == (len(floors), 0)
    result = trace_gate(floors, {"cycles.cycle_decompose": {"calls": 1000}})
    assert result.failed == 1 and "1000 calls observed" in result.problems[0]
    assert trace_gate(floors, {}).failed == len(floors)


# --------------------------------------------------------------------------
# CLI oracles.

ODD = (1, 0, 2, 3, 4, 5)  # one transposition


def test_oracle_flags_a_wrong_sign():
    inv = Invocation("sign", ODD, ("sign", "1,0,2,3,4,5"))
    assert check_cli(inv, 0, "-1\n") is None
    assert check_cli(inv, 0, "+1\n") is not None
    assert check_cli(inv, 1, "-1\n") is not None  # wrong exit code
    gate = cli_gate([(inv, 0, "+1\n"), (inv, 0, "-1\n")])
    assert (gate.attempted, gate.failed) == (2, 1)


def test_oracles_flag_wrong_cartier_factor_and_alternating():
    images = (2, 0, 1, 3)  # a 3-cycle: two inversions, even
    cartier = Invocation("cartier", images, ("cartier", "2,0,1,3", "--n", "4", "--json"))
    good = {"n": 4, "relative_inversions": 2, "sign": "+1"}
    assert check_cli(cartier, 0, json.dumps(good)) is None
    assert check_cli(cartier, 0, json.dumps(dict(good, relative_inversions=3))) is not None
    factor = Invocation("factor", images, ("factor", "2,0,1,3", "--json"))
    assert check_cli(factor, 0, json.dumps({"n": 4, "factors": [[0, 2], [1, 2]]})) is None
    assert check_cli(factor, 0, json.dumps({"n": 4, "factors": [[0, 1], [1, 2]]})) is not None
    alternating = Invocation("alternating", (), ("alternating", "--n", "5", "--json"))
    assert check_cli(alternating, 0, "not json") is not None


def test_oracles_agree_with_the_cli():
    sys.path.insert(0, str(ROOT / "src"))
    import contextlib
    import io

    from signdeloop.cli import run_command

    results = []
    for inv in cli_mix(seed=7, passes=2)[1]:
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(buffer):
            code = run_command(list(inv.argv))
        results.append((inv, code, buffer.getvalue()))
    gate = cli_gate(results)
    assert gate.problems == [] and gate.attempted == 14


def test_mix_is_a_function_of_the_seed():
    assert cli_mix(3, 2) == cli_mix(3, 2)
    assert cli_mix(3, 1) != cli_mix(4, 1)
    assert cli_mix(3, 2)[0] == cli_mix(3, 1)[0]


# --------------------------------------------------------------------------
# Harness.

def test_traced_worker_reports_every_layer():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "verify", "--n", "3", "--seed", "1", "--trace"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    layers = {name.split(".")[0] for name in result["totals"]}
    # verify's own figures come from the check durations, not from spans.
    assert {"finite", "perms", "cycles", "quotients", "deloopings"} <= layers
    assert result["totals"]["deloopings.action.cartier"]["calls"] > 0
    assert all(c["passed"] for c in result["checks"])


def test_repetitions_depend_only_on_workload_and_seconds():
    import run

    assert run.repetitions("verify-s7", run.REFERENCE_SECONDS) == run.REPETITIONS["verify-s7"]
    assert run.repetitions("cli-oneshot", 2 * run.REFERENCE_SECONDS) == 2 * run.REPETITIONS["cli-oneshot"]
    assert run.repetitions("verify-s7", 1) == run.MIN_REPETITIONS


def test_probes_spread_evenly_over_the_repetitions():
    import run

    assert [run.share(8, rep, 3) for rep in range(3)] == [2, 3, 3]
    assert sum(run.share(24, rep, 6) for rep in range(6)) == 24
    assert [run.share(2, rep, 4) for rep in range(4)] == [0, 1, 0, 1]


def test_speed_probe_reports_seconds():
    out = subprocess.run(
        [sys.executable, str(HERE / "speed_probe.py")],
        capture_output=True, text=True, timeout=60, check=True,
    )
    assert 0 < float(out.stdout.split()[-1]) < 10


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
