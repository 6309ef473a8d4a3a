"""signdeloop benchmark: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload verify-s5 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from src/.
Each repetition runs in a fresh interpreter, so every one pays the same cold
start a user pays.  Workloads (see BENCHMARK.json for why each exists):

* verify-s5, verify-s7 and verify-s4-census run run_verification(n, "all",
  seed) (the last with exhaustive_fixed) in a worker process;
* cli-oneshot is a closed loop with one client: passes of the seeded command
  mix from gate.cli_pass, each command spawned as `python -m signdeloop.cli`.

A run makes a fixed number of repetitions (REPETITIONS, scaled by
--seconds), each with its own seed derived from --seed, so a run covers the
same inputs on every commit.  Every repetition goes through the correctness
and coverage gate (gate.py); `attempted` and `failed` in the result count
its operations (a check, or a CLI invocation).  With --trace 0 the result
line carries the end-to-end metrics:

* setup_s: median spawn-to-exit time of fresh interpreters importing
  signdeloop and signdeloop.cli, spawned between the repetitions;
* wall_s: median time of one repetition (a run_verification call timed in
  the worker, or one pass of the CLI mix);
* latency_ms.p50: median spawn-to-exit time per invocation (a worker or a
  CLI command); the p90 and the sample count are printed above the result
  line, the p90 only when at least ten samples lie beyond it;
* peak_rss_mb: largest maximum resident set size of any invocation.

The three times are given at the host's nominal speed.  A shared host runs
all code up to half again slower for seconds to minutes at a time, which
spread the medians of whole runs of the same code by more than a quarter of
their value.  So SPEED_PROBES runs of a speed probe (speed_probe.py: fixed
work that never touches the package) are spread between the repetitions,
each in a fresh interpreter, and every time is multiplied by
PROBE_NOMINAL_S over their median.  A change to the package moves the
repetitions and not the probes.  The raw times and every probe are printed
above the result line and kept in perfbench/out/e2e.jsonl.

With --trace 1 it carries the per-layer metrics from one untraced and one
traced repetition.  The last line of stdout is the JSON result; the raw
samples and run stamps are appended to perfbench/out/{e2e,trace}.jsonl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path
from random import Random
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from gate import (  # noqa: E402
    EXPECTED,
    OBSERVED_FLOORS,
    GateResult,
    cli_gate,
    cli_mix,
    cli_pass,
    trace_gate,
    verify_gate,
)
from stats import tail_percentile  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKER = HERE / "worker.py"
SPEED_PROBE = HERE / "speed_probe.py"

VERIFY = {
    "verify-s5": ["--n", "5"],
    "verify-s7": ["--n", "7"],
    "verify-s4-census": ["--n", "4", "--exhaustive-fixed"],
}
WORKLOADS = (*VERIFY, "cli-oneshot")

SETUP_SPAWNS = 12  # fresh-interpreter imports per run; setup_s is their median
SPEED_PROBES = 6  # speed probes per run; times are scaled by their median
# Repetitions per run at --seconds 30: on a 2-vCPU x86-64 VM a run takes
# 20-45 s with its probes, about 30 s on average over the workloads.  The
# count depends only on the workload and --seconds, so every run of one seed
# covers the same inputs on any commit.  verify-s5 runs more than its length
# alone would need because the cost of one of its seeded mutant mixes varies
# by up to a fifth.
REPETITIONS = {"verify-s5": 5, "verify-s7": 4, "verify-s4-census": 5, "cli-oneshot": 8}
# Seconds the speed probe takes on that VM at its usual speed; times are
# reported as if the median probe had taken this long.
PROBE_NOMINAL_S = 0.125
REFERENCE_SECONDS = 30
MIN_REPETITIONS = 2
TRACED_CLI_PASSES = 20  # in-process passes of the mix in a traced cli run
TAIL = 90  # tail percentile shown when enough samples lie beyond it

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import signdeloop, signdeloop.cli; "
    "print(time.perf_counter() - t)"
)

# Per-check durations reported as verify.<check>.s.
TIMED_CHECKS = (
    "recognition-covariance", "fiber-two-elements", "alternating-kernel",
    "cycle-roundtrip", "relation-validity", "sign-homomorphism",
    "quotient-naturality", "fixed-census", "uniqueness", "parity-triangle",
    "equivariance", "functor-laws", "label-independence",
)
# Boundaries recorded by count only (see spans.install).
COUNTERS = ("quotients.relation_evals",)


class Spawned:
    """A finished child: spawn-to-exit seconds, exit code, merged output and
    peak resident set size."""

    def __init__(self, argv, env):
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT
        )
        try:
            self.output = proc.stdout.read().decode()
        except BaseException:
            proc.kill()
            raise
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.seconds = time.perf_counter() - start
        self.code = proc.returncode
        self.rss_mb = usage.ru_maxrss / 1024

    def result(self) -> dict | None:
        """The worker's JSON result line, or None if it did not finish."""
        lines = self.output.strip().splitlines()
        if self.code != 0 or not lines:
            return None
        try:
            return json.loads(lines[-1])
        except ValueError:
            return None


def child_env() -> dict:
    """Children import the checkout's src/ and keep bytecode caches under
    perfbench/out, so each import after the first is warm, as for an
    installed package, whatever the caller's PYTHONDONTWRITEBYTECODE."""
    path = [str(SRC)]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path), PYTHONPYCACHEPREFIX=str(OUT / "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def read_loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git when the checkout has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def stamp(seed: int) -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = None
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "loadavg_start": read_loadavg(),
    }


class SetupProbe:
    """Spawn-to-exit seconds of fresh interpreters importing signdeloop and
    signdeloop.cli, and the import time each measured inside itself."""

    def __init__(self, env):
        self.env = env
        self.totals: list[float] = []
        self.imports: list[float] = []
        Spawned([sys.executable, "-c", IMPORT_PROBE], env)  # writes bytecode caches

    def spawn(self, count: int) -> None:
        for _ in range(count):
            probe = Spawned([sys.executable, "-c", IMPORT_PROBE], self.env)
            if probe.code != 0:
                raise RuntimeError(f"import probe failed: {probe.output.strip()[-500:]}")
            self.totals.append(probe.seconds)
            self.imports.append(float(probe.output.split()[-1]))


def speed_probe(env) -> float:
    """Seconds the speed probe's fixed work took in a fresh interpreter."""
    probe = Spawned([sys.executable, str(SPEED_PROBE)], env)
    if probe.code != 0:
        raise RuntimeError(f"speed probe failed: {probe.output.strip()[-500:]}")
    return float(probe.output.split()[-1])


def share(total: int, rep: int, reps: int) -> int:
    """Probes of `total` to spawn before repetition `rep` of `reps`, so
    that they spread evenly over the run."""
    return total * (rep + 1) // reps - total * rep // reps


def spawn_worker(workload: str, seed: int, env, trace: bool = False, passes: int = 0) -> Spawned:
    argv = [sys.executable, str(WORKER)]
    if workload == "cli-oneshot":
        argv += ["cli", "--passes", str(passes)]
    else:
        argv += ["verify", *VERIFY[workload]]
    argv += ["--seed", str(seed)] + (["--trace"] if trace else [])
    return Spawned(argv, env)


def gate_worker(workload: str, run: Spawned, gate: GateResult, batch=None) -> dict | None:
    """Gate a worker's outputs: verification checks, or the results of the
    CLI invocations in `batch`.  A worker that did not finish fails every
    operation it owed."""
    result = run.result()
    owed = len(EXPECTED[workload]) if batch is None else len(batch)
    if result is None:
        gate.attempted += owed
        gate.failed += owed
        gate.problems.append(f"worker exit {run.code}: {run.output.strip()[-500:]}")
    elif batch is None:
        gate.merge(verify_gate(EXPECTED[workload], result["checks"]))
    else:
        commands = result["commands"]
        gate.merge(cli_gate([(inv, c["exit"], c["output"]) for inv, c in zip(batch, commands)]))
        if len(commands) != owed:
            gate.attempted += abs(owed - len(commands))
            gate.fail(f"worker ran {len(commands)} of {owed} commands")
    return result


def spawn_cli_pass(batch, env, gate: GateResult) -> list[Spawned]:
    runs = [Spawned([sys.executable, "-m", "signdeloop.cli", *inv.argv], env) for inv in batch]
    gate.merge(cli_gate([(inv, r.code, r.output) for inv, r in zip(batch, runs)]))
    return runs


# --------------------------------------------------------------------------
# End-to-end run.

def rep_seed(seed: int, rep: int) -> int:
    """Verification seed of repetition `rep`.  The cost of a verification
    depends on its seeded mutant mix, so repetitions draw distinct seeds."""
    return seed * 1000 + rep


def repetitions(workload: str, seconds: float) -> int:
    return max(MIN_REPETITIONS, round(REPETITIONS[workload] * seconds / REFERENCE_SECONDS))


def measure_e2e(workload: str, seed: int, seconds: float, env) -> tuple[dict, dict]:
    """A fixed number of repetitions, with the set-up and speed probes
    spread evenly between them so that they see the same host as the
    workload."""
    gate = GateResult()
    setup = SetupProbe(env)
    reps = repetitions(workload, seconds)
    probes, walls, cpus, latencies, rss = [], [], [], [], []
    rng = Random(seed)
    for rep in range(reps):
        setup.spawn(share(SETUP_SPAWNS, rep, reps))
        probes += [speed_probe(env) for _ in range(share(SPEED_PROBES, rep, reps))]
        if workload == "cli-oneshot":
            runs = spawn_cli_pass(cli_pass(rng), env, gate)
            walls.append(sum(r.seconds for r in runs))
        else:
            run = spawn_worker(workload, rep_seed(seed, rep), env)
            result = gate_worker(workload, run, gate)
            runs = [run]
            if result:
                walls.append(result["wall_s"])
                cpus.append(result["cpu_s"])
        latencies += [r.seconds for r in runs]
        rss += [r.rss_mb for r in runs]
    if not walls:
        raise RuntimeError(f"no repetition of {workload} finished: {gate.problems[:3]}")
    scale = PROBE_NOMINAL_S / median(probes)
    metrics = {
        "setup_s": scale * median(setup.totals),
        "wall_s": scale * median(walls),
        "latency_ms.p50": scale * 1000 * median(latencies),
        "peak_rss_mb": max(rss),
    }
    p_tail = tail_percentile(latencies, TAIL)
    samples = {
        "repetitions": reps,
        "latency_samples": len(latencies),
        f"latency_ms.p{TAIL}": None if p_tail is None else scale * 1000 * p_tail,
        "scale": scale,
        "raw_setup_s": median(setup.totals),
        "raw_wall_s": median(walls),
        "raw_latency_ms.p50": 1000 * median(latencies),
        "probes_s": probes,
        "walls_s": walls,
        "cpus_s": cpus,
        "setup_samples_s": setup.totals,
    }
    return metrics, {"gate": gate, "samples": samples}


# --------------------------------------------------------------------------
# Traced run.

def _totals_metric(totals: dict, name: str) -> float:
    if name in COUNTERS:
        return totals.get(name, {}).get("calls", 0)
    boundary, _, field = name.rpartition(".")
    entry = totals.get(boundary, {})
    if field == "calls":
        return entry.get("calls", 0)
    if field == "self_s":
        return entry.get("self_s", 0.0)
    if field == "distinct_ratio":
        return entry["distinct"] / entry["calls"] if entry.get("calls") else 0.0
    raise KeyError(name)


def measure_traced(workload: str, seed: int, env, names) -> tuple[dict, dict]:
    """One untraced and one traced repetition; the per-layer metrics `names`.

    Layers a workload never enters read 0.  The traced repetition also goes
    through the trace gate (gate.OBSERVED_FLOORS).  trace.unattributed_share
    is the part of the traced wall time spent in no wrapped function: for
    verify, the checks' own code in verify.py and the runner; for the CLI,
    the loop around run_command."""
    gate = GateResult()
    setup = SetupProbe(env)
    setup.spawn(SETUP_SPAWNS)
    interpreter = median([t - i for t, i in zip(setup.totals, setup.imports)])
    metrics = {
        "cli.interpreter_ms": 1000 * interpreter,
        "cli.import_ms": 1000 * median(setup.imports),
        "cli.command_ms.p50": 0.0,
        "verify.cpu_s": 0.0,
        "verify.unattributed_s": 0.0,
        "trace.unattributed_share": 0.0,
        "trace.overhead_ratio": 0.0,
    }
    metrics.update({f"verify.{check}.s": 0.0 for check in TIMED_CHECKS})
    if workload == "cli-oneshot":
        batch = [inv for passes in cli_mix(seed, TRACED_CLI_PASSES) for inv in passes]
        floors = {"cli.run_command": len(batch)}
        plain, traced = (
            gate_worker(workload, spawn_worker(workload, seed, env, trace, TRACED_CLI_PASSES), gate, batch)
            for trace in (False, True)
        )
        if plain:
            metrics["cli.command_ms.p50"] = 1000 * median([c["seconds"] for c in plain["commands"]])
    else:
        floors = OBSERVED_FLOORS[workload]
        plain, traced = (
            gate_worker(workload, spawn_worker(workload, rep_seed(seed, 0), env, trace), gate)
            for trace in (False, True)
        )
        if plain:
            for check in TIMED_CHECKS:
                metrics[f"verify.{check}.s"] = sum(
                    c["duration"] for c in plain["checks"] if c["name"] == check
                )
            metrics["verify.cpu_s"] = plain["cpu_s"]
    layer_totals = traced["totals"] if traced else {}
    if traced:
        gate.merge(trace_gate(floors, layer_totals))
        unattributed = traced["wall_s"] - sum(t["self_s"] for t in layer_totals.values())
        metrics["trace.unattributed_share"] = unattributed / traced["wall_s"]
        if workload != "cli-oneshot":
            metrics["verify.unattributed_s"] = unattributed
    if plain and traced:
        metrics["trace.overhead_ratio"] = traced["wall_s"] / plain["wall_s"]
    metrics["gate.extra_checks"] = gate.extra
    metrics["gate.fail_ratio"] = gate.failed / gate.attempted
    for name in names:
        if name not in metrics:
            metrics[name] = _totals_metric(layer_totals, name)
    return metrics, {"gate": gate, "spans": traced["spans"] if traced else [], "totals": layer_totals}


# --------------------------------------------------------------------------

def load_declared() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "signdeloop" / "__init__.py").is_file():
        print(f"error: no signdeloop sources under {SRC}", file=sys.stderr)
        return 2
    declared = load_declared()
    OUT.mkdir(exist_ok=True)
    env = child_env()
    record = stamp(args.seed)
    record.update(workload=args.workload, seconds=args.seconds, trace=args.trace)

    if args.trace:
        metrics, detail = measure_traced(args.workload, args.seed, env, declared["per_layer"])
        kind = "per_layer"
    else:
        metrics, detail = measure_e2e(args.workload, args.seed, args.seconds, env)
        kind = "end_to_end"
    record["loadavg_end"] = read_loadavg()
    gate: GateResult = detail.pop("gate")

    units = declared[kind]
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} are not declared as {kind}")
    record.update(
        metrics=metrics,
        attempted=gate.attempted,
        failed=gate.failed,
        extra_checks=gate.extra,
        problems=gate.problems,
        **detail,
    )
    with open(OUT / ("trace.jsonl" if args.trace else "e2e.jsonl"), "a") as fh:
        fh.write(json.dumps(record) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={record['python']} numpy={record['numpy']} nproc={record['nproc']} "
          f"git={record['git_sha']} load={record['loadavg_start']} -> {record['loadavg_end']}")
    for key, value in detail.get("samples", {}).items():
        if key not in ("walls_s", "cpus_s", "setup_samples_s"):
            print(f"# {key}: {value}")
    print(f"# gate: {gate.attempted} operations, {gate.failed} failed, {gate.extra} extra checks")
    for problem in gate.problems[:20]:
        print(f"#   {problem}")
    for name in sorted(metrics):
        print(f"# {name} = {metrics[name]} {units[name]}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
