"""Correctness and coverage gate, and the seeded CLI command mix.

Verify workloads: every expected (construction, check) pair must be
present, pass, and keep its detail string exactly, so a change that skips
or samples work it used to enumerate counts as a failure rather than a
speed-up.  Extra checks are allowed and counted.

Traced runs: the tracer must also observe the calls that the exhaustive
checks make (OBSERVED_FLOORS), so a check that keeps its detail string but
enumerates less is caught there.

CLI workload: every invocation must exit 0 and print what the oracles below
compute.  The oracles work on plain image tuples with their own cycle and
inversion arithmetic and never import signdeloop.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from random import Random

FAMILIES = ("fixed", "orbit", "simpson", "cartier")

# Detail strings that do not depend on n.
DETAIL = {
    "factorization": "factors rebuild every permutation with matching parity",
    "sign-homomorphism": "sign is multiplicative",
    "parity-triangle": "additive mod 2",
    "transposition-oddness": "odd for every transposition",
    "bridge-parity": "parities agree on all permutations",
    "relation-validity": "both relations validate with two blocks",
    "functor-laws": "identity and composite laws hold",
    "fiber-two-elements": "two equal classes over 10 random carriers",
    "transpositions-swap": "every transposition swaps the fiber",
    "sign-agreement": "delooping sign equals inversion sign on all permutations",
    "recognition": "all three conditions hold",
    "recognition-covariance": "booleans co-vary on 50 mutants",
    "label-independence": "100 relabeling squares commute",
    "quotient-naturality": "projection squares commute on 20 moves",
    "equivariance": "both elements are equivariant",
    "fixed-census": "fixed tables are exactly plus/minus sign",
}

_EXHAUSTIVE_FAMILY = (
    "functor-laws",
    "fiber-two-elements",
    "transpositions-swap",
    "sign-agreement",
    "recognition",
    "recognition-covariance",
    "label-independence",
)


def _table(core: dict, family: tuple, extra: dict) -> dict[tuple[str, str], str]:
    """(construction, check) -> detail, from the core checks, the checks every
    family runs, and per-family extras {family: {check: detail}}."""
    out = {("core", name): detail for name, detail in core.items()}
    for fam in FAMILIES:
        for name in family:
            out[(fam, name)] = DETAIL[name]
        for name, detail in extra.get(fam, {}).items():
            out[(fam, name)] = detail
    return out


def _core(*names, **sized) -> dict[str, str]:
    core = {name: DETAIL[name] for name in names}
    core.update({name.replace("_", "-"): detail for name, detail in sized.items()})
    return core


_NATURALITY = {"quotient-naturality": DETAIL["quotient-naturality"]}

EXPECTED: dict[str, dict[tuple[str, str], str]] = {
    "verify-s5": _table(
        _core(
            "factorization", "sign-homomorphism", "parity-triangle",
            "transposition-oddness", "bridge-parity", "relation-validity",
            cycle_roundtrip="120 permutations roundtrip with distinct forms",
            alternating_kernel="order 60",
            orientation_classes="class sizes [512, 512], expected 512 each",
            uniqueness="16 natural isomorphisms built and checked",
        ),
        _EXHAUSTIVE_FAMILY,
        {
            "fixed": {"equivariance": DETAIL["equivariance"]},
            "orbit": {"orbit-structure": "two orbits of size 120 with distinct labels"},
            "simpson": _NATURALITY,
            "cartier": _NATURALITY,
        },
    ),
    "verify-s7": _table(
        _core(
            "sign-homomorphism", "parity-triangle", "transposition-oddness",
            "relation-validity",
            cycle_roundtrip="5040 permutations roundtrip with distinct forms",
            alternating_kernel="order 2520",
        ),
        ("functor-laws", "transpositions-swap", "label-independence"),
        {},
    ),
    "verify-s4-census": _table(
        _core(
            "factorization", "sign-homomorphism", "parity-triangle",
            "transposition-oddness", "bridge-parity", "relation-validity",
            cycle_roundtrip="24 permutations roundtrip with distinct forms",
            endofunction_roundtrip="256 endofunctions roundtrip",
            alternating_kernel="order 12",
            orientation_classes="class sizes [32, 32], expected 32 each",
            uniqueness="16 natural isomorphisms built and checked",
        ),
        _EXHAUSTIVE_FAMILY,
        {
            "fixed": {
                "equivariance": DETAIL["equivariance"],
                "fixed-census": DETAIL["fixed-census"],
            },
            "orbit": {"orbit-structure": "two orbits of size 24 with distinct labels"},
            "simpson": _NATURALITY,
            "cartier": _NATURALITY,
        },
    ),
}


# Traced runs: calls the tracer must observe at least, because the
# exhaustive checks make them.  cycle-roundtrip decomposes every permutation
# of S_n; sign-agreement (n <= 6) extracts the sign of every permutation for
# each of the four constructions; uniqueness (n <= 5) builds 16 natural
# isomorphisms.  A check whose detail string cannot show sampling (such as
# "order 2520" or "sign is multiplicative") is not covered here.
OBSERVED_FLOORS: dict[str, dict[str, int]] = {
    "verify-s5": {
        "cycles.cycle_decompose": 120,
        "deloopings.sign_from_delooping": 4 * 120,
        "deloopings.natural_isomorphism": 16,
    },
    "verify-s7": {"cycles.cycle_decompose": 5040},
    "verify-s4-census": {
        "cycles.cycle_decompose": 24,
        "deloopings.sign_from_delooping": 4 * 24,
        "deloopings.natural_isomorphism": 16,
        "deloopings.exhaustive_fixed_points": 1,
    },
}


@dataclass
class GateResult:
    attempted: int = 0
    failed: int = 0
    extra: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def merge(self, other: "GateResult") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.extra += other.extra
        self.problems.extend(other.problems)


def verify_gate(expected: dict[tuple[str, str], str], checks: list[dict]) -> GateResult:
    """Gate one verification run; checks carry construction, name, passed
    and detail.  Each expected pair and each extra check is one operation."""
    result = GateResult()
    seen = set()
    for check in checks:
        key = (check["construction"], check["name"])
        label = "/".join(key)
        if key in seen:
            result.attempted += 1
            result.fail(f"{label}: reported twice")
            continue
        seen.add(key)
        if key not in expected:
            result.attempted += 1
            result.extra += 1
            if not check["passed"]:
                result.fail(f"{label} (extra): FAIL {check['detail']}")
            continue
        result.attempted += 1
        if not check["passed"]:
            result.fail(f"{label}: FAIL {check['detail']}")
        elif check["detail"] != expected[key]:
            result.fail(f"{label}: detail {check['detail']!r}, expected {expected[key]!r}")
    for key in expected.keys() - seen:
        result.attempted += 1
        result.fail(f"{'/'.join(key)}: missing")
    return result


def trace_gate(floors: dict[str, int], totals: dict[str, dict]) -> GateResult:
    """Gate a traced run's span totals: each boundary in `floors` must have
    been called at least that often.  One operation per boundary."""
    result = GateResult()
    for boundary, floor in floors.items():
        result.attempted += 1
        calls = totals.get(boundary, {}).get("calls", 0)
        if calls < floor:
            result.fail(f"{boundary}: {calls} calls observed, exhaustive work makes {floor}")
    return result


# --------------------------------------------------------------------------
# The CLI command mix and its oracles.

MIX_SIZES = (6, 12, 40)
PERM_COMMANDS = ("sign", "cycles", "factor", "cartier")
DOT_N = 8
ALTERNATING_N = 5


@dataclass(frozen=True)
class Invocation:
    command: str
    images: tuple[int, ...]  # the permutation, or () for alternating
    argv: tuple[str, ...]


def cycles_of(images) -> list[list[int]]:
    """All cycles, each listed from its minimum, ordered by minimum."""
    seen, out = set(), []
    for start in range(len(images)):
        if start in seen:
            continue
        cycle, x = [], start
        while x not in seen:
            seen.add(x)
            cycle.append(x)
            x = images[x]
        out.append(cycle)
    return out


def inversion_count(images) -> int:
    return sum(
        1 for i, j in itertools.combinations(range(len(images)), 2) if images[i] > images[j]
    )


def _sign_text(images) -> str:
    return "+1" if (len(images) - len(cycles_of(images))) % 2 == 0 else "-1"


def _perm_text(rng: Random, images) -> str:
    if rng.random() < 0.5:
        return ",".join(map(str, images))
    text = "".join(
        "(" + " ".join(map(str, c)) + ")" for c in cycles_of(images) if len(c) > 1
    )
    return text or "()"


def cli_pass(rng: Random) -> list[Invocation]:
    """One pass of the mix: the four permutation commands at each size, one
    orientation-dot and one alternating listing, in shuffled order."""
    out = []
    jobs = [(cmd, n) for n in MIX_SIZES for cmd in PERM_COMMANDS] + [("orientation-dot", DOT_N)]
    for cmd, n in jobs:
        images = tuple(rng.sample(range(n), n))
        argv = [cmd, _perm_text(rng, images), "--n", str(n)]
        if cmd in ("cycles", "factor", "cartier"):
            argv.append("--json")
        out.append(Invocation(cmd, images, tuple(argv)))
    out.append(Invocation("alternating", (), ("alternating", "--n", str(ALTERNATING_N), "--json")))
    rng.shuffle(out)
    return out


def cli_mix(seed: int, passes: int) -> list[list[Invocation]]:
    rng = Random(seed)
    return [cli_pass(rng) for _ in range(passes)]


def _expected_dot(images) -> str:
    n = len(images)
    inverse = [0] * n
    for x, y in enumerate(images):
        inverse[y] = x
    lines = ["digraph orientation {"]
    for a, b in itertools.combinations(range(n), 2):
        # The canonical orientation picks the larger preimage; transport it.
        chosen = images[max(inverse[a], inverse[b])]
        lines.append(f"  {a + b - chosen} -> {chosen};")
    lines.append("}")
    return "\n".join(lines)


def _rebuild(n: int, factors) -> tuple[int, ...]:
    """Product of transpositions, leftmost factor outermost."""
    out = []
    for x in range(n):
        for a, b in reversed(factors):
            x = b if x == a else a if x == b else x
        out.append(x)
    return tuple(out)


def check_cli(inv: Invocation, code: int, output: str) -> str | None:
    """None when the invocation exited 0 with the oracle's output, else the
    problem."""
    if code != 0:
        return f"exit {code}: {output.strip()[-200:]}"
    images, n = inv.images, len(inv.images)
    try:
        if inv.command == "sign":
            ok = output == _sign_text(images) + "\n"
        elif inv.command == "cycles":
            cycles = [c for c in cycles_of(images) if len(c) > 1]
            ok = json.loads(output) == {"n": n, "cycles": cycles}
        elif inv.command == "factor":
            got = json.loads(output)
            factors = got["factors"]
            ok = (
                got["n"] == n
                and all(len(f) == 2 and f[0] != f[1] for f in factors)
                and len(factors) == n - len(cycles_of(images))
                and _rebuild(n, factors) == images
            )
        elif inv.command == "cartier":
            m = inversion_count(images)
            ok = json.loads(output) == {
                "n": n,
                "relative_inversions": m,
                "sign": "+1" if m % 2 == 0 else "-1",
            }
        elif inv.command == "orientation-dot":
            ok = output == _expected_dot(images) + "\n"
        elif inv.command == "alternating":
            even = [
                list(p)
                for p in itertools.permutations(range(ALTERNATING_N))
                if _sign_text(p) == "+1"
            ]
            ok = json.loads(output) == {"n": ALTERNATING_N, "order": len(even), "kernel": even}
        else:
            return f"no oracle for {inv.command!r}"
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparsable output ({exc}): {output.strip()[-200:]}"
    return None if ok else f"wrong output: {output.strip()[-200:]}"


def cli_gate(results) -> GateResult:
    """results: (Invocation, exit code, output) triples; one operation each."""
    gate = GateResult()
    for inv, code, output in results:
        gate.attempted += 1
        problem = check_cli(inv, code, output)
        if problem is not None:
            gate.fail(f"{' '.join(inv.argv)}: {problem}")
    return gate
