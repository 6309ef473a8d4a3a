"""Command line interface.

Permutations are written either in cycle notation, "(0 1 2)(3 4)" with
fixed points omitted, or in one-line notation, "1,2,0,4,3" giving the image
of each point in order.  Exit codes: 0 success, 1 verification failure,
2 usage error.

Each command is a fresh process, so start-up is most of its cost.  The
module imports only finite, perms and cycles, which sign, cycles and factor
need; cartier, orientation-dot and alternating import deloopings when they
run, verify imports the verify suite, and json is imported only to write
JSON.
"""

from __future__ import annotations

import argparse
import itertools
import re
import sys

from .cycles import CycleDecomposition, cycle_decompose, recompose
from .errors import ContractError
from .finite import Bijection, fin, require_natural, symmetric_group
from .perms import factor_into_transpositions, permutation, sign_inversions

_CYCLE_TOKEN = re.compile(r"\(([^()]*)\)")
# int() also takes "1_0", "+1", "-0" and non-ASCII digits; a label takes none.
_LABEL = re.compile(r"[0-9]+")

# The largest arity any command accepts, checked before anything of that
# size is allocated.
MAX_ARITY = 1024


def _check_arity(n: int) -> None:
    if require_natural(n, "arity") > MAX_ARITY:
        raise ContractError(f"arity {n} exceeds the limit of {MAX_ARITY}")


def _parse_label(token: str) -> int:
    """ASCII decimal digits, with surrounding whitespace allowed."""
    digits = token.strip()
    if not _LABEL.fullmatch(digits):
        raise ContractError(f"labels are unsigned decimal integers, got {token!r}")
    try:
        return int(digits)
    except ValueError:  # int() refuses more than 4300 digits
        raise ContractError(f"label of {len(digits)} digits is out of range") from None


def parse_permutation(text: str, n: int | None = None) -> Bijection:
    """Parse either notation into a permutation of fin(n).

    For cycle notation the arity defaults to max(label) + 1 when not given.
    """
    text = text.strip()
    if not text:
        raise ContractError("empty permutation")
    if text.startswith("("):
        groups = _CYCLE_TOKEN.findall(text)
        leftover = _CYCLE_TOKEN.sub("", text).strip()
        if leftover:
            raise ContractError(f"unparsed cycle input: {leftover!r}")
        orbits = [
            [_parse_label(tok) for tok in re.split(r"[,\s]+", group.strip()) if tok]
            for group in groups
        ]
        mentioned = {x for orbit in orbits for x in orbit}
        size = n if n is not None else max(mentioned, default=-1) + 1
        _check_arity(size)
        for x in itertools.chain.from_iterable(orbits):
            if x >= size:
                raise ContractError(f"label {x} out of range for n={size}")
        cycles = [(x,) for x in range(size) if x not in mentioned]
        for orbit in filter(None, orbits):
            start = orbit.index(min(orbit))
            cycles.append(tuple(orbit[start:] + orbit[:start]))
        return recompose(CycleDecomposition(cycles))
    images = tuple(_parse_label(tok) for tok in text.split(","))
    _check_arity(len(images))
    if n is not None and n != len(images):
        raise ContractError(f"one-line form has {len(images)} entries, expected {n}")
    return permutation(images)


def format_permutation(e: Bijection) -> str:
    """Cycle notation with fixed points omitted; "()" for the identity."""
    parts = ("(" + " ".join(map(str, orbit)) + ")" for orbit in _nontrivial_cycles(e))
    return "".join(parts) or "()"


def _nontrivial_cycles(e: Bijection) -> list[list[int]]:
    return [list(orbit) for orbit in cycle_decompose(e).cycles if len(orbit) > 1]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="signdeloop",
        description="Sign deloopings on concrete finite sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sign", help="inversion-count sign of a permutation")
    p.set_defaults(run=_cmd_sign)
    p.add_argument("perm")
    p.add_argument("--n", type=int, default=None)

    p = sub.add_parser("cycles", help="canonical cycle decomposition")
    p.set_defaults(run=_cmd_cycles)
    p.add_argument("perm")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("factor", help="factor into transpositions")
    p.set_defaults(run=_cmd_factor)
    p.add_argument("perm")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("cartier", help="orientation transport distance and class sign")
    p.set_defaults(run=_cmd_cartier)
    p.add_argument("perm")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("orientation-dot", help="DOT digraph of an orientation")
    p.set_defaults(run=_cmd_orientation_dot)
    p.add_argument("perm", nargs="?", default=None)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("verify", help="run the invariant suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--construction", default="all")
    p.add_argument("--exhaustive-fixed", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("alternating", help="list the even-sign kernel")
    p.set_defaults(run=_cmd_alternating)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--json", action="store_true")

    return parser


def _print_json(obj) -> None:
    # Imported here: sign and orientation-dot never write JSON.
    import json

    print(json.dumps(obj))


def _cmd_sign(args) -> int:
    print(sign_inversions(parse_permutation(args.perm, args.n)))
    return 0


def _cmd_cycles(args) -> int:
    e = parse_permutation(args.perm, args.n)
    if args.json:
        _print_json({"n": len(e.domain), "cycles": _nontrivial_cycles(e)})
    else:
        print(format_permutation(e))
    return 0


def _cmd_factor(args) -> int:
    e = parse_permutation(args.perm, args.n)
    factors = factor_into_transpositions(e)
    if args.json:
        _print_json({"n": len(e.domain), "factors": [list(f) for f in factors]})
    else:
        text = "".join(f"({a} {b})" for a, b in factors)
        print(text or "()")
    return 0


def _cmd_cartier(args) -> int:
    from .deloopings import (
        canonical_orientation,
        cartier_delooping,
        orientation_action,
        relative_inversions,
        sign_from_delooping,
    )

    e = parse_permutation(args.perm, args.n)
    base = fin(args.n)
    d = canonical_orientation(base)
    m = relative_inversions(d, orientation_action(e, d))
    s = sign_from_delooping(cartier_delooping(args.n), e)
    if args.json:
        _print_json({"n": args.n, "relative_inversions": m, "sign": str(s)})
    else:
        print(f"relative inversions: {m}")
        print(f"class sign: {s}")
    return 0


def _cmd_orientation_dot(args) -> int:
    from .deloopings import canonical_orientation, orientation_action

    base = fin(args.n)
    u = canonical_orientation(base)
    if args.perm is not None:
        u = orientation_action(parse_permutation(args.perm, args.n), u)
    edges = (f"  {unchosen} -> {chosen};\n" for unchosen, chosen in u.choices())
    sys.stdout.write("digraph orientation {\n")
    # Streamed in batches: one write per 4096 edges keeps memory flat and
    # stays fast when stdout is unbuffered (PYTHONUNBUFFERED, python -u).
    while batch := "".join(itertools.islice(edges, 4096)):
        sys.stdout.write(batch)
    sys.stdout.write("}\n")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verification

    reports = run_verification(
        args.n,
        construction=args.construction,
        seed=args.seed,
        exhaustive_fixed=args.exhaustive_fixed,
    )
    if args.json:
        _print_json({
            "n": args.n,
            "seed": args.seed,
            "construction": args.construction,
            "passed": all(r.passed for r in reports),
            "reports": [r.to_json() for r in reports],
        })
    else:
        for report in reports:
            print(f"[{report.construction}] n={report.n} seed={report.seed}")
            for check in report.checks:
                status = "PASS" if check.passed else "FAIL"
                print(f"  {status} {check.name} ({check.duration:.2f}s) {check.detail}")
    return 0 if all(r.passed for r in reports) else 1


def _cmd_alternating(args) -> int:
    from .deloopings import alternating_kernel

    group = symmetric_group(args.n)
    kernel = alternating_kernel(group, tuple(map(sign_inversions, group)))
    if args.json:
        _print_json({
            "n": args.n,
            "order": len(kernel),
            "kernel": [list(e.images) for e in kernel],
        })
    else:
        for e in kernel:
            print(format_permutation(e))
        print(f"order {len(kernel)}")
    return 0


def run_command(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.n is not None:
            _check_arity(args.n)
        return args.run(args)
    except ValueError as exc:  # ContractError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
