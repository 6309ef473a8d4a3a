import contextlib
import io
import json
import shlex
import subprocess
import sys
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signdeloop.cli import (
    format_permutation,
    parse_permutation,
    run_command,
)
from signdeloop.deloopings import CONSTRUCTIONS
from signdeloop.errors import ContractError
from signdeloop.finite import enumerate_bijections, fin, identity
from signdeloop.perms import permutation


# Runs the CLI in a child that reports the peak RSS of its own image (KiB)
# on stderr.  Neither ru_maxrss is usable: RUSAGE_CHILDREN reports the
# largest child ever waited for, and a child's RUSAGE_SELF keeps the peak of
# the memory image it replaced at exec, here the test process's.
_MEASURED_CHILD = """
import re, sys
from signdeloop.cli import run_command
code = run_command(sys.argv[1:])
with open("/proc/self/status") as status:
    print(re.search(r"VmHWM:\\s+(\\d+) kB", status.read())[1], file=sys.stderr)
sys.exit(code)
"""


def run_measured(*argv):
    proc = subprocess.run(
        [sys.executable, "-c", _MEASURED_CHILD, *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, int(proc.stderr.split()[-1])


class TestParsePermutation:
    def test_cycle_notation(self):
        e = parse_permutation("(0 1 2)(3 4)")
        assert e.images == (1, 2, 0, 4, 3)
        assert e.domain == fin(5)

    def test_cycle_notation_with_commas(self):
        assert parse_permutation("(0,1,2)").images == (1, 2, 0)

    def test_fixed_points_via_n(self):
        e = parse_permutation("(0 1)", n=4)
        assert e.images == (1, 0, 2, 3)

    def test_arity_defaults_to_max_plus_one(self):
        assert parse_permutation("(1 3)").domain == fin(4)

    def test_identity_cycle_form(self):
        assert parse_permutation("()", n=3) == identity(fin(3))

    def test_one_line_notation(self):
        assert parse_permutation("1,2,0,4,3").images == (1, 2, 0, 4, 3)

    def test_one_line_arity_checked(self):
        with pytest.raises(ContractError):
            parse_permutation("1,0", n=3)

    def test_rejects_empty(self):
        with pytest.raises(ContractError):
            parse_permutation("   ")

    def test_rejects_a_negative_arity(self):
        # Cycle notation at n = -1 once parsed as the empty permutation.
        with pytest.raises(ContractError, match="natural number"):
            parse_permutation("()", -1)

    def test_rejects_overlapping_cycles(self):
        with pytest.raises(ContractError):
            parse_permutation("(0 1)(1 2)")

    def test_rejects_repeats_inside_cycle(self):
        with pytest.raises(ContractError):
            parse_permutation("(0 1 0)")

    def test_rejects_garbage_between_cycles(self):
        with pytest.raises(ContractError):
            parse_permutation("(0 1)x(2 3)")

    def test_rejects_label_out_of_range(self):
        with pytest.raises(ContractError):
            parse_permutation("(0 5)", n=3)

    def test_rejects_non_permutation_one_line(self):
        with pytest.raises(ContractError):
            parse_permutation("0,0,1")

    @pytest.mark.parametrize(
        "text",
        ["(1_0 2)", "1_0,0", "(+1 0)", "+1,0", "(-0 1)", "1,-0", "(\u0663 1)",
         "1,\u0660", "(\uff11 0)"],
    )
    def test_rejects_labels_that_are_not_ascii_digits(self, text, capsys):
        # int() takes "1_0", "+1", "-0" and non-ASCII digits; labels do not.
        with pytest.raises(ContractError):
            parse_permutation(text)
        assert run_command(["sign", text]) == 2
        assert "error:" in capsys.readouterr().err

    def test_whitespace_around_labels(self):
        assert parse_permutation(" 1 , 0 ,2 ").images == (1, 0, 2)
        assert parse_permutation("( 0 , 1 )(2\t3)").images == (1, 0, 3, 2)

    def test_rejects_a_label_too_long_for_int(self):
        with pytest.raises(ContractError):
            parse_permutation("(0 " + "9" * 5000 + ")")


class TestFormatPermutation:
    def test_cycle_form(self):
        assert format_permutation(permutation((1, 2, 0, 4, 3))) == "(0 1 2)(3 4)"
        assert format_permutation(identity(fin(4))) == "()"

    def test_roundtrip_exhaustive(self):
        for n in range(5):
            for e in enumerate_bijections(fin(n), fin(n)):
                assert parse_permutation(format_permutation(e), n=n) == e
                if n > 0:  # the empty one-line form has nothing to list
                    assert parse_permutation(",".join(map(str, e.images))) == e

    def test_roundtrip_fuzz(self):
        rng = Random(0)
        for _ in range(10_000):
            n = rng.randint(1, 10)
            images = list(range(n))
            rng.shuffle(images)
            e = permutation(images)
            assert parse_permutation(format_permutation(e), n=n) == e


class TestCommands:
    def test_sign(self, capsys):
        assert run_command(["sign", "(0 1)"]) == 0
        assert capsys.readouterr().out.strip() == "-1"
        assert run_command(["sign", "(0 1 2)"]) == 0
        assert capsys.readouterr().out.strip() == "+1"

    def test_cycles_text_and_json(self, capsys):
        assert run_command(["cycles", "1,2,0,4,3"]) == 0
        assert capsys.readouterr().out.strip() == "(0 1 2)(3 4)"
        assert run_command(["cycles", "1,2,0,4,3", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob == {"n": 5, "cycles": [[0, 1, 2], [3, 4]]}

    def test_factor_text_and_json(self, capsys):
        assert run_command(["factor", "(0 1 2 3)"]) == 0
        assert capsys.readouterr().out.strip() == "(0 1)(1 2)(2 3)"
        assert run_command(["factor", "(0 1 2 3)", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob == {"n": 4, "factors": [[0, 1], [1, 2], [2, 3]]}

    def test_factor_identity(self, capsys):
        assert run_command(["factor", "()", "--n", "3"]) == 0
        assert capsys.readouterr().out.strip() == "()"

    def test_cartier(self, capsys):
        assert run_command(["cartier", "(0 1)", "--n", "2", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob == {"n": 2, "relative_inversions": 1, "sign": "-1"}

    def test_cartier_at_the_arity_limit(self):
        # Three transports of 523 776 pairs each.  A transport that shifted
        # and rebuilt the whole bitmask once per pair took 35 s in all, and
        # per-carrier pair tables peaked near 100 MiB.
        proc, peak_kib = run_measured("cartier", "(0 1)", "--n", "1024", "--json")
        assert json.loads(proc.stdout)["relative_inversions"] == 1
        assert peak_kib < 48 * 1024

    def test_orientation_dot_at_the_arity_limit(self):
        proc, peak_kib = run_measured("orientation-dot", "(0 1)", "--n", "1024")
        lines = proc.stdout.splitlines()
        assert lines[0] == "digraph orientation {" and lines[-1] == "}"
        assert sum(" -> " in line for line in lines) == 1024 * 1023 // 2
        assert lines[1] == "  1 -> 0;"
        assert peak_kib < 48 * 1024

    def test_verify_census_memory(self):
        # The census holds 8 KiB blocks of 2^16 tables: about 17.5 MiB
        # VmHWM, as with MALLOC_MMAP_THRESHOLD_=131072.  2 MiB integers over
        # all 2^24 tables peaked near 26 MiB, and all 24 columns at once
        # would add 48 MiB.
        proc, peak_kib = run_measured("verify", "--n", "4", "--exhaustive-fixed")
        assert "FAIL" not in proc.stdout
        assert peak_kib < 40 * 1024

    def test_cartier_text(self, capsys):
        assert run_command(["cartier", "(0 1 2)", "--n", "3"]) == 0
        out = capsys.readouterr().out
        assert "relative inversions: 2" in out
        assert "class sign: +1" in out

    def test_orientation_dot(self, capsys):
        assert run_command(["orientation-dot", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["digraph orientation {", "  0 -> 1;", "}"]

    def test_orientation_dot_transported(self, capsys):
        assert run_command(["orientation-dot", "(0 1)", "--n", "2"]) == 0
        assert "  1 -> 0;" in capsys.readouterr().out

    def test_alternating(self, capsys):
        assert run_command(["alternating", "--n", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[-1] == "order 3"
        assert set(lines[:-1]) == {"()", "(0 1 2)", "(0 2 1)"}

    def test_alternating_json(self, capsys):
        assert run_command(["alternating", "--n", "3", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["order"] == 3
        assert [0, 1, 2] in blob["kernel"]

    def test_verify_text(self, capsys):
        assert run_command(["verify", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "[core]" in out and "PASS" in out and "FAIL" not in out

    def test_verify_json(self, capsys):
        assert run_command(["verify", "--n", "2", "--json"]) == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["passed"] is True
        assert [r["construction"] for r in blob["reports"]] == [
            "core",
            "fixed",
            "orbit",
            "simpson",
            "cartier",
        ]

    def test_verify_single_construction(self, capsys):
        assert run_command(
            ["verify", "--n", "3", "--construction", "cartier", "--json"]
        ) == 0
        blob = json.loads(capsys.readouterr().out)
        assert len(blob["reports"]) == 2

    def test_verify_above_the_enumeration_bound(self, capsys):
        # Checks that enumerate S_9 are absent rather than failing.
        assert run_command(
            ["verify", "--n", "9", "--construction", "cartier", "--json"]
        ) == 0
        blob = json.loads(capsys.readouterr().out)
        names = [c["name"] for r in blob["reports"] for c in r["checks"]]
        assert "alternating-kernel" not in names
        assert "relation-validity" in names

    def test_verify_above_the_verify_bound_is_two(self, capsys):
        assert run_command(["verify", "--n", "65", "--construction", "cartier"]) == 2
        assert "verify runs up to n = 64" in capsys.readouterr().err


def readme_cli_examples() -> list[tuple[list[str], str]]:
    """(argv, comment) for every command in the README's ## CLI block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    examples = []
    for line in block.splitlines():
        command, _, comment = line.partition("  #")
        program, *argv = shlex.split(command)
        assert program == "signdeloop", line
        examples.append((argv, comment.strip()))
    return examples


class TestReadme:
    # Commands whose README comment is their exact output.
    SHOWS_OUTPUT = ("sign", "cycles", "factor")

    def test_cli_examples_run(self, capsys):
        examples = readme_cli_examples()
        assert {argv[0] for argv, _ in examples}.issuperset(self.SHOWS_OUTPUT)
        for argv, comment in examples:
            assert run_command(argv) == 0, argv
            out = capsys.readouterr().out
            if argv[0] in self.SHOWS_OUTPUT:
                if "--json" in argv:
                    assert json.loads(out) == json.loads(comment), argv
                else:
                    assert out.strip() == comment, argv


class TestConstructionChoices:
    def test_choices_follow_the_registry(self, monkeypatch, capsys):
        # Names are checked once, by the run, against the registry it reads.
        assert run_command(["verify", "--n", "3", "--construction", "nope"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown construction 'nope' "
            "(choose from 'all', 'fixed', 'orbit', 'simpson', 'cartier')\n"
        )
        monkeypatch.setitem(CONSTRUCTIONS, "mirror", CONSTRUCTIONS["cartier"])
        assert run_command(["verify", "--n", "2", "--construction", "mirror"]) == 0
        assert "[mirror] n=2 seed=0\n" in capsys.readouterr().out
        assert run_command(["verify", "--n", "2", "--construction", "nope"]) == 2
        assert "'cartier', 'mirror')" in capsys.readouterr().err


class TestExitCodes:
    def test_usage_error_is_two(self, capsys):
        assert run_command(["sign"]) == 2
        assert run_command(["no-such-command"]) == 2
        capsys.readouterr()

    def test_contract_error_is_two(self, capsys):
        assert run_command(["sign", "(0 1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert run_command(["cartier", "(0 1)", "--n", "1"]) == 2
        capsys.readouterr()

    def test_bad_verify_size_is_two(self, capsys):
        assert run_command(["alternating", "--n", "20"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_alternating_past_the_enumeration_bound_is_two(self, capsys):
        # symmetric_group(9) raises SizeGuard before anything is listed.
        assert run_command(["alternating", "--n", "9"]) == 2
        assert "refusing to enumerate 9! bijections" in capsys.readouterr().err

    def test_arity_cap_is_two(self, capsys):
        assert run_command(["sign", "(0 1024)"]) == 2
        assert run_command(["sign", ",".join(map(str, range(1025)))]) == 2
        assert run_command(["orientation-dot", "--n", "1025"]) == 2
        assert run_command(["verify", "--n", "1025"]) == 2
        assert "exceeds the limit of 1024" in capsys.readouterr().err
        # the derived arity is refused before the identity map is built
        assert run_command(["sign", "(0 50000000)"]) == 2
        assert run_command(["sign", "(0 1023)"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["sign", "()"], ["cycles", "()", "--json"], ["factor", "()", "--json"],
         ["cartier", "()"], ["orientation-dot"], ["verify"], ["alternating"]],
        ids=lambda argv: argv[0],
    )
    def test_negative_arity_is_two(self, capsys, argv):
        # Refused before the command runs, with one ContractError's message.
        assert run_command([*argv, "--n", "-1"]) == 2
        assert capsys.readouterr() == ("", "error: arity must be a natural number, got -1\n")

    @given(
        st.sampled_from(
            ["sign", "cycles", "factor", "cartier", "orientation-dot", "verify",
             "alternating", "bogus"]
        ),
        st.none() | st.sampled_from(
            ["", "(0 1", "(0 0)", "(0 1)(1 2)", "1,1", "a,b", "(0 -1)", "(0 5000)",
             "1,2,0"]
        ),
        st.lists(
            st.sampled_from(["-1", "0", "1", "2", "3", "1025"]).map(lambda n: ["--n", n])
            | st.sampled_from([["--json"], ["--seed", "0"], ["--exhaustive-fixed"]])
            | st.sampled_from(["all", "cartier", "nope"]).map(
                lambda c: ["--construction", c]
            ),
            max_size=4,
            unique_by=lambda option: option[0],
        ),
    )
    @settings(max_examples=50, deadline=None)
    def test_fuzzed_argv_exits_zero_or_two(self, command, perm, options):
        # Every verify size drawn here passes, so exit 1 cannot occur.
        argv = [command] + ([perm] if perm is not None else [])
        argv += [token for option in options for token in option]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run_command(argv)
        assert code in (0, 2), (argv, code, err.getvalue())

    def test_console_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "signdeloop.cli", "sign", "(0 1)"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "-1"


class TestImports:
    def test_only_verify_loads_the_verify_module(self):
        # The package namespace is empty and the CLI imports verify inside
        # its verify command, so other commands never pay for that import.
        script = (
            "import sys, signdeloop; "
            "print([m for m in sys.modules if m.startswith('signdeloop.')]); "
            "import signdeloop.cli; "
            "print('signdeloop.verify' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "False"]

    def test_the_cli_loads_neither_dataclasses_nor_deloopings(self):
        # In a child, because pytest has loaded dataclasses.  sign, cycles and
        # factor need only finite, perms and cycles; none of them loads
        # dataclasses (with its inspect chain), deloopings or verify.
        script = (
            "import contextlib, io, sys\n"
            "unwanted = {'dataclasses', 'inspect', 'signdeloop.deloopings', 'signdeloop.verify'}\n"
            "import signdeloop.cli\n"
            "print(sorted(unwanted & set(sys.modules)))\n"
            "import signdeloop.finite, signdeloop.cycles, signdeloop.perms\n"
            "print(sorted(unwanted & set(sys.modules)))\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['sign', '(0 1)'], ['cycles', '(0 1)', '--json'], ['factor', '(0 1 2)']):\n"
            "        assert signdeloop.cli.run_command(argv) == 0\n"
            "print(sorted(unwanted & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "[]", "[]"]

    def test_json_is_imported_only_to_write_json(self):
        # In a child, because pytest has loaded json.
        script = (
            "import contextlib, io, sys\n"
            "import signdeloop.cli\n"
            "seen = ['json' in sys.modules]\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    for argv in (['sign', '(0 1)'], ['orientation-dot', '(0 1)', '--n', '3']):\n"
            "        assert signdeloop.cli.run_command(argv) == 0\n"
            "    seen.append('json' in sys.modules)\n"
            "    assert signdeloop.cli.run_command(['cycles', '(0 1)', '--json']) == 0\n"
            "seen.append('json' in sys.modules)\n"
            "print(seen)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[False, False, True]"
