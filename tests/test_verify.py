import gc
import itertools
import json
import math
from pathlib import Path
from random import Random

import pytest

from signdeloop import verify
from signdeloop.errors import ContractError
from signdeloop.deloopings import (
    CLASS_LABELS,
    TwoElementFamily,
    all_orientations,
    alternating_kernel,
    orbit_class,
)
from signdeloop.finite import LabeledSet, fin, identity
from signdeloop.perms import permutation
from signdeloop.verify import (
    CHECKS,
    Scope,
    VerifyReport,
    _run,
    bridge_parity,
    expand_orbits,
    kernel_closure,
    orientation_class_census,
    parity_triangle_holds,
    relation_validity,
    run_verification,
    transposition_oddness,
    uniqueness_of_deloopings,
)

# (construction, check, passed, detail) of run_verification(n, "all", 0) at
# the sizes the benchmark never runs, recorded before the cycles and
# quotients modules lost their unused presentations.
GOLDEN = json.loads((Path(__file__).parent / "verify_golden.json").read_text())


class TestOracles:
    def test_expand_orbits_counts(self):
        for n in range(2, 5):
            orbits = expand_orbits(n)
            assert len(orbits) == 2
            assert sorted(len(o) for o in orbits) == [math.factorial(n)] * 2

    def test_expand_orbits_match_class_labels(self):
        for orbit in expand_orbits(3):
            labels = {
                orbit_class(permutation(images), s) for images, s in orbit
            }
            assert len(labels) == 1
        all_labels = {
            orbit_class(permutation(images), s)
            for orbit in expand_orbits(3)
            for images, s in orbit
        }
        assert all_labels == {0, 1}

    def test_kernel_closure(self):
        for n in range(2, 6):
            ok, detail = kernel_closure(n)
            assert ok
            assert detail == f"order {math.factorial(n) // 2}"

    def test_kernel_closure_reports_the_first_escape(self, monkeypatch):
        # Every listed permutation is even and inverse-closed, so a closure
        # that judged products by sign would pass; only looking each product
        # up in the listing finds that (0 1)(2 3) is missing.
        even = alternating_kernel(5)
        missing = (1, 0, 3, 2, 4)
        tampered = tuple(e for e in even if e.images != missing)
        monkeypatch.setattr(verify, "alternating_kernel", lambda n: tampered)
        # The identity maps the listing onto itself; the first escaping pair
        # in listing order therefore starts at the second element.
        a, b = (0, 1, 3, 4, 2), (1, 0, 4, 3, 2)
        assert tuple(b[i] for i in a) == missing
        assert kernel_closure(5) == (
            False, f"product of {a!r} and {b!r} escapes the kernel"
        )

    def test_parity_triangle_exhaustive(self):
        ok, detail = parity_triangle_holds(3, Random(0))
        assert ok and "additive" in detail

    @pytest.mark.parametrize("n, pair", [(3, (5, 2)), (4, (37, 12))])
    def test_parity_triangle_reports_the_first_break(self, monkeypatch, n, pair):
        # A disagreement count off by one on the single ordered pair `pair`
        # breaks additivity on some triples; the per-pair table must report
        # the first of them in product order, as a triple-by-triple scan does.
        real = verify.relative_inversions

        def tampered(u, v):
            return real(u, v) + ((u.bits, v.bits) == pair)

        monkeypatch.setattr(verify, "relative_inversions", tampered)

        def brute():
            for u, v, w in itertools.product(all_orientations(fin(n)), repeat=3):
                if tampered(u, w) % 2 != (tampered(u, v) + tampered(v, w)) % 2:
                    return False, f"triple {(u.bits, v.bits, w.bits)!r} breaks additivity"
            return True, "additive mod 2"

        expected = brute()
        assert expected[0] is False
        assert parity_triangle_holds(n, Random(0)) == expected

    def test_parity_triangle_sampled(self):
        ok, _ = parity_triangle_holds(6, Random(0), trials=500)
        assert ok

    def test_orientation_class_census(self):
        for n in range(2, 6):
            ok, detail = orientation_class_census(n)
            assert ok, detail

    def test_transposition_oddness(self):
        for n in range(2, 6):
            assert transposition_oddness(n)[0]

    def test_bridge_parity(self):
        for n in range(2, 6):
            assert bridge_parity(n)[0]

    def test_relation_validity_beyond_the_enumeration_bound(self):
        # 12! charts cannot be listed and 2^66 orientations overflow a sample
        # population, so both pools are drawn.
        ok, detail = relation_validity(12, Random(0))
        assert ok, detail

    def test_uniqueness_of_deloopings(self):
        ok, detail = uniqueness_of_deloopings(3, seed=0)
        assert ok, detail

    def test_recognition_row_reports_its_failure(self):
        trivial = TwoElementFamily("trivial", 3, lambda e: identity(CLASS_LABELS), 0)
        (row,) = [c for c in CHECKS if c.name == "recognition"]
        assert row.run(Scope(3, 0, Random(0), trivial)) == (
            False, "booleans (False, False, False), counterexample (1, 0, 2)"
        )


class TestRunWrapper:
    def test_crash_becomes_failure(self):
        report = VerifyReport("demo", 3, 0)
        _run(report, "boom", lambda: (_ for _ in ()).throw(RuntimeError("no")))
        assert report.checks[0].passed is False
        assert "raised RuntimeError" in report.checks[0].detail
        assert not report.passed

    def test_pass_recorded_with_timing(self):
        report = VerifyReport("demo", 3, 0)
        _run(report, "fine", lambda: (True, "all good"))
        check = report.checks[0]
        assert check.passed and check.detail == "all good"
        assert check.duration >= 0
        assert report.passed


class TestRunVerification:
    def test_all_constructions_at_three(self):
        reports = run_verification(3)
        assert [r.construction for r in reports] == [
            "core",
            "fixed",
            "orbit",
            "simpson",
            "cartier",
        ]
        for r in reports:
            assert r.passed, [c for c in r.checks if not c.passed]
            assert r.checks

    def test_core_check_names(self):
        core = run_verification(3)[0]
        names = [c.name for c in core.checks]
        assert "cycle-roundtrip" in names
        assert "uniqueness" in names
        assert "relation-validity" in names

    def test_single_construction(self):
        reports = run_verification(4, construction="cartier")
        assert [r.construction for r in reports] == ["core", "cartier"]
        core_names = [c.name for c in reports[0].checks]
        assert "uniqueness" not in core_names  # needs all constructions
        assert all(r.passed for r in reports)

    def test_quotient_naturality_in_every_report(self):
        family = [
            "functor-laws", "fiber-two-elements", "transpositions-swap",
            "sign-agreement", "recognition", "recognition-covariance",
            "label-independence", "quotient-naturality",
        ]
        core = [
            "cycle-roundtrip", "endofunction-roundtrip", "factorization",
            "sign-homomorphism", "alternating-kernel", "parity-triangle",
            "transposition-oddness", "orientation-classes", "bridge-parity",
            "relation-validity", "uniqueness",
        ]
        for n in (4, 5):
            reports = run_verification(n)
            names = {r.construction: [c.name for c in r.checks] for r in reports}
            assert names == {
                "core": [c for c in core if n == 4 or c != "endofunction-roundtrip"],
                "fixed": family + ["equivariance"],
                "orbit": family + ["orbit-structure"],
                "simpson": family,
                "cartier": family,
            }
            for report in reports[1:]:
                check = next(c for c in report.checks if c.name == "quotient-naturality")
                assert check.passed, (report.construction, check.detail)
                assert check.detail == "projection squares commute on 20 moves"

    def test_fixed_census_gating(self):
        with_census = run_verification(3, construction="fixed")
        names = [c.name for c in with_census[1].checks]
        assert "fixed-census" in names
        without = run_verification(4, construction="fixed")
        assert "fixed-census" not in [c.name for c in without[1].checks]

    def test_unknown_construction(self):
        with pytest.raises(ContractError):
            run_verification(3, construction="nope")

    def test_json_serializable(self):
        reports = run_verification(2)
        blob = json.dumps([r.to_json() for r in reports])
        parsed = json.loads(blob)
        assert parsed[0]["construction"] == "core"
        assert all(
            set(c) == {"name", "passed", "detail", "duration"}
            for r in parsed
            for c in r["checks"]
        )

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_matches_golden_table(self, n):
        rows = [
            [r.construction, c.name, c.passed, c.detail]
            for r in run_verification(n, "all", 0)
            for c in r.checks
        ]
        assert rows == GOLDEN[str(n)]

    def test_seed_changes_are_still_green(self):
        for seed in (1, 2):
            assert all(r.passed for r in run_verification(2, seed=seed))

    def test_repeated_runs_keep_no_carriers_alive(self):
        # Each run at n = 5 draws about 1400 random carriers; none may
        # outlive it, say in a cache keyed by carrier.
        def live_labeled_sets():
            gc.collect()
            return sum(type(o) is LabeledSet for o in gc.get_objects())

        run_verification(5, "all", 101)
        after_one = live_labeled_sets()
        run_verification(5, "all", 102)
        assert live_labeled_sets() <= after_one
