"""Acceptance suite: thirteen exact criteria, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every check is exact (tolerance zero).
"""

import math
from random import Random

from signdeloop.deloopings import (
    CONSTRUCTIONS,
    alternating_kernel,
    check_recognition,
    mutate_family,
    natural_isomorphism,
    sign_mismatch,
    simpson_delooping,
)
from signdeloop.finite import (
    LabeledSet,
    enumerate_bijections,
    fin,
    random_bijection,
    random_labeled_set,
)
from signdeloop.verify import (
    cycle_roundtrip,
    endofunction_roundtrip,
    expand_orbits,
    fixed_census,
    kernel_closure,
    orientation_class_census,
    parity_triangle_holds,
    transposition_oddness,
)


def conclude(tag: str, violations: int, detail: str) -> None:
    status = "PASS" if violations == 0 else "FAIL"
    print(f"{tag}: {status} ({detail})")
    assert violations == 0, f"{tag}: {violations} violation(s) — {detail}"


def test_c01_sign_agreement_all_constructions():
    bad = 0
    checked = 0
    for n in range(2, 7):
        for build in CONSTRUCTIONS.values():
            checked += math.factorial(n)
            if sign_mismatch(build(n), enumerate_bijections(fin(n), fin(n))) is not None:
                bad += 1
    conclude(
        "C01 sign agreement, 4 constructions, n=2..6",
        bad,
        f"{checked} permutation/construction pairs",
    )


def test_c02_cartier_two_equal_classes():
    bad = 0
    total = 0
    for n in range(2, 7):
        total += 1 << math.comb(n, 2)
        ok, _ = orientation_class_census(n)
        if not ok:
            bad += 1
    conclude(
        "C02 orientation census: 2 equal classes, n=2..6",
        bad,
        f"{total} orientations classified",
    )


def test_c03_transposition_oddness():
    bad = 0
    for n in range(2, 7):
        ok, detail = transposition_oddness(n)
        if not ok:
            bad += 1
    conclude(
        "C03 odd transport distance for every transposition, n=2..6",
        bad,
        "all pairs on all carriers",
    )


def test_c04_parity_triangle():
    bad = 0
    for n in (3, 4):
        ok, _ = parity_triangle_holds(n, Random(0))  # exhaustive at n <= 4
        if not ok:
            bad += 1
    for n in range(5, 9):
        ok, _ = parity_triangle_holds(n, Random(n), trials=10_000)
        if not ok:
            bad += 1
    conclude(
        "C04 disagreement counts additive mod 2",
        bad,
        "exhaustive n=3,4 plus 10^4 seeded triples each for n=5..8",
    )


def test_c05_fixed_point_census():
    bad = sum(not fixed_census(n)[0] for n in (3, 4))
    conclude(
        "C05 equivariant tables are exactly +/-sign",
        bad,
        "2 of 64 at n=3; 2 of 2^24 at n=4",
    )


def test_c06_two_orbits_of_size_factorial():
    bad = 0
    for n in range(2, 6):
        orbits = expand_orbits(n)
        if len(orbits) != 2 or sorted(len(o) for o in orbits) != [math.factorial(n)] * 2:
            bad += 1
    conclude(
        "C06 exactly 2 orbits of size n! each, n=2..5",
        bad,
        "closure under all transposition moves",
    )


def test_c07_simpson_two_classes_of_half_size():
    bad = 0
    for n in range(2, 7):
        X = LabeledSet.of(range(100, 100 + n))
        for carrier in (fin(n), X):
            if simpson_delooping.census(carrier) != [math.factorial(n) // 2] * 2:
                bad += 1
    conclude(
        "C07 chart classes: 2 of size n!/2, n=2..6",
        bad,
        "base and relabeled carriers",
    )


def test_c08_cycle_roundtrip_and_distinct_forms():
    bad = 0
    checked = 0
    for n in range(2, 8):
        checked += math.factorial(n)
        ok, _ = cycle_roundtrip(n)
        if not ok:
            bad += 1
    conclude(
        "C08 cycle decompose/recompose identity on S_n, n=2..7",
        bad,
        f"{checked} permutations, canonical forms all distinct",
    )


def test_c09_endofunction_roundtrip():
    bad = 0
    checked = 0
    for n in (2, 3, 4):
        checked += n**n
        ok, _ = endofunction_roundtrip(n)
        if not ok:
            bad += 1
    conclude(
        "C09 endofunction decompose/recompose mutually inverse",
        bad,
        f"all {checked} self-maps for n=2,3,4, both directions",
    )


def test_c10_recognition_covariance():
    bad = 0
    for n in range(2, 6):
        for build in CONSTRUCTIONS.values():
            if not check_recognition(build(n)).is_delooping:
                bad += 1
    names = sorted(CONSTRUCTIONS)
    for seed in range(200):
        rng = Random(seed)
        n = rng.randrange(2, 6)
        Q = mutate_family(CONSTRUCTIONS[names[seed % 4]](n), rng)
        if not check_recognition(Q).consistent:
            bad += 1
    conclude(
        "C10 recognition booleans: all true for the 4 constructions, co-varying on 200 mutants",
        bad,
        "n=2..5 plus seeded mutants",
    )


def test_c11_unique_natural_isomorphisms():
    bad = 0
    pairs = 0
    for n in range(2, 6):
        fams = [build(n) for build in CONSTRUCTIONS.values()]
        for Q in fams:
            for Qp in fams:
                pairs += 1
                phi = natural_isomorphism(Q, Qp, squares=50, seed=11 * n)
                if phi.at(fin(n))(Q.base_point) != Qp.base_point:
                    bad += 1
    conclude(
        "C11 base-point-preserving natural isomorphism for every ordered pair, n=2..5",
        bad,
        f"{pairs} pairs, 50 seeded squares each, uniqueness probed",
    )


def test_c12_alternating_kernel_order_and_closure():
    bad = 0
    for n in range(2, 8):
        kernel = alternating_kernel(n)
        if len(kernel) != math.factorial(n) // 2:
            bad += 1
        ok, detail = kernel_closure(n)  # exhaustive pairs for n <= 7
        if not ok:
            bad += 1
    conclude(
        "C12 kernel has order n!/2 and is closed under product/inverse, n=2..7",
        bad,
        "exhaustive closure at every size",
    )


def test_c13_label_independence():
    bad = 0
    rng = Random(13)
    names = sorted(CONSTRUCTIONS)
    for trial in range(1000):
        n = rng.randrange(2, 6)
        Q = CONSTRUCTIONS[names[trial % 4]](n)
        X = random_labeled_set(rng, n)
        r = random_bijection(rng, fin(n), X)
        p = random_bijection(rng, fin(n), fin(n))
        conjugated = r.inverse().then(p).then(r)
        direct = Q.action(conjugated)
        transported = Q.action(r).inverse().then(Q.action(p)).then(Q.action(r))
        if direct != transported:
            bad += 1
    conclude(
        "C13 relabeling-transport commutation",
        bad,
        "1000 seeded trials across all constructions",
    )
