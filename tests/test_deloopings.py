import dataclasses
import importlib
import itertools
import math
import pkgutil
import sys
import tracemalloc
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import signdeloop
from signdeloop import deloopings, finite
from signdeloop.errors import (
    ArityMismatch,
    ArityTooSmall,
    CarrierMismatch,
    ContractError,
    NaturalityFailure,
    NotADelooping,
    SizeGuard,
    TooSmall,
)
from signdeloop.finite import (
    Bijection,
    LabeledSet,
    enumerate_bijections,
    fin,
    identity,
    k_subsets,
    order_bijection,
    random_bijection,
    random_labeled_set,
    transposition_of_pair,
)
from signdeloop.perms import MINUS, PLUS, chart_sign, sign_inversions, transposition
from signdeloop.verify import run_verification
from signdeloop.deloopings import (
    CONSTRUCTIONS,
    Construction,
    FixedPointElement,
    Orientation,
    TwoElementFamily,
    all_orientations,
    alternating_kernel,
    canonical_orientation,
    cartier_delooping,
    check_recognition,
    exhaustive_fixed_points,
    fixed_point_delooping,
    fixed_recipe,
    natural_isomorphism,
    orbit_delooping,
    orbit_recipe,
    orbit_representative,
    orientation_action,
    orientation_class,
    orientation_representative,
    relative_inversions,
    sign_from_delooping,
    sign_mismatch,
    simpson_delooping,
    simpson_representative,
    unswapped_transposition,
)

from deformations import Mutation
from listings import listing
from strategies import bijection_chains
from test_imports import PARITY_DEFINITIONS

PACKAGE_MODULES = [
    importlib.import_module(f"signdeloop.{module.name}")
    for module in pkgutil.iter_modules(signdeloop.__path__)
]


def perms_of(n):
    return enumerate_bijections(fin(n), fin(n))


def naive_orientation_transport(e, u):
    """Bits of u transported along e, one pair at a time (the pair-by-pair
    definition: the image pair chooses the image of the chosen preimage)."""
    chosen = {
        (a, b): b if (u.bits >> k) & 1 else a
        for k, (a, b) in enumerate(itertools.combinations(u.carrier.elements, 2))
    }
    preimage = dict(zip(e.images, e.domain.elements))
    bits = 0
    for k, (a, b) in enumerate(itertools.combinations(e.codomain.elements, 2)):
        if e(chosen[tuple(sorted((preimage[a], preimage[b])))]) == b:
            bits |= 1 << k
    return bits


class TestOrientation:
    def test_canonical_chooses_larger(self):
        X = LabeledSet.of([5, 9, 12])
        assert tuple(canonical_orientation(X).choices()) == ((5, 9), (5, 12), (9, 12))

    def test_flip(self):
        X = LabeledSet.of([5, 9, 12])
        u = canonical_orientation(X).flip(0)
        assert tuple(u.choices()) == ((9, 5), (5, 12), (9, 12))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_built_orientations_equal_validated_ones(self, n):
        # all_orientations, canonical_orientation, flip and orientation_action
        # skip the bits check; each result must pass it and compare and hash
        # as the validated twin does.
        X = random_labeled_set(Random(n), n)
        built = list(all_orientations(X))
        if n >= 2:
            d = canonical_orientation(X)
            built += [d] + [d.flip(k) for k in range(math.comb(n, 2))]
        built += [orientation_action(e, u) for e in enumerate_bijections(X, fin(n)) for u in built[:8]]
        for u in built:
            checked = Orientation(u.carrier, u.bits)
            assert u == checked and hash(u) == hash(checked)
        assert [u.bits for u in all_orientations(X)] == list(range(1 << math.comb(n, 2)))

    def test_bits_validation(self):
        with pytest.raises(ContractError):
            Orientation(fin(3), 8)
        with pytest.raises(ContractError):
            Orientation("ab", 0)  # a string of two labels is not a carrier
        with pytest.raises(ContractError):
            Orientation(fin(3), -1)
        with pytest.raises(ContractError):
            canonical_orientation(fin(3)).flip(3)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            canonical_orientation(fin(1))
        with pytest.raises(TooSmall):
            orientation_class(Orientation(fin(1), 0))

    def test_relative_inversions(self):
        d = canonical_orientation(fin(3))
        assert relative_inversions(d, d) == 0
        assert relative_inversions(d, d.flip(0).flip(2)) == 2
        with pytest.raises(CarrierMismatch):
            relative_inversions(d, canonical_orientation(fin(4)))

    def test_transport_along_swap_frozen(self):
        d = canonical_orientation(fin(2))
        moved = orientation_action(transposition(2, 0, 1), d)
        assert moved.bits == 0
        assert relative_inversions(moved, d) == 1

    def test_action_carrier_checked(self):
        with pytest.raises(CarrierMismatch):
            orientation_action(identity(fin(3)), canonical_orientation(fin(4)))

    def test_action_builds_no_inverse(self, monkeypatch):
        def refuse(self):
            raise AssertionError("inverse built")

        X, Y = LabeledSet.of([3, 8, 11, 20]), LabeledSet.of([1, 2, 5, 9])
        e, u = Bijection(X, Y, (5, 1, 9, 2)), Orientation(X, 0b101101)
        expected = orientation_action(e, u)
        monkeypatch.setattr(Bijection, "inverse", refuse)
        assert orientation_action(e, u) == expected

    def test_action_identity(self):
        for u in all_orientations(fin(3)):
            assert orientation_action(identity(fin(3)), u) == u

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 40, 200])
    def test_action_matches_a_per_pair_oracle(self, n):
        rng = Random(n)
        X, Y = random_labeled_set(rng, n), random_labeled_set(rng, n)
        width = math.comb(n, 2)
        for A, B in ((X, Y), (fin(n), fin(n)), (X, X)):
            for _ in range(3):
                e = random_bijection(rng, A, B)
                u = Orientation(A, rng.getrandbits(width))
                assert orientation_action(e, u).bits == naive_orientation_transport(e, u)

    def test_action_matches_the_oracle_on_a_cold_and_a_warm_cache(self):
        # The transport is cached on positions and bits alone: a cached
        # result still lands over the map's own codomain.
        rng = Random(5)
        X, Y = random_labeled_set(rng, 5), random_labeled_set(rng, 5)
        cases = []
        for _ in range(20):
            e = random_bijection(rng, X, Y)
            twin = Bijection(fin(5), fin(5), e.positions)  # the same positions
            u = rng.getrandbits(10)
            cases += [(e, Orientation(X, u)), (twin, Orientation(fin(5), u))]
        deloopings._transported_bits.cache_clear()
        for _ in range(2):  # cold, then warm
            for e, u in cases:
                moved = orientation_action(e, u)
                assert moved.carrier is e.codomain
                assert moved.bits == naive_orientation_transport(e, u)
        assert deloopings._transported_bits.cache_info().hits >= len(cases)

    def test_large_transports_bypass_the_cache(self):
        rng = Random(40)
        X, Y = random_labeled_set(rng, 40), random_labeled_set(rng, 40)
        e, u = random_bijection(rng, X, Y), Orientation(X, rng.getrandbits(math.comb(40, 2)))
        before = deloopings._transported_bits.cache_info()
        assert orientation_action(e, u).bits == naive_orientation_transport(e, u)
        assert deloopings._transported_bits.cache_info() == before

    @given(bijection_chains(length=2, min_size=2, max_size=5), st.integers(0, 1023))
    def test_action_functorial(self, chain, seed_bits):
        e, f = chain
        width = len(list(itertools.combinations(e.domain.elements, 2)))
        u = Orientation(e.domain, seed_bits % (1 << width))
        assert orientation_action(e.then(f), u) == orientation_action(
            f, orientation_action(e, u)
        )

    def test_class_census(self):
        for n in range(2, 5):
            per_class = [0, 0]
            for u in all_orientations(fin(n)):
                per_class[orientation_class(u) is MINUS] += 1
            half = 1 << (math.comb(n, 2) - 1)
            assert per_class == [half, half]

    def test_representatives(self):
        X = LabeledSet.of([3, 8, 11])
        assert orientation_class(orientation_representative(X, PLUS)) is PLUS
        assert orientation_class(orientation_representative(X, MINUS)) is MINUS
        with pytest.raises(ContractError):
            orientation_representative(X, 7)

    def test_transported_canonical_tracks_sign(self):
        for n in range(2, 5):
            d = canonical_orientation(fin(n))
            for e in perms_of(n):
                moved = orientation_action(e, d)
                assert orientation_class(moved) is sign_inversions(e)


class TestSimpson:
    def test_order_chart_is_class_zero(self):
        X = LabeledSet.of([4, 6, 9])
        assert simpson_delooping.classify(order_bijection(X)) is PLUS

    def test_odd_precomposition_flips(self):
        X = LabeledSet.of([4, 6, 9])
        h = transposition(3, 0, 1).then(order_bijection(X))
        assert simpson_delooping.classify(h) is MINUS

    def test_representatives(self):
        X = LabeledSet.of([4, 6, 9])
        for s in (PLUS, MINUS):
            assert simpson_delooping.classify(simpson_representative(X, s)) is s
        with pytest.raises(ContractError):
            simpson_representative(X, 2)

    def test_class_census(self):
        for n in range(2, 5):
            X = LabeledSet.of(range(50, 50 + n))
            counts = [0, 0]
            for h in enumerate_bijections(fin(n), X):
                counts[simpson_delooping.classify(h) is MINUS] += 1
            assert counts == [math.factorial(n) // 2] * 2


class TestOrbit:
    def test_representatives(self):
        X = LabeledSet.of([4, 6, 9])
        for label in (PLUS, MINUS):
            assert orbit_delooping.classify(orbit_representative(X, label)) is label
        with pytest.raises(ContractError):
            orbit_representative(X, -3)

    def test_twisted_move_invariance(self):
        # precomposing the chart with p while multiplying the sign by
        # sign(p) stays in the same orbit
        X = LabeledSet.of([4, 6, 9])
        classify = orbit_delooping.classify
        for h in enumerate_bijections(fin(3), X):
            for s in (PLUS, MINUS):
                for p in perms_of(3):
                    assert classify((p.then(h), sign_inversions(p) * s)) is classify((h, s))

    def test_class_census(self):
        X = LabeledSet.of([4, 6, 9])
        counts = [0, 0]
        for h in enumerate_bijections(fin(3), X):
            for s in (PLUS, MINUS):
                counts[orbit_delooping.classify((h, s)) is MINUS] += 1
        assert counts == [6, 6]


def fixed_point_elements(X):
    """The fixed record's representatives over X, PLUS then MINUS."""
    return tuple(fixed_point_delooping.representative(X, s) for s in (PLUS, MINUS))


def value_at(f, h):
    """f's value at a chart h: fin(n) -> f.carrier, which is the value of
    f o h, its transport along h^-1, at the order chart of fin(n)."""
    return fixed_point_delooping.transport(h.inverse(), f).value


class TestFixedPointElements:
    def test_value_at_the_order_chart(self):
        X = LabeledSet.of([2, 7, 8])
        plus, minus = fixed_point_elements(X)
        h0 = order_bijection(X)
        assert value_at(plus, h0) == PLUS and value_at(minus, h0) == MINUS
        classify = fixed_point_delooping.classify
        assert classify(plus) is PLUS and classify(minus) is MINUS

    def test_equivariance(self):
        X = LabeledSet.of([2, 7, 8])
        plus, _ = fixed_point_elements(X)
        for h in enumerate_bijections(fin(3), X):
            for p in perms_of(3):
                assert value_at(plus, p.then(h)) == sign_inversions(p) * value_at(plus, h)

    def test_transport(self):
        X, Y = LabeledSet.of([2, 7, 8]), LabeledSet.of([1, 3, 5])
        plus, _ = fixed_point_elements(X)
        e = Bijection(X, Y, (3, 1, 5))
        moved = fixed_point_delooping.transport(e, plus)
        for h in enumerate_bijections(fin(3), X):
            assert value_at(moved, h.then(e)) == value_at(plus, h)

    def test_transport_carrier_checked(self):
        plus, _ = fixed_point_elements(fin(3))
        with pytest.raises(CarrierMismatch):
            fixed_point_delooping.transport(identity(fin(4)), plus)

    @pytest.mark.parametrize(
        "carrier, value",
        [
            (fin(3), 1),
            (fin(3), True),
            (LabeledSet.of([2, 7, 8]), None),
            ("carrier", PLUS),
            ((2, 7, 8), PLUS),
            (order_bijection(fin(3)), MINUS),
        ],
        ids=["int-value", "bool-value", "none-value", "str-carrier", "tuple-carrier",
             "chart-carrier"],
    )
    def test_public_constructor_refuses_what_is_not_a_set_and_a_sign(self, carrier, value):
        with pytest.raises(ContractError):
            FixedPointElement(carrier, value)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("random_carrier", [False, True], ids=["fin", "random"])
    def test_exactly_two_functions(self, n, random_carrier):
        # The twisted action fixes two functions on charts, and the record
        # lists them, each once: one function reached along two paths that
        # differ by an even permutation is one element.
        rng = Random(n)
        X = random_labeled_set(rng, n) if random_carrier else fin(n)
        elements = list(fixed_point_delooping.elements(X))
        assert len(elements) == len(set(elements)) == 2
        assert fixed_point_delooping.census(X) == [1, 1]
        for f, s in zip(elements, (PLUS, MINUS)):
            for h in enumerate_bijections(fin(n), X):
                assert value_at(f, h) is s * sign_inversions(Bijection(fin(n), fin(n), h.positions))
        Y = random_labeled_set(rng, n)
        e = random_bijection(rng, X, Y)
        evens = [t for t in enumerate_bijections(X, X) if sign_inversions(t) is PLUS]
        transport = fixed_point_delooping.transport
        for f in elements:
            moved = transport(e, f)
            assert moved in fixed_point_delooping.elements(Y)
            for t in evens:
                assert transport(t.then(e), f) == moved


def trivial_homomorphism(h):
    return PLUS


RECIPES = pytest.mark.parametrize("recipe", [orbit_recipe, fixed_recipe], ids=["orbit", "fixed"])


class TestRecipes:
    """orbit and fixed are recipes of a homomorphism phi from charts to
    Signs: at the sign they deloop it, and at the trivial homomorphism they
    give the trivial action, which fails all three conditions."""

    @RECIPES
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_recognition_tells_the_two_homomorphisms_apart(self, recipe, n):
        signed = listing(n)
        trivial = check_recognition(recipe(trivial_homomorphism)(n), *signed)
        assert trivial.booleans == (False, False, False)
        assert check_recognition(recipe(chart_sign)(n), *signed).booleans == (True, True, True)

    @RECIPES
    def test_the_trivial_homomorphism_acts_as_plus(self, recipe):
        rng = Random(5)
        for n in range(2, 7):
            Q = recipe(trivial_homomorphism)(n)
            assert Q.base_point is PLUS
            for _ in range(20):
                X, Y = random_labeled_set(rng, n), random_labeled_set(rng, n)
                assert Q.action(random_bijection(rng, X, Y)) is PLUS


def per_table_scan(n):
    """Every table on its own, against every generator at every chart:
    f is fixed by g when f(h) = -f(h o g) for all h.  Each survivor is
    listed as its signs in the order of the listing."""
    perms = perms_of(n)
    generators = [transposition(n, a, a + 1) for a in range(n - 1)]
    survivors = []
    for k in range(1 << len(perms)):
        f = {p: MINUS if (k >> i) & 1 else PLUS for i, p in enumerate(perms)}
        if all(f[h] is -f[g.then(h)] for g in generators for h in perms):
            survivors.append(tuple(f[p] for p in perms))
    return survivors


class TestExhaustiveCensus:
    def test_exactly_two_tables(self):
        for n in range(2, 4):
            tables = exhaustive_fixed_points(perms_of(n))
            assert len(tables) == 2

    def test_tables_are_sign_and_its_negation(self):
        tables = exhaustive_fixed_points(perms_of(3))
        expected = tuple(map(sign_inversions, perms_of(3)))
        assert set(tables) == {expected, tuple(-s for s in expected)}

    def test_size_guard(self):
        with pytest.raises(SizeGuard):
            exhaustive_fixed_points(perms_of(5))

    @pytest.mark.parametrize("n", range(4))
    def test_matches_a_per_table_scan(self, n):
        assert exhaustive_fixed_points(perms_of(n)) == per_table_scan(n)

    def test_column_bit_t_is_bit_i_of_t(self):
        for w in range(11):
            for i in range(w):
                column = deloopings._column(i, 1 << w)
                assert column >> (1 << w) == 0
                assert all((column >> t) & 1 == (t >> i) & 1 for t in range(1 << w))

    @pytest.mark.parametrize("bits", range(6))
    def test_blocks_narrower_than_the_tables(self, monkeypatch, bits):
        # One block of 2^(n!) tables holds the whole census at n <= 3.
        # Narrower blocks send every pair i < j with j >= bits through
        # bits[i] ^ bits[j], where an index past the block reads the block
        # number, as at n = 4 with 2^16-table blocks.  Width 0 puts every
        # index past the block.
        monkeypatch.setattr(deloopings, "_BLOCK_BITS", bits)
        for n in range(1, 4):
            assert exhaustive_fixed_points(perms_of(n)) == per_table_scan(n)

    @pytest.mark.parametrize("bits", (8, 12))
    def test_blocks_of_other_widths_at_n4(self, monkeypatch, bits):
        expected = exhaustive_fixed_points(perms_of(4))
        monkeypatch.setattr(deloopings, "_BLOCK_BITS", bits)
        assert exhaustive_fixed_points(perms_of(4)) == expected

    def test_holds_one_constraint_at_a_time_at_n4(self):
        # 2^16-table blocks of 8 KiB: the 16 columns, `low`, one block and
        # one bits[i] ^ bits[j] at a time trace under 200 KiB.  One 2 MiB
        # integer per pair over all 2^24 tables traced 7.6 MiB, and all 24
        # columns at once would be 48 MiB.
        group = perms_of(4)
        tracemalloc.start()
        try:
            exhaustive_fixed_points(group)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_stdlib_only_at_n4(self, monkeypatch):
        # A None entry makes any `import numpy` raise ImportError.
        monkeypatch.setitem(sys.modules, "numpy", None)
        tables = exhaustive_fixed_points(perms_of(4))
        expected = tuple(map(sign_inversions, perms_of(4)))
        assert tables == [expected, tuple(-s for s in expected)]


class TestFamilies:
    def test_constructions_registry(self):
        assert set(CONSTRUCTIONS) == {"fixed", "orbit", "simpson", "cartier"}

    def test_arity_too_small(self):
        for build in CONSTRUCTIONS.values():
            with pytest.raises(ArityTooSmall):
                build(1)

    def test_large_arity_signs(self):
        # Differential oracle where exhaustion is off: sign_inversions and
        # every construction's sign against (-1)^(n - #cycles), counted here.
        # The actions transport one representative per class, so no size
        # guard applies.
        for n in (7, 12, 64):
            rng = Random(n)
            families = [build(n) for build in CONSTRUCTIONS.values()]
            for _ in range(10):
                e = random_bijection(rng, fin(n), fin(n))
                cycles, seen = 0, set()
                for start in range(n):
                    if start not in seen:
                        cycles += 1
                        while start not in seen:
                            seen.add(start)
                            start = e.images[start]
                expected = PLUS if (n - cycles) % 2 == 0 else MINUS
                assert sign_inversions(e) == expected, e.images
                for Q in families:
                    assert sign_from_delooping(Q, e) == expected, (Q.name, e.images)

    @pytest.mark.parametrize(
        "label",
        [-1, 2, True, 1.0, "0", pytest.param(0, id="int0"), pytest.param(1, id="int1"), None],
    )
    def test_representative_rejects_non_class_labels(self, label):
        # Every record checks that its class is a Sign.
        X = LabeledSet.of([5, 7, 9])
        for build in CONSTRUCTIONS.values():
            C = build(3).construction
            assert [C.classify(C.representative(X, s)) for s in (PLUS, MINUS)] == [PLUS, MINUS]
            with pytest.raises(ContractError, match="must be a Sign"):
                C.representative(X, label)

    @pytest.mark.parametrize("base_point", [0, 1, True, None, "+1"])
    def test_family_rejects_a_non_sign_base_point(self, base_point):
        with pytest.raises(ContractError, match="base point must be a Sign"):
            TwoElementFamily("hand-built", 3, lambda e: PLUS, base_point)

    def test_action_identity_law(self):
        for build in CONSTRUCTIONS.values():
            Q = build(3)
            X = LabeledSet.of([5, 7, 9])
            assert Q.action(identity(X)) is PLUS

    def test_action_arity_checked(self):
        Q = cartier_delooping(3)
        with pytest.raises(ArityMismatch):
            Q.action(identity(fin(4)))

    @given(bijection_chains(length=2, min_size=3, max_size=3))
    @settings(max_examples=40)
    def test_action_functorial(self, chain):
        e, f = chain
        for build in CONSTRUCTIONS.values():
            Q = build(3)
            assert Q.action(e.then(f)) is Q.action(e) * Q.action(f)

    def test_transpositions_act_as_swap(self):
        for build in CONSTRUCTIONS.values():
            for n in (2, 3, 4):
                Q = build(n)
                X = LabeledSet.of(range(30, 30 + n))
                for P in k_subsets(X, 2):
                    assert Q.action(transposition_of_pair(X, P)) is MINUS

    def test_sign_agreement(self):
        for build in CONSTRUCTIONS.values():
            for n in (2, 3, 4):
                Q = build(n)
                for e in perms_of(n):
                    assert sign_from_delooping(Q, e) == sign_inversions(e)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_sign_is_the_action(self, name):
        # On the family and on every flip and twist mutant among 16 seeds:
        # multiplication by the action fixes the base point exactly when
        # the action is PLUS, whatever the base point.
        tags = set()
        for n in (2, 3, 4):
            Q = CONSTRUCTIONS[name](n)
            mutants = [Mutation.draw(Random(seed)).apply(Q) for seed in range(16)]
            families = [Q] + [m for m in mutants if "flip" in m.name or "twist" in m.name]
            tags |= {tag for m in families[1:] for tag in ("flip", "twist") if tag in m.name}
            for F in families:
                for e in perms_of(n):
                    assert sign_from_delooping(F, e) is F.action(e), (F.name, e.images)
        assert tags == {"flip", "twist"}

    def test_sign_arity_checked(self):
        Q = simpson_delooping(3)
        with pytest.raises(ArityMismatch):
            sign_from_delooping(Q, identity(fin(2)))
        with pytest.raises(ArityMismatch):
            sign_from_delooping(Q, order_bijection(LabeledSet.of([4, 5, 6])))

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_sign_guard_compares_carriers_not_objects(self, name):
        # The guard takes fin(n) by identity first; an equal carrier that is
        # another object still passes, and a foreign carrier still fails.
        Q = CONSTRUCTIONS[name](4)
        foreign = LabeledSet((5, 6, 7, 8))
        for e in (
            Bijection(foreign, foreign, (6, 5, 7, 8)),
            Bijection(fin(4), foreign, (6, 5, 7, 8)),
            Bijection(foreign, fin(4), (1, 0, 2, 3)),
        ):
            with pytest.raises(ArityMismatch):
                sign_from_delooping(Q, e)
        fresh = LabeledSet((0, 1, 2, 3))
        assert fresh is not fin(4) and fresh == fin(4)
        assert sign_from_delooping(Q, Bijection(fresh, fresh, (1, 0, 2, 3))) is MINUS
        assert sign_from_delooping(Q, Bijection(fresh, fin(4), (1, 2, 0, 3))) is PLUS


class TestFiberMaps:
    """Every computed action is one of the two Signs, the maps of the fiber."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_every_action_returns_a_shared_map(self, name):
        rng = Random(5)
        for n in (2, 3, 4):
            Q = CONSTRUCTIONS[name](n)
            X, Y = random_labeled_set(rng, n), random_labeled_set(rng, n)
            others = [random_bijection(rng, A, B) for A, B in ((X, Y), (X, X), (fin(n), Y))]
            for e in (*perms_of(n), *others):
                acted = Q.action(e)
                assert acted is PLUS or acted is MINUS, (n, e)

    @pytest.mark.parametrize(
        "classify",
        [
            lambda x: 0,
            lambda x: 1,
            lambda x: chart_sign(x) is MINUS,
            lambda x: True,
            lambda x: None,
            lambda x: PLUS,
        ],
    )
    def test_other_class_images_reach_the_validating_constructor(self, classify):
        # Classes that are not Signs, or both representatives in one class.
        record = dataclasses.replace(simpson_delooping, classify=classify)
        for n in (2, 3):
            Q = record(n)
            for e in (identity(fin(n)), identity(LabeledSet.of(range(10, 10 + n)))):
                with pytest.raises(ContractError):
                    Q.action(e)

    def test_hand_built_constant_construction(self):
        constant = Construction(
            "constant",
            lambda X: [X],
            lambda X, c: X,
            lambda e, X: e.codomain,
            lambda X: PLUS,
        )
        with pytest.raises(ContractError):
            constant(3).action(transposition(3, 0, 1))


FIBER = fin(2)  # 0 names the PLUS class, 1 the MINUS class
SWAP = Bijection(FIBER, FIBER, (1, 0))


def three_step_mutant(Q, rng):
    """A drawn Mutation's action as twist(X)^-1, then core, then twist(Y), from
    the same draws, composed as bijections of a two-element fiber; returns
    the action and how it reached each result."""
    trivialize = rng.random() < 0.4
    salt = rng.randrange(1 << 30) if rng.random() < 0.7 else None
    rng.random()  # the chart flip
    ident = identity(FIBER)

    def twist(X):
        return SWAP if salt is not None and (hash((salt,) + X.elements) >> 3) & 1 else ident

    def action(e):
        core = ident if trivialize or Q.action(e) is PLUS else SWAP
        tx, ty = twist(e.domain), twist(e.codomain)
        return tx.inverse().then(core).then(ty), (tx == SWAP, ty == SWAP, core == SWAP)

    return action


class TestMutants:
    def test_shortcut_equals_the_three_step_composite(self):
        seen = set()
        carrier_rng = Random(1)
        carriers = [fin(3)] + [random_labeled_set(carrier_rng, 3) for _ in range(6)]
        for seed in range(30):
            Q = CONSTRUCTIONS[sorted(CONSTRUCTIONS)[seed % 4]](3)
            mutant = Mutation.draw(Random(seed)).apply(Q)
            reference = three_step_mutant(Q, Random(seed))
            for X, Y in itertools.product(carriers, repeat=2):
                e = random_bijection(Random(seed), X, Y)
                expected, combination = reference(e)
                assert (mutant.action(e) is MINUS) == (expected == SWAP), (seed, e)
                seen.add(combination)
        assert len(seen) == 8  # every (twist X, twist Y, core) of S_2^3


def trivial_family(n):
    """Every relabeling acts as the order-preserving fiber map."""

    def action(e):
        return PLUS

    return TwoElementFamily("trivial", n, action, base_point=PLUS)


def off_base_family(n):
    """Genuine over fin(n), but transport picks up a spurious fiber swap
    whenever the endpoints differ — breaking functoriality off the base."""
    Q = simpson_delooping(n)

    def action(e):
        core = Q.action(e)
        return -core if e.domain != e.codomain else core

    return TwoElementFamily("off-base", n, action, Q.base_point)


class TestRecognition:
    def test_all_constructions_recognized(self):
        for build in CONSTRUCTIONS.values():
            for n in (2, 3, 4):
                report = check_recognition(build(n), *listing(n))
                assert report.is_delooping
                assert report.consistent
                assert report.counterexample is None

    def test_trivial_family_fails_everything(self):
        report = check_recognition(trivial_family(3), *listing(3))
        assert report.booleans == (False, False, False)
        assert report.consistent and not report.is_delooping
        assert report.counterexample is not None
        assert check_recognition(trivial_family(3), *listing(3)).counterexample.domain == fin(3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_every_sign_table_on_a_small_listing(self, n):
        # All 2^n! hand-built tables over S_n (2, 4 and 64): from n = 2 the
        # inversion sign alone is a delooping, and a failing report's witness
        # is condition 4's witness, else condition 5's.  Only the trivial
        # table on S_1 fails with neither.
        perms = perms_of(n)
        inversion = tuple(sign_inversions(e) for e in perms)
        unwitnessed = []
        for signs in itertools.product((PLUS, MINUS), repeat=len(perms)):
            table = dict(zip((e.images for e in perms), signs))
            Q = TwoElementFamily("table", n, lambda e: table[e.images], PLUS)
            report = check_recognition(Q, perms, inversion)
            if n >= 2:
                assert report.is_delooping == (signs == inversion)
            if not report.is_delooping:
                witness = unswapped_transposition(Q) or sign_mismatch(Q, perms, inversion)
                assert report.counterexample == witness
                if witness is None:
                    unwitnessed.append(signs)
        assert unwitnessed == ([(PLUS,)] if n == 1 else [])

    @staticmethod
    def count_listings(monkeypatch):
        """The (A, B) of every listing symmetric_group makes: it looks
        enumerate_bijections up in finite at call time."""
        listed = []
        real = finite.enumerate_bijections
        monkeypatch.setattr(
            finite, "enumerate_bijections", lambda A, B: listed.append((A, B)) or real(A, B)
        )
        return listed

    @pytest.mark.parametrize("n", range(2, 10))
    def test_a_run_lists_s_n_once_and_uniqueness_once_per_family(self, monkeypatch, n):
        # The run's one listing serves every row; at n <= 5 uniqueness lists
        # once for each of the four families it recognizes.  Past
        # ENUMERATION_BOUND every row samples, and nothing is listed.
        listed = self.count_listings(monkeypatch)
        run_verification(n, "all", 101)
        count = 0 if n > finite.ENUMERATION_BOUND else 5 if n <= 5 else 1
        assert listed == [(fin(n), fin(n))] * count

    def test_a_second_run_lists_again(self, monkeypatch):
        # Nothing outlives a run: the next one at the same n makes its own.
        listed = self.count_listings(monkeypatch)
        for runs in (1, 2):
            run_verification(7, "all", 101)
            assert listed == [(fin(7), fin(7))] * runs

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("where", [0, -1])
    def test_one_wrong_odd_permutation_fails_condition_5(self, n, where):
        # The sign everywhere but at one odd permutation that is not a
        # transposition, the first or the last in the listing: condition 5
        # fails with that permutation as its witness.
        odd = [e for e in perms_of(n) if sign_inversions(e) is MINUS and len(e.moved()) > 2]
        wrong = odd[where]
        Q = TwoElementFamily(
            "one-wrong", n, lambda e: PLUS if e == wrong else sign_inversions(e), PLUS
        )
        report = check_recognition(Q, *listing(n))
        assert report.booleans == (True, True, False)
        assert report.counterexample == wrong

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_an_action_that_raises_still_raises(self, n):
        class Planted(Exception):
            pass

        last = perms_of(n)[-1]

        def action(e):
            if e == last:
                raise Planted(e.images)
            return sign_inversions(e)

        with pytest.raises(Planted):
            check_recognition(TwoElementFamily("raises", n, action, PLUS), *listing(n))

    @pytest.mark.parametrize("n", [4, 5])
    def test_mutants_match_an_independent_recomputation(self, n):
        # Each report recomputed from the listing, the pairs and the
        # inversion sign, with none of recognition's scans or caches.
        perms = perms_of(n)
        swaps = [transposition_of_pair(fin(n), pair) for pair in k_subsets(fin(n), 2)]
        for name, build in CONSTRUCTIONS.items():
            family, rng = build(n), Random(f"{name}/{n}")
            for _ in range(50):
                Q = Mutation.draw(rng).apply(family)
                cond3 = any(Q.action(e) is not PLUS for e in perms)
                bad_swap = next((t for t in swaps if Q.action(t) is not MINUS), None)
                bad_sign = next((e for e in perms if Q.action(e) is not sign_inversions(e)), None)
                booleans = (cond3, bad_swap is None, bad_sign is None)
                witness = None if all(booleans) else bad_swap or bad_sign
                report = check_recognition(Q, *listing(n))
                assert (report.booleans, report.counterexample) == (booleans, witness), Q.name

    @pytest.mark.parametrize("n", [3, 4])
    def test_a_twisted_mutant_acts_as_its_core_over_one_carrier(self, n):
        # Over fin(n) the twists at both ends are one twist, and cancel,
        # whichever way the salt twists fin(n).
        for build in CONSTRUCTIONS.values():
            Q = build(n)
            core = [Q.action(e) for e in perms_of(n)]
            for salt in range(20):
                twisted = Mutation(False, salt, False).apply(Q)
                assert [twisted.action(e) for e in perms_of(n)] == core

    def test_size_guard(self):
        # The caller lists S_n, and refuses an arity past the bound.
        assert check_recognition(cartier_delooping(7), *listing(7)).is_delooping
        with pytest.raises(SizeGuard):
            check_recognition(cartier_delooping(9), *listing(9))

    def test_mutants_stay_consistent(self):
        for seed in range(40):
            rng = Random(seed)
            family = CONSTRUCTIONS[rng.choice(sorted(CONSTRUCTIONS))](3)
            Q = Mutation.draw(rng).apply(family)
            report = check_recognition(Q, *listing(3))
            assert report.consistent
            assert report.is_delooping == ("trivial" not in Q.name)

    def test_off_base_family_passes_base_recognition(self):
        # recognition only exhausts permutations of the base carrier, so a
        # family broken elsewhere still passes; naturality probes catch it
        assert check_recognition(off_base_family(3), *listing(3)).is_delooping


class TestNaturalIsomorphism:
    def test_all_ordered_pairs(self):
        fams = {name: build(3) for name, build in CONSTRUCTIONS.items()}
        for Q in fams.values():
            for Qp in fams.values():
                phi = natural_isomorphism(Q, Qp, squares=34, seed=7)
                base_map = phi(fin(3))
                assert Q.base_point * base_map is Qp.base_point
                if Q is Qp:
                    assert base_map is PLUS

    def test_matches_canonical_representatives_everywhere(self):
        # every construction names the class of its canonical representative
        # PLUS, and order-preserving transport preserves canonicity, so the
        # fiber map over any carrier is PLUS, the identity
        Q, Qp = cartier_delooping(3), fixed_point_delooping(3)
        phi = natural_isomorphism(Q, Qp, squares=14, seed=1)
        assert phi(LabeledSet.of([10, 20, 30])) is PLUS

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_a_flipped_chart_is_the_swap_everywhere(self, n):
        rng = Random(n)
        carriers = [fin(n)] + [random_labeled_set(rng, n) for _ in range(5)]
        families = [build(n) for build in CONSTRUCTIONS.values()]
        for Q in families:
            flipped = dataclasses.replace(Q, base_point=-Q.base_point)
            phi = natural_isomorphism(Q, flipped, squares=14, seed=n)
            assert [phi(X) for X in carriers] == [MINUS] * len(carriers)
            for Qp in families:
                phi = natural_isomorphism(Q, Qp, squares=14, seed=n)
                assert [phi(X) for X in carriers] == [PLUS] * len(carriers)

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            natural_isomorphism(cartier_delooping(2), cartier_delooping(3))

    def test_rejects_non_delooping(self):
        with pytest.raises(NotADelooping):
            natural_isomorphism(trivial_family(3), cartier_delooping(3))
        with pytest.raises(NotADelooping):
            natural_isomorphism(cartier_delooping(3), trivial_family(3))

    def test_off_base_break_is_caught(self):
        with pytest.raises(NaturalityFailure) as info:
            natural_isomorphism(simpson_delooping(3), off_base_family(3))
        X, Y, e = info.value.square
        assert e.domain == X and e.codomain == Y

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("seed", [0, 5, 2027, 1 << 70])
    def test_every_pair_verdict_matches_a_square_by_square_oracle(self, n, seed):
        # Every ordered pair of the constructions, a family broken off
        # fin(n), a twisted mutant and a non-delooping, against naturality
        # decided square by square in Random(seed) draw order.
        families = [build(n) for build in CONSTRUCTIONS.values()] + [
            off_base_family(n),
            Mutation(False, 12345, False).apply(orbit_delooping(n)),
            trivial_family(n),
        ]
        rng = Random(seed)
        drawn = []
        for _ in range(24):
            X, Y = (fin(n) if rng.random() < 0.25 else random_labeled_set(rng, n) for _ in "XY")
            drawn.append((X, Y, random_bijection(rng, X, Y)))
        signed = listing(n)
        verdicts = set()
        for Q, Qp in itertools.product(families, repeat=2):
            bad = next((F for F in (Q, Qp) if not check_recognition(F, *signed).is_delooping), None)
            phi0 = Q.base_point * Qp.base_point

            def at(Z):
                h = order_bijection(Z)
                return Q.action(h) * phi0 * Qp.action(h)

            def commutes(X, Y, e):
                return Q.action(e) * at(Y) is at(X) * Qp.action(e)

            failing = next((square for square in drawn if not commutes(*square)), None)
            try:
                phi = natural_isomorphism(Q, Qp, squares=24, seed=seed)
            except NotADelooping as exc:
                assert bad is not None and str(exc) == f"{bad.name} fails recognition"
                verdicts.add("not a delooping")
            except NaturalityFailure as exc:
                assert bad is None and exc.square == failing, (Q.name, Qp.name)
                verdicts.add("not natural")
            else:
                assert bad is None and failing is None, (Q.name, Qp.name)
                assert [phi(X) for X, _, _ in drawn] == [at(X) for X, _, _ in drawn]
                verdicts.add("natural")
        assert verdicts == {"not a delooping", "not natural", "natural"}

    def test_families_of_one_construction_get_their_own_verdicts(self):
        # Two families of the simpson record, one with a fault planted off
        # fin(3): their results are kept apart, however often and in
        # whichever order they are asked for.
        good = simpson_delooping(3)
        faulty = dataclasses.replace(
            simpson_delooping(3),
            action=lambda e, Q=simpson_delooping(3): (
                -Q.action(e) if e.codomain != fin(3) and e.domain != fin(3) else Q.action(e)
            ),
        )
        assert good.construction is faulty.construction is simpson_delooping
        assert faulty.name == good.name
        cartier = cartier_delooping(3)
        for _ in range(2):
            for Qp in (good, faulty, good):
                if Qp is good:
                    assert natural_isomorphism(cartier, Qp, squares=24)(fin(3)) is PLUS
                else:
                    with pytest.raises(NaturalityFailure):
                        natural_isomorphism(cartier, Qp, squares=24)
                    with pytest.raises(NaturalityFailure):
                        natural_isomorphism(Qp, good, squares=24)

    @pytest.mark.parametrize("seed", [None, bytearray(b"seed"), b"seed", "seed", 2.5, -3])
    def test_takes_every_seed_random_takes(self, seed):
        # Only an int seed is taken, so the square a NaturalityFailure names
        # replays from its seed; any other seed Random takes is refused.
        Q, Qp = cartier_delooping(3), fixed_point_delooping(3)
        if seed != -3:
            with pytest.raises(ContractError, match="seed must be an integer"):
                natural_isomorphism(Q, Qp, squares=14, seed=seed)
            return
        assert natural_isomorphism(Q, Qp, squares=14, seed=seed)(fin(3)) is PLUS
        with pytest.raises(NaturalityFailure):
            natural_isomorphism(Q, off_base_family(3), squares=24, seed=seed)


class TestActionTable:
    """A family's action is its record's transport and classification,
    computed afresh on every call: no action is kept."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_repeated_actions_match_a_fresh_family(self, name):
        build = CONSTRUCTIONS[name]
        for n in range(2, 6):
            Q = build(n)
            for _ in range(2):
                for e in perms_of(n):
                    assert Q.action(e) is build(n).action(e), (n, e.images)

    def test_a_family_built_before_rebinding_uses_the_rebound_transport(self, monkeypatch):
        # The family acts on every permutation of fin(3) first, so a hidden
        # cache of actions would answer from it instead of calling the stub.
        Q = cartier_delooping(3)
        for e in perms_of(3):
            Q.action(e)

        def stub(e, u):
            raise RuntimeError("orientation_action called")

        monkeypatch.setattr(deloopings, "orientation_action", stub)
        for e in perms_of(3):
            with pytest.raises(RuntimeError, match="orientation_action called"):
                Q.action(e)

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_representatives_are_rebuilt_for_each_new_domain(self, name):
        # Carriers X, X, Y, X, then X' equal to X but another object: the
        # representatives are built again exactly when the domain changes.
        C = CONSTRUCTIONS[name](4).construction
        built = []
        counting = dataclasses.replace(
            C, representative=lambda X, s: built.append(X) or C.representative(X, s)
        )
        Q, rng = counting(4), Random(name)
        X, Y, Z = (random_labeled_set(rng, 4) for _ in range(3))
        Xp = LabeledSet(X.elements)
        assert Xp == X and Xp is not X
        domains = (X, X, Y, X, Xp)
        for A in domains:
            for _ in range(3):
                e = random_bijection(rng, A, Z)
                assert Q.action(e) is C(4).action(e), (A.elements, e.images)
        rebuilt = [X, X, Y, Y, X, X, Xp, Xp]
        assert len(built) == len(rebuilt)
        assert all(got is want for got, want in zip(built, rebuilt))

    @pytest.mark.parametrize("n", [4, 5, 7])
    def test_a_rebound_transport_fails_cartier_through_warm_caches(self, monkeypatch, n):
        # Warm the transport cache, then flip bit 0 of every transport with
        # an end other than fin(n): cartier's functor laws must fail.
        assert all(r.passed for r in run_verification(n, "cartier", 0))
        real = deloopings.orientation_action

        def faulty(e, u):
            moved = real(e, u)
            return moved if e.domain == e.codomain == fin(n) else moved.flip(0)

        monkeypatch.setattr(deloopings, "orientation_action", faulty)
        (_, cartier) = run_verification(n, "cartier", 0)
        (laws,) = [c for c in cartier.checks if c.name == "functor-laws"]
        assert not laws.passed

    @staticmethod
    def stub_out_the_sign(monkeypatch):
        """Make every definition in PARITY_DEFINITIONS raise, under every
        name a package module binds it to, cache or no cache."""

        def stub(*args):
            raise RuntimeError("sign consulted")

        stubbed = set()
        for qualified in PARITY_DEFINITIONS:
            module, *owners, name = qualified.split(".")
            owner = getattr(signdeloop, module)
            for attr in owners:
                owner = getattr(owner, attr)
            definition = getattr(owner, name)
            stubbed.add(f"{definition.__module__}.{definition.__qualname__}")
            if owners:  # a method: one binding, on its class
                monkeypatch.setattr(owner, name, stub)
                continue
            for bound in PACKAGE_MODULES:
                if getattr(bound, name, None) is definition:
                    monkeypatch.setattr(bound, name, stub)
        assert stubbed == {f"signdeloop.{qualified}" for qualified in PARITY_DEFINITIONS}

    def test_cartier_never_consults_the_sign(self, monkeypatch):
        self.stub_out_the_sign(monkeypatch)
        for n in range(2, 7):
            Q = cartier_delooping(n)
            signs = [sign_from_delooping(Q, e) for e in perms_of(n)]
            assert signs.count(PLUS) == signs.count(MINUS) == math.factorial(n) // 2
            assert Q.construction.census(fin(n)) == [1 << (math.comb(n, 2) - 1)] * 2

    @pytest.mark.parametrize("name", ["simpson", "orbit", "fixed"])
    def test_the_other_constructions_consult_the_stubbed_sign(self, monkeypatch, name):
        # The stubs are live: each other construction classifies through
        # chart_sign, so its first action raises.
        self.stub_out_the_sign(monkeypatch)
        with pytest.raises(RuntimeError, match="sign consulted"):
            CONSTRUCTIONS[name](3).action(perms_of(3)[0])


class TestAlternatingKernel:
    def test_frozen_small_case(self):
        assert {e.images for e in alternating_kernel(*listing(3))} == {
            (0, 1, 2),
            (1, 2, 0),
            (2, 0, 1),
        }
        assert [e.images for e in alternating_kernel(*listing(2))] == [(0, 1)]

    def test_sizes(self):
        for n in range(2, 6):
            assert len(alternating_kernel(*listing(n))) == math.factorial(n) // 2

    def test_closed_under_composition_and_inverse(self):
        for n in range(2, 5):
            kernel = set(alternating_kernel(*listing(n)))
            for e in kernel:
                assert e.inverse() in kernel
                for f in kernel:
                    assert e.then(f) in kernel

    def test_no_odd_members(self):
        for n in range(2, 6):
            assert all(sign_inversions(e) == PLUS for e in alternating_kernel(*listing(n)))

    def test_guards(self):
        # Fewer than two permutations: S_0 and S_1 have no kernel to list.
        for n in (0, 1):
            with pytest.raises(ArityTooSmall):
                alternating_kernel(*listing(n))
