import itertools
import math
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    swap_two,
    transposition_of_pair,
)
from signdeloop.perms import MINUS, PLUS, sign_inversions, transposition
from signdeloop.deloopings import (
    CLASS_LABELS,
    CONSTRUCTIONS,
    FixedPointElement,
    Orientation,
    TwoElementFamily,
    all_orientations,
    alternating_kernel,
    canonical_orientation,
    cartier_delooping,
    check_recognition,
    exhaustive_fixed_points,
    fixed_point_class,
    fixed_point_delooping,
    fixed_point_elements,
    mutate_family,
    natural_isomorphism,
    orbit_class,
    orbit_representative,
    orientation_action,
    orientation_class,
    orientation_representative,
    relative_inversions,
    sign_from_delooping,
    simpson_class,
    simpson_delooping,
    simpson_representative,
)

from strategies import bijection_chains


def perms_of(n):
    return enumerate_bijections(fin(n), fin(n))


class TestOrientation:
    def test_canonical_chooses_larger(self):
        X = LabeledSet.of([5, 9, 12])
        d = canonical_orientation(X)
        assert d.choose(5, 9) == 9
        assert d.choose(12, 5) == 12
        assert d.choose(9, 12) == 12
        assert d.choices() == ((5, 9), (5, 12), (9, 12))

    def test_flip(self):
        X = LabeledSet.of([5, 9, 12])
        u = canonical_orientation(X).flip(0)
        assert u.choose(5, 9) == 5
        assert u.choose(5, 12) == 12
        assert u.choices()[0] == (9, 5)

    def test_bits_validation(self):
        with pytest.raises(ContractError):
            Orientation(fin(3), 8)
        with pytest.raises(ContractError):
            Orientation(fin(3), -1)
        with pytest.raises(ContractError):
            canonical_orientation(fin(3)).flip(3)

    def test_choose_rejects_non_pairs(self):
        d = canonical_orientation(fin(3))
        with pytest.raises(CarrierMismatch):
            d.choose(0, 7)
        with pytest.raises(CarrierMismatch):
            d.choose(1, 1)

    def test_too_small(self):
        with pytest.raises(TooSmall):
            canonical_orientation(fin(1))

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

    def test_action_identity(self):
        for u in all_orientations(fin(3)):
            assert orientation_action(identity(fin(3)), u) == u

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
                per_class[orientation_class(u)] += 1
            half = 1 << (math.comb(n, 2) - 1)
            assert per_class == [half, half]

    def test_representatives(self):
        X = LabeledSet.of([3, 8, 11])
        assert orientation_class(orientation_representative(X, 0)) == 0
        assert orientation_class(orientation_representative(X, 1)) == 1
        with pytest.raises(ContractError):
            orientation_representative(X, 7)

    def test_transported_canonical_tracks_sign(self):
        for n in range(2, 5):
            d = canonical_orientation(fin(n))
            for e in perms_of(n):
                moved = orientation_action(e, d)
                assert orientation_class(moved) == sign_inversions(e).fin2


class TestSimpson:
    def test_order_chart_is_class_zero(self):
        X = LabeledSet.of([4, 6, 9])
        assert simpson_class(order_bijection(X)) == 0

    def test_odd_precomposition_flips(self):
        X = LabeledSet.of([4, 6, 9])
        h = transposition(3, 0, 1).then(order_bijection(X))
        assert simpson_class(h) == 1

    def test_representatives(self):
        X = LabeledSet.of([4, 6, 9])
        for label in (0, 1):
            assert simpson_class(simpson_representative(X, label)) == label
        with pytest.raises(ContractError):
            simpson_representative(X, 2)

    def test_class_census(self):
        for n in range(2, 5):
            X = LabeledSet.of(range(50, 50 + n))
            counts = [0, 0]
            for h in enumerate_bijections(fin(n), X):
                counts[simpson_class(h)] += 1
            assert counts == [math.factorial(n) // 2] * 2


class TestOrbit:
    def test_representatives(self):
        X = LabeledSet.of([4, 6, 9])
        for label in (0, 1):
            h, s = orbit_representative(X, label)
            assert orbit_class(h, s) == label
        with pytest.raises(ContractError):
            orbit_representative(X, -3)

    def test_twisted_move_invariance(self):
        # precomposing the chart with p while multiplying the sign by
        # sign(p) stays in the same orbit
        X = LabeledSet.of([4, 6, 9])
        for h in enumerate_bijections(fin(3), X):
            for s in (PLUS, MINUS):
                for p in perms_of(3):
                    assert orbit_class(p.then(h), sign_inversions(p) * s) == orbit_class(h, s)

    def test_class_census(self):
        X = LabeledSet.of([4, 6, 9])
        counts = [0, 0]
        for h in enumerate_bijections(fin(3), X):
            for s in (PLUS, MINUS):
                counts[orbit_class(h, s)] += 1
        assert counts == [6, 6]


class TestFixedPointElements:
    def test_value_at_reference(self):
        X = LabeledSet.of([2, 7, 8])
        plus, minus = fixed_point_elements(X)
        h0 = order_bijection(X)
        assert plus.value_at(h0) == PLUS and minus.value_at(h0) == MINUS
        assert fixed_point_class(plus) == 0 and fixed_point_class(minus) == 1

    def test_equivariance(self):
        X = LabeledSet.of([2, 7, 8])
        plus, _ = fixed_point_elements(X)
        for h in enumerate_bijections(fin(3), X):
            for p in perms_of(3):
                assert plus.value_at(p.then(h)) == sign_inversions(p) * plus.value_at(h)

    def test_reparameterization_same_function(self):
        X = LabeledSet.of([2, 7, 8])
        plus, minus = fixed_point_elements(X)
        for h in enumerate_bijections(fin(3), X):
            again = FixedPointElement(h, plus.value_at(h))
            assert again.value_at(h) != minus.value_at(h)
            for g in enumerate_bijections(fin(3), X):
                assert again.value_at(g) == plus.value_at(g)

    def test_transport(self):
        X, Y = LabeledSet.of([2, 7, 8]), LabeledSet.of([1, 3, 5])
        plus, _ = fixed_point_elements(X)
        e = Bijection(X, Y, (3, 1, 5))
        moved = plus.transport(e)
        for h in enumerate_bijections(fin(3), X):
            assert moved.value_at(h.then(e)) == plus.value_at(h)

    def test_transport_carrier_checked(self):
        plus, _ = fixed_point_elements(fin(3))
        with pytest.raises(CarrierMismatch):
            plus.transport(identity(fin(4)))


class TestExhaustiveCensus:
    def test_exactly_two_tables(self):
        for n in range(2, 4):
            tables = exhaustive_fixed_points(n)
            assert len(tables) == 2

    def test_tables_are_sign_and_its_negation(self):
        tables = exhaustive_fixed_points(3)
        expected = {p: sign_inversions(p) for p in perms_of(3)}
        negated = {p: -s for p, s in expected.items()}
        assert {frozenset(t.items()) for t in tables} == {
            frozenset(expected.items()),
            frozenset(negated.items()),
        }

    def test_size_guard(self):
        with pytest.raises(SizeGuard):
            exhaustive_fixed_points(5)

    def test_stdlib_only_at_n4(self, monkeypatch):
        # A None entry makes any `import numpy` raise ImportError.
        monkeypatch.setitem(sys.modules, "numpy", None)
        tables = exhaustive_fixed_points(4)
        expected = {p: sign_inversions(p) for p in perms_of(4)}
        assert tables == [expected, {p: -s for p, s in expected.items()}]


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

    @pytest.mark.parametrize("label", [-1, 2, True, 1.0, "0"])
    def test_representative_rejects_non_class_labels(self, label):
        # Every record checks its class label through Sign.from_fin2.
        X = LabeledSet.of([5, 7, 9])
        for build in CONSTRUCTIONS.values():
            C = build(3).construction
            assert [C.classify(C.representative(X, c)) for c in (0, 1)] == [0, 1]
            with pytest.raises(ContractError):
                C.representative(X, label)

    def test_chart(self):
        Q = cartier_delooping(3)
        assert Q.chart(0) == PLUS and Q.chart(1) == MINUS
        assert Q.chart_inverse(PLUS) == 0 and Q.chart_inverse(MINUS) == 1
        with pytest.raises(ContractError):
            Q.chart(5)

    def test_action_identity_law(self):
        for build in CONSTRUCTIONS.values():
            Q = build(3)
            X = LabeledSet.of([5, 7, 9])
            assert Q.action(identity(X)) == identity(CLASS_LABELS)

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
            assert Q.action(e.then(f)) == Q.action(e).then(Q.action(f))

    def test_transpositions_act_as_swap(self):
        swap = swap_two(CLASS_LABELS)
        for build in CONSTRUCTIONS.values():
            for n in (2, 3, 4):
                Q = build(n)
                X = LabeledSet.of(range(30, 30 + n))
                for P in k_subsets(X, 2):
                    assert Q.action(transposition_of_pair(X, P)) == swap

    def test_sign_agreement(self):
        for build in CONSTRUCTIONS.values():
            for n in (2, 3, 4):
                Q = build(n)
                for e in perms_of(n):
                    assert sign_from_delooping(Q, e) == sign_inversions(e)

    def test_sign_arity_checked(self):
        Q = simpson_delooping(3)
        with pytest.raises(ArityMismatch):
            sign_from_delooping(Q, identity(fin(2)))
        with pytest.raises(ArityMismatch):
            sign_from_delooping(Q, order_bijection(LabeledSet.of([4, 5, 6])))


def trivial_family(n):
    """Every relabeling acts as the order-preserving fiber map."""

    def action(e):
        return identity(CLASS_LABELS)

    return TwoElementFamily("trivial", n, action, base_point=0)


def off_base_family(n):
    """Genuine over fin(n), but transport picks up a spurious fiber swap
    whenever the endpoints differ — breaking functoriality off the base."""
    Q = simpson_delooping(n)

    def action(e):
        core = Q.action(e)
        if e.domain != e.codomain:
            core = core.then(swap_two(CLASS_LABELS))
        return core

    return TwoElementFamily("off-base", n, action, Q.base_point)


class TestRecognition:
    def test_all_constructions_recognized(self):
        for build in CONSTRUCTIONS.values():
            for n in (2, 3, 4):
                report = check_recognition(build(n))
                assert report.is_delooping
                assert report.consistent
                assert report.counterexample is None

    def test_trivial_family_fails_everything(self):
        report = check_recognition(trivial_family(3))
        assert report.booleans == (False, False, False)
        assert report.consistent and not report.is_delooping
        assert report.counterexample is not None
        assert check_recognition(trivial_family(3)).counterexample.domain == fin(3)

    def test_size_guard(self):
        assert check_recognition(cartier_delooping(7)).is_delooping
        with pytest.raises(SizeGuard):
            check_recognition(cartier_delooping(9))

    def test_mutants_stay_consistent(self):
        for seed in range(40):
            rng = Random(seed)
            Q = mutate_family(CONSTRUCTIONS[rng.choice(sorted(CONSTRUCTIONS))](3), rng)
            report = check_recognition(Q)
            assert report.consistent
            assert report.is_delooping == ("trivial" not in Q.name)

    def test_off_base_family_passes_base_recognition(self):
        # recognition only exhausts permutations of the base carrier, so a
        # family broken elsewhere still passes; naturality probes catch it
        assert check_recognition(off_base_family(3)).is_delooping


class TestNaturalIsomorphism:
    def test_all_ordered_pairs(self):
        fams = {name: build(3) for name, build in CONSTRUCTIONS.items()}
        for Q in fams.values():
            for Qp in fams.values():
                phi = natural_isomorphism(Q, Qp, squares=30, seed=7)
                base_map = phi(fin(3))
                assert base_map(Q.base_point) == Qp.base_point
                if Q is Qp:
                    assert base_map == identity(CLASS_LABELS)

    def test_matches_canonical_representatives_everywhere(self):
        # every construction labels the class of its canonical representative
        # 0, and order-preserving transport preserves canonicity, so the
        # fiber map over any carrier is the identity relabeling
        Q, Qp = cartier_delooping(3), fixed_point_delooping(3)
        phi = natural_isomorphism(Q, Qp, squares=10, seed=1)
        assert phi(LabeledSet.of([10, 20, 30])) == identity(CLASS_LABELS)

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


class TestAlternatingKernel:
    def test_frozen_small_case(self):
        assert {e.images for e in alternating_kernel(3)} == {
            (0, 1, 2),
            (1, 2, 0),
            (2, 0, 1),
        }
        assert [e.images for e in alternating_kernel(2)] == [(0, 1)]

    def test_sizes(self):
        for n in range(2, 6):
            assert len(alternating_kernel(n)) == math.factorial(n) // 2

    def test_closed_under_composition_and_inverse(self):
        for n in range(2, 5):
            kernel = set(alternating_kernel(n))
            for e in kernel:
                assert e.inverse() in kernel
                for f in kernel:
                    assert e.then(f) in kernel

    def test_no_odd_members(self):
        for n in range(2, 6):
            assert all(sign_inversions(e) == PLUS for e in alternating_kernel(n))

    def test_guards(self):
        with pytest.raises(ArityTooSmall):
            alternating_kernel(1)
        with pytest.raises(SizeGuard):
            alternating_kernel(9)
