import dataclasses
import itertools
import math
import sys
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from signdeloop import deloopings, perms
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
    swap_two,
    transposition_of_pair,
)
from signdeloop.perms import MINUS, PLUS, Sign, sign_inversions, transposition
from signdeloop.deloopings import (
    CLASS_LABELS,
    CONSTRUCTIONS,
    FIBER_IDENTITY,
    FIBER_MAPS,
    FIBER_SWAP,
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

    def test_bits_validation(self):
        with pytest.raises(ContractError):
            Orientation(fin(3), 8)
        with pytest.raises(ContractError):
            Orientation(fin(3), -1)
        with pytest.raises(ContractError):
            canonical_orientation(fin(3)).flip(3)

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


class TestFiberMaps:
    """Every computed action is one of the two shared maps of CLASS_LABELS."""

    def test_shared_maps_are_the_two_bijections_of_the_fiber(self):
        assert FIBER_MAPS == {(0, 1): FIBER_IDENTITY, (1, 0): FIBER_SWAP}
        assert set(FIBER_MAPS.values()) == set(enumerate_bijections(CLASS_LABELS, CLASS_LABELS))

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_every_action_returns_a_shared_map(self, name):
        rng = Random(5)
        for n in (2, 3, 4):
            Q = CONSTRUCTIONS[name](n)
            X, Y = random_labeled_set(rng, n), random_labeled_set(rng, n)
            others = [random_bijection(rng, A, B) for A, B in ((X, Y), (X, X), (fin(n), Y))]
            for e in (*perms_of(n), *others):
                acted = Q.action(e)
                assert acted is FIBER_IDENTITY or acted is FIBER_SWAP, (n, e)

    @pytest.mark.parametrize(
        "classify", [lambda x: 0, lambda x: 1, lambda x: bool(simpson_class(x))]
    )
    def test_other_class_images_reach_the_validating_constructor(self, classify):
        # Both classes on one label, or bool labels that hash like 0 and 1.
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
            lambda X: 0,
        )
        with pytest.raises(ContractError):
            constant(3).action(transposition(3, 0, 1))


def three_step_mutant(Q, rng):
    """mutate_family's action as twist(X)^-1, then core, then twist(Y), from
    the same draws; returns the action and how it reached each result."""
    trivialize = rng.random() < 0.4
    salt = rng.randrange(1 << 30) if rng.random() < 0.7 else None
    rng.random()  # the chart flip
    ident, swap = identity(CLASS_LABELS), swap_two(CLASS_LABELS)

    def twist(X):
        return swap if salt is not None and (hash((salt,) + X.elements) >> 3) & 1 else ident

    def action(e):
        core = ident if trivialize else Q.action(e)
        tx, ty = twist(e.domain), twist(e.codomain)
        return tx.inverse().then(core).then(ty), (tx == swap, ty == swap, core == swap)

    return action


class TestMutants:
    def test_shortcut_equals_the_three_step_composite(self):
        seen = set()
        carrier_rng = Random(1)
        carriers = [fin(3)] + [random_labeled_set(carrier_rng, 3) for _ in range(6)]
        for seed in range(30):
            Q = CONSTRUCTIONS[sorted(CONSTRUCTIONS)[seed % 4]](3)
            mutant = mutate_family(Q, Random(seed))
            reference = three_step_mutant(Q, Random(seed))
            for X, Y in itertools.product(carriers, repeat=2):
                e = random_bijection(Random(seed), X, Y)
                expected, combination = reference(e)
                assert mutant.action(e) == expected, (seed, e)
                seen.add(combination)
        assert len(seen) == 8  # every (twist X, twist Y, core) of S_2^3


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


class TestActionTable:
    """Each family memoizes its action over fin(n), and nowhere else."""

    @pytest.mark.parametrize("name", sorted(CONSTRUCTIONS))
    def test_memoized_action_matches_a_fresh_family(self, name):
        build = CONSTRUCTIONS[name]
        for n in range(2, 6):
            Q = build(n)
            for _ in range(2):
                for e in perms_of(n):
                    assert Q.action(e) == build(n).action(e), (n, e.images)

    def test_table_is_read_only_over_fin_n(self):
        transported = []

        def transport(e, f):
            transported.append(e)
            return f.then(e)

        n = 4
        Q = dataclasses.replace(simpson_delooping, transport=transport)(n)
        for p in perms_of(n):
            Q.action(p)
        assert len(transported) == 2 * math.factorial(n)
        for p in perms_of(n):
            assert Q.action(p) == simpson_delooping(n).action(p)
        assert len(transported) == 2 * math.factorial(n)  # all from the table
        X = random_labeled_set(Random(n), n)
        for p in perms_of(n):
            twins = (
                Bijection(X, X, tuple(X.elements[i] for i in p.images)),
                Bijection(X, fin(n), p.images),
                Bijection(fin(n), X, tuple(X.elements[i] for i in p.images)),
            )
            for e in twins:
                before = len(transported)
                assert Q.action(e) == simpson_delooping(n).action(e), e
                assert len(transported) == before + 2

    def test_family_built_after_rebinding_starts_empty(self, monkeypatch):
        warm = cartier_delooping(3)
        expected = [warm.action(e) for e in perms_of(3)]

        def stub(e, u):
            raise RuntimeError("orientation_action called")

        monkeypatch.setattr(deloopings, "orientation_action", stub)
        with pytest.raises(RuntimeError):
            cartier_delooping(3).action(perms_of(3)[0])
        assert [warm.action(e) for e in perms_of(3)] == expected

    @staticmethod
    def stub_out_the_sign(monkeypatch):
        """Make sign_inversions, inversions and Sign.of_parity raise."""

        def stub(*args):
            raise RuntimeError("sign consulted")

        for module in (perms, deloopings):
            monkeypatch.setattr(module, "sign_inversions", stub)
        monkeypatch.setattr(perms, "inversions", stub)
        monkeypatch.setattr(Sign, "of_parity", stub)

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
        # sign_inversions, so its first action raises.
        self.stub_out_the_sign(monkeypatch)
        with pytest.raises(RuntimeError, match="sign consulted"):
            CONSTRUCTIONS[name](3).action(perms_of(3)[0])


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
