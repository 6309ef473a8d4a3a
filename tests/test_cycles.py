import itertools
import math
from random import Random

import pytest
from hypothesis import given

from signdeloop.errors import (
    ContractError,
    DomainMismatch,
    MalformedDecomposition,
    NotMember,
)
from signdeloop.finite import (
    Bijection,
    LabeledSet,
    enumerate_bijections,
    fin,
    random_bijection,
    random_labeled_set,
)
from signdeloop.perms import permutation
from signdeloop.cycles import (
    CycleDecomposition,
    EndoDecomposition,
    RootedTree,
    cycle_decompose,
    decompose_endofunction,
    recompose,
    recompose_endofunction,
)

from strategies import endo_bijections
from test_quotients import all_partitions


def all_endofunctions(n):
    """Every self-map of fin(n), as an image table."""
    X = fin(n)
    for images in itertools.product(X.elements, repeat=n):
        yield X, dict(zip(X.elements, images))


def reaches_everything(n, e):
    """Independent oracle: from every start, iteration visits every label."""
    X = fin(n)
    if n == 0:
        return False
    for x in X:
        seen = {x}
        y = x
        for _ in range(n):
            y = e(y)
            seen.add(y)
        if seen != set(X.elements):
            return False
    return True


def is_single_orbit(e):
    return len(cycle_decompose(e).cycles) == 1


def endo_with_trivial_trees(cycles):
    return EndoDecomposition(cycles, tuple(tuple(map(RootedTree, c)) for c in cycles))


def assert_both_constructors_reject(cycles, error=MalformedDecomposition):
    for build in (CycleDecomposition, endo_with_trivial_trees):
        with pytest.raises(error):
            build(cycles)


class TestDecompositionContracts:
    """Both constructors take exactly disjoint orbits listed from their minimum."""

    def test_orbit_listed_from_min(self):
        dec = CycleDecomposition(([5], (2, 9, 3)))  # 2 -> 9 -> 3 -> 2
        assert dec.cycles == ((5,), (2, 9, 3))
        assert dec.carrier == LabeledSet.of([2, 3, 5, 9])
        assert recompose(dec) == Bijection(dec.carrier, dec.carrier, (9, 2, 5, 3))
        assert endo_with_trivial_trees(dec.cycles).cycles == dec.cycles
        assert CycleDecomposition(()).carrier == fin(0)

    def test_rejects_empty(self):
        assert_both_constructors_reject(((0, 1), ()))

    def test_rejects_orbit_not_listed_from_min(self):
        assert_both_constructors_reject(((1, 0),))
        assert_both_constructors_reject(((5,), (9, 3, 2)))

    def test_rejects_repeated_label(self):
        assert_both_constructors_reject(((0, 1, 0),))
        assert_both_constructors_reject(((0, 0),))

    def test_rejects_overlapping_orbits(self):
        assert_both_constructors_reject(((0, 1), (1, 2)))
        assert_both_constructors_reject(((0,), (0,)))

    @pytest.mark.parametrize("label", [True, 1.0, "1", None])
    def test_rejects_a_non_int_label(self, label):
        assert_both_constructors_reject(((0, label),), ContractError)


def own_carrier_cases():
    X = random_labeled_set(Random(6), 6)
    return [permutation((1, 0, 2, 4, 5, 3)), random_bijection(Random(7), X, X)]


class TestOwnCarrier:
    """cycle_decompose builds over the very carrier it decomposes, through
    the private CycleDecomposition._over, which checks the cycles as the
    public constructor does and then that they list the carrier once each."""

    @pytest.mark.parametrize("e", own_carrier_cases(), ids=["fin6", "random6"])
    def test_decompose_and_recompose_keep_the_carrier_object(self, e):
        dec = cycle_decompose(e)
        assert dec.carrier is e.domain
        back = recompose(dec)
        assert back.domain is e.domain and back.codomain is e.domain
        assert back == e
        public = CycleDecomposition(dec.cycles)
        assert dec == public and hash(dec) == hash(public) and repr(dec) == repr(public)
        assert public.carrier == e.domain and public.carrier is not e.domain

    @pytest.mark.parametrize(
        "cycles, carrier",
        [
            (((0, 1),), fin(3)),  # misses 2
            (((0, 1, 2),), fin(2)),  # 2 lies outside
            (((0, 1), (3,)), fin(3)),  # 3 instead of 2
            (((0,), (0,), (1,)), fin(2)),  # a repeated orbit
            (((0, 1, 0),), fin(2)),  # a repeat inside an orbit
            (((1, 0),), fin(2)),  # not listed from its minimum
            (((0, 1), ()), fin(2)),  # an empty orbit
            ((), fin(1)),  # no cycles over a point
        ],
        ids=[
            "miss", "outside", "other-label", "repeated-orbit", "repeat-in-orbit",
            "not-from-min", "empty-orbit", "no-cycles",
        ],
    )
    def test_private_builder_rejects_a_carrier_not_covered_exactly(self, cycles, carrier):
        with pytest.raises(MalformedDecomposition):
            CycleDecomposition._over(cycles, carrier)

    @pytest.mark.parametrize("label", [True, 1.0, "1", None])
    def test_private_builder_rejects_a_non_int_label(self, label):
        with pytest.raises(ContractError):
            CycleDecomposition._over(((0, label),), fin(2))

    def test_private_builder_accepts_an_exact_cover(self):
        X = LabeledSet.of([2, 3, 5, 9])
        dec = CycleDecomposition._over(((5,), (2, 9, 3)), X)
        assert dec.carrier is X
        assert dec == CycleDecomposition(([5], (2, 9, 3)))


class TestIsCyclic:
    """Single-orbit recognition: a decomposition with exactly one cycle."""

    def test_matches_reachability_oracle_exhaustively(self):
        for n in range(6):
            for e in enumerate_bijections(fin(n), fin(n)):
                assert is_single_orbit(e) == reaches_everything(n, e)

    def test_cycle_counts(self):
        # exactly (n-1)! of the n! self-bijections are single cycles
        for n in range(6):
            perms = enumerate_bijections(fin(n), fin(n))
            hits = sum(map(is_single_orbit, perms))
            assert hits == (math.factorial(n - 1) if n else 0)


class TestCycleDecompose:
    def test_frozen_example(self):
        dec = cycle_decompose(permutation((1, 0, 2, 4, 5, 3)))
        assert dec.cycles == ((0, 1), (2,), (3, 4, 5))
        assert dec.carrier == fin(6)
        # 1 -> 3 -> 2 -> 1: listed from the minimum, in step order
        assert cycle_decompose(permutation((0, 3, 1, 2))).cycles == ((0,), (1, 3, 2))

    def test_requires_endo(self):
        with pytest.raises(DomainMismatch):
            cycle_decompose(Bijection(fin(2), LabeledSet.of([7, 8]), (7, 8)))

    def test_hand_built_recomposes(self):
        # labels {3, 4, 5}: the swap of 3 and 4, and 5 fixed
        swap, rest = (3, 4), (5,)
        dec = CycleDecomposition((rest, swap))
        X = LabeledSet.of([3, 4, 5])
        assert dec.carrier == X
        assert recompose(dec) == Bijection(X, X, (4, 3, 5))
        assert cycle_decompose(recompose(dec)) == CycleDecomposition((swap, rest))

    def test_overlapping_cycles_rejected(self):
        with pytest.raises(MalformedDecomposition, match="duplicate labels"):
            CycleDecomposition(((0,), (0,)))

    def test_roundtrip_exhaustive(self):
        for n in range(6):
            for e in enumerate_bijections(fin(n), fin(n)):
                assert recompose(cycle_decompose(e)) == e

    def test_canonical_forms_distinct(self):
        for n in range(6):
            forms = {
                cycle_decompose(e)
                for e in enumerate_bijections(fin(n), fin(n))
            }
            assert len(forms) == math.factorial(n)

    @given(endo_bijections(max_size=7))
    def test_roundtrip_random_labels(self, e):
        dec = cycle_decompose(e)
        assert recompose(dec) == e
        assert cycle_decompose(recompose(dec)) == dec

    def test_partition_times_steps_covers_group(self):
        # every (orbit partition, cyclic order per block) pair arises from
        # exactly one self-bijection: block B has (|B| - 1)! orbit tuples
        # (min(B),) + p, one per ordering p of the rest of B
        for n in range(1, 5):
            X = fin(n)
            rebuilt = set()
            count = 0
            for raw in all_partitions(list(X.elements)):
                blocks = sorted(tuple(sorted(B)) for B in raw)
                orbit_menus = [
                    [(B[0],) + rest for rest in itertools.permutations(B[1:])]
                    for B in blocks
                ]
                for cycles in itertools.product(*orbit_menus):
                    rebuilt.add(recompose(CycleDecomposition(cycles)))
                    count += 1
            assert count == math.factorial(n)
            assert len(rebuilt) == math.factorial(n)


class TestRootedTree:
    def test_nodes_order(self):
        t = RootedTree(0, (RootedTree(1, (RootedTree(3),)), RootedTree(2)))
        assert list(t.nodes()) == [0, 1, 3, 2]

    def test_children_sorted_and_distinct(self):
        with pytest.raises(MalformedDecomposition):
            RootedTree(0, (RootedTree(2), RootedTree(1)))
        with pytest.raises(MalformedDecomposition):
            RootedTree(0, (RootedTree(1), RootedTree(1)))

    def test_equality_follows_shape(self):
        # same labels in the same preorder, different shapes
        chain = RootedTree(0, (RootedTree(1, (RootedTree(2),)),))
        star = RootedTree(0, (RootedTree(1), RootedTree(2)))
        assert chain != star
        assert chain == RootedTree(0, (RootedTree(1, (RootedTree(2),)),))
        assert hash(chain) == hash(RootedTree(0, (RootedTree(1, (RootedTree(2),)),)))
        assert RootedTree(0) != RootedTree(1)
        assert RootedTree(0) != 0


class TestEndofunctions:
    def test_frozen_example(self):
        table = {0: 1, 1: 2, 2: 0, 3: 0, 4: 3, 5: 2}
        dec = decompose_endofunction(fin(6), table)
        assert dec.cycles == ((0, 1, 2),)
        tree_at_0, tree_at_1, tree_at_2 = dec.trees[0]
        assert tree_at_0 == RootedTree(0, (RootedTree(3, (RootedTree(4),)),))
        assert tree_at_1 == RootedTree(1)
        assert tree_at_2 == RootedTree(2, (RootedTree(5),))
        assert recompose_endofunction(dec) == table

    def test_permutation_has_trivial_trees(self):
        dec = decompose_endofunction(fin(3), {0: 1, 1: 2, 2: 0})
        assert dec.trees == ((RootedTree(0), RootedTree(1), RootedTree(2)),)

    def test_roundtrip_exhaustive(self):
        for n in range(4):
            forms = set()
            for X, table in all_endofunctions(n):
                dec = decompose_endofunction(X, table)
                assert recompose_endofunction(dec) == table
                assert decompose_endofunction(X, recompose_endofunction(dec)) == dec
                forms.add(dec)
            assert len(forms) == n**n

    def test_deep_chain_roundtrips(self):
        # A 20000-point chain is one tree 20000 deep: building, walking,
        # comparing, hashing and printing it must not recurse, and peeling its core
        # must stay linear.
        n = 20_000
        table = {i: min(i + 1, n - 1) for i in range(n)}
        dec = decompose_endofunction(fin(n), table)
        assert dec.cycles == ((n - 1,),)
        assert list(dec.trees[0][0].nodes()) == list(range(n - 1, -1, -1))
        assert recompose_endofunction(dec) == table
        assert decompose_endofunction(fin(n), recompose_endofunction(dec)) == dec
        assert isinstance(hash(dec), int)
        assert isinstance(repr(dec), str)

    def test_escaping_image_rejected(self):
        with pytest.raises(NotMember):
            decompose_endofunction(fin(2), {0: 1, 1: 9})

    def test_partial_mapping_rejected(self):
        with pytest.raises(NotMember):
            decompose_endofunction(fin(2), {0: 1})

    def test_trees_hang_at_orbit_positions(self):
        # core 0 -> 2 -> 1 -> 0; 3 feeds 2 and 4 feeds 1
        table = {0: 2, 1: 0, 2: 1, 3: 2, 4: 1}
        dec = decompose_endofunction(fin(5), table)
        assert dec.cycles == ((0, 2, 1),)
        assert [tree.root for tree in dec.trees[0]] == [0, 2, 1]
        assert dec.trees[0][1] == RootedTree(2, (RootedTree(3),))
        assert dec.trees[0][2] == RootedTree(1, (RootedTree(4),))
        assert recompose_endofunction(dec) == table

    def test_anchor_mismatch_rejected(self):
        with pytest.raises(MalformedDecomposition):
            EndoDecomposition(((0,),), ((RootedTree(1),),))
        with pytest.raises(MalformedDecomposition):  # trees in sorted, not orbit, order
            EndoDecomposition(((0, 2, 1),), ((RootedTree(0), RootedTree(1), RootedTree(2)),))

    def test_misaligned_rows_rejected(self):
        with pytest.raises(MalformedDecomposition):
            EndoDecomposition(((0,), (1,)), ((RootedTree(0),),))
        with pytest.raises(MalformedDecomposition):
            EndoDecomposition(((0, 1),), ((RootedTree(0),),))

    def test_overlapping_tree_nodes_rejected(self):
        with pytest.raises(MalformedDecomposition):
            EndoDecomposition(((0,),), ((RootedTree(0, (RootedTree(0),)),),))
        bad_tree = RootedTree(1, (RootedTree(2),))
        with pytest.raises(MalformedDecomposition):
            EndoDecomposition(((0,), (1,)), ((RootedTree(0, (RootedTree(2),)),), (bad_tree,)))
