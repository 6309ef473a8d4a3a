import itertools
import math

import pytest
from hypothesis import given

from signdeloop.errors import (
    DomainMismatch,
    MalformedDecomposition,
    NotMember,
)
from signdeloop.finite import (
    Bijection,
    LabeledSet,
    enumerate_bijections,
    fin,
    identity,
)
from signdeloop.perms import permutation
from signdeloop.quotients import Partition
from signdeloop.cycles import (
    CycleDecomposition,
    CyclicStructure,
    EndoDecomposition,
    RootedTree,
    canonical_form,
    cycle_decompose,
    decompose_endofunction,
    endo_table,
    is_cyclic,
    orbit_partition,
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


def reaches_everything(n, table):
    """Independent oracle: from every start, iteration visits every label."""
    X = fin(n)
    if n == 0:
        return False
    for x in X:
        seen = {x}
        y = x
        for _ in range(n):
            y = table[y]
            seen.add(y)
        if seen != set(X.elements):
            return False
    return True


class TestEndoTable:
    def test_accepts_bijection(self):
        assert endo_table(fin(2), permutation((1, 0))) == {0: 1, 1: 0}

    def test_accepts_mapping_and_callable(self):
        assert endo_table(fin(2), {0: 0, 1: 0}) == {0: 0, 1: 0}
        assert endo_table(fin(3), lambda x: (x + 1) % 3) == {0: 1, 1: 2, 2: 0}

    def test_partial_mapping_rejected(self):
        with pytest.raises(NotMember):
            endo_table(fin(2), {0: 1})


class TestIsCyclic:
    def test_matches_reachability_oracle_exhaustively(self):
        for n in range(5):
            for X, table in all_endofunctions(n):
                assert is_cyclic(X, table) == reaches_everything(n, table)

    def test_empty_carrier(self):
        assert not is_cyclic(fin(0), {})

    def test_singleton(self):
        assert is_cyclic(fin(1), {0: 0})

    def test_escaping_image(self):
        assert not is_cyclic(fin(2), {0: 1, 1: 5})

    def test_non_injective(self):
        assert not is_cyclic(fin(2), {0: 0, 1: 0})

    def test_cycle_counts(self):
        # exactly (n-1)! of the n^n self-maps are single cycles
        for n in range(1, 5):
            hits = sum(
                is_cyclic(X, t) for X, t in all_endofunctions(n)
            )
            assert hits == math.factorial(n - 1)


class TestCyclicStructure:
    def test_orbit_from_min(self):
        X = LabeledSet.of([2, 5, 9])
        step = Bijection(X, X, (9, 2, 5))  # 2 -> 9 -> 5 -> 2
        assert CyclicStructure(X, step).orbit_from_min() == (2, 9, 5)

    def test_rejects_empty(self):
        with pytest.raises(MalformedDecomposition):
            CyclicStructure(LabeledSet.of([]), identity(LabeledSet.of([])))

    def test_rejects_foreign_step(self):
        with pytest.raises(MalformedDecomposition):
            CyclicStructure(fin(2), identity(fin(3)))

    def test_rejects_multiple_orbits(self):
        with pytest.raises(MalformedDecomposition):
            CyclicStructure(fin(2), identity(fin(2)))
        with pytest.raises(MalformedDecomposition):
            CyclicStructure(fin(4), permutation((1, 0, 3, 2)))


class TestCycleDecompose:
    def test_frozen_example(self):
        dec = cycle_decompose(permutation((1, 0, 2, 4, 5, 3)))
        assert dec.index.elements == (0, 2, 3)
        assert [c.carrier.elements for c in dec.cycles] == [
            (0, 1),
            (2,),
            (3, 4, 5),
        ]
        assert dec.cycle_at(3).orbit_from_min() == (3, 4, 5)
        assert dec.glue == identity(fin(6))

    def test_orbit_partition(self):
        p = orbit_partition(permutation((1, 0, 2, 4, 5, 3)))
        assert [b.members for b in p.blocks] == [(0, 1), (2,), (3, 4, 5)]

    def test_orbit_partition_requires_endo(self):
        with pytest.raises(DomainMismatch):
            orbit_partition(Bijection(fin(2), LabeledSet.of([7, 8]), (7, 8)))

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
        assert canonical_form(dec) == dec

    def test_partition_times_steps_covers_group(self):
        # every (orbit partition, single-orbit step per block) pair arises
        # from exactly one self-bijection
        for n in range(1, 5):
            X = fin(n)
            rebuilt = set()
            count = 0
            for raw in all_partitions(list(X.elements)):
                p = Partition.from_blocks(X, raw)
                block_sets = [LabeledSet(b.members) for b in p.blocks]
                step_menus = [
                    [
                        s
                        for s in enumerate_bijections(B, B)
                        if is_cyclic(B, s)
                    ]
                    for B in block_sets
                ]
                for steps in itertools.product(*step_menus):
                    cycles = tuple(
                        CyclicStructure(B, s)
                        for B, s in zip(block_sets, steps)
                    )
                    index = LabeledSet.of(B.elements[0] for B in block_sets)
                    dec = CycleDecomposition(index, cycles, identity(X))
                    rebuilt.add(recompose(dec))
                    count += 1
            assert count == math.factorial(n)
            assert len(rebuilt) == math.factorial(n)


class TestGlueTransport:
    def test_nonidentity_glue_two_points(self):
        carrier = LabeledSet.of([5, 7])
        cyc = CyclicStructure(fin(2), permutation((1, 0)))
        dec = CycleDecomposition(
            fin(1), (cyc,), Bijection(carrier, fin(2), (1, 0))
        )
        e = recompose(dec)
        assert e.images == (7, 5)
        canon = canonical_form(dec)
        assert canon.glue == identity(carrier)
        assert canon.index.elements == (5,)
        assert canon.cycles[0].carrier.elements == (5, 7)

    def test_nonidentity_glue_mixed_cycles(self):
        swap = CyclicStructure(
            LabeledSet.of([3, 4]),
            Bijection(LabeledSet.of([3, 4]), LabeledSet.of([3, 4]), (4, 3)),
        )
        rest = CyclicStructure(
            LabeledSet.of([5]), identity(LabeledSet.of([5]))
        )
        glue = Bijection(fin(3), LabeledSet.of([3, 4, 5]), (4, 5, 3))
        dec = CycleDecomposition(LabeledSet.of([3, 5]), (swap, rest), glue)
        assert recompose(dec) == permutation((2, 1, 0))

    def test_validation(self):
        cyc = CyclicStructure(fin(1), identity(fin(1)))
        with pytest.raises(MalformedDecomposition):
            CycleDecomposition(fin(2), (cyc,), identity(fin(1)))
        with pytest.raises(MalformedDecomposition):
            CycleDecomposition(fin(2), (cyc, cyc), identity(fin(1)))
        with pytest.raises(MalformedDecomposition):
            CycleDecomposition(fin(1), (cyc,), identity(fin(2)))


class TestRootedTree:
    def test_nodes_order(self):
        t = RootedTree(0, (RootedTree(1, (RootedTree(3),)), RootedTree(2)))
        assert list(t.nodes()) == [0, 1, 3, 2]

    def test_children_sorted_and_distinct(self):
        with pytest.raises(MalformedDecomposition):
            RootedTree(0, (RootedTree(2), RootedTree(1)))
        with pytest.raises(MalformedDecomposition):
            RootedTree(0, (RootedTree(1), RootedTree(1)))


class TestEndofunctions:
    def test_frozen_example(self):
        table = {0: 1, 1: 2, 2: 0, 3: 0, 4: 3, 5: 2}
        dec = decompose_endofunction(fin(6), table)
        assert dec.index.elements == (0,)
        assert dec.cycles[0].carrier.elements == (0, 1, 2)
        assert dec.cycles[0].orbit_from_min() == (0, 1, 2)
        tree_at_0, tree_at_1, tree_at_2 = dec.trees[0]
        assert tree_at_0 == RootedTree(0, (RootedTree(3, (RootedTree(4),)),))
        assert tree_at_1 == RootedTree(1)
        assert tree_at_2 == RootedTree(2, (RootedTree(5),))
        assert recompose_endofunction(dec) == table

    def test_permutation_has_trivial_trees(self):
        dec = decompose_endofunction(fin(3), permutation((1, 2, 0)))
        assert dec.trees == ((RootedTree(0), RootedTree(1), RootedTree(2)),)

    def test_roundtrip_exhaustive(self):
        for n in range(4):
            for X, table in all_endofunctions(n):
                dec = decompose_endofunction(X, table)
                assert recompose_endofunction(dec) == table
                assert decompose_endofunction(X, recompose_endofunction(dec)) == dec

    def test_deep_chain_roundtrips(self):
        # A 20000-point chain is one tree 20000 deep: building and walking it
        # must not recurse, and peeling its core must stay linear.
        # (Comparing two such trees with == would recurse.)
        n = 20_000
        table = {i: min(i + 1, n - 1) for i in range(n)}
        dec = decompose_endofunction(fin(n), table)
        assert dec.index.elements == (n - 1,)
        assert list(dec.trees[0][0].nodes()) == list(range(n - 1, -1, -1))
        assert recompose_endofunction(dec) == table

    def test_escaping_image_rejected(self):
        with pytest.raises(NotMember):
            decompose_endofunction(fin(2), {0: 1, 1: 9})

    def test_anchor_mismatch_rejected(self):
        cyc = CyclicStructure(fin(1), identity(fin(1)))
        with pytest.raises(MalformedDecomposition):
            EndoDecomposition(
                fin(1), (cyc,), ((RootedTree(1),),), identity(fin(1))
            )

    def test_overlapping_tree_nodes_rejected(self):
        cyc = CyclicStructure(fin(1), identity(fin(1)))
        bad_tree = RootedTree(0, (RootedTree(1), RootedTree(2)))
        with pytest.raises(MalformedDecomposition):
            EndoDecomposition(
                fin(2),
                (cyc, cyc),
                ((bad_tree,), (bad_tree,)),
                identity(fin(3)),
            )
