import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from signdeloop.errors import (
    ContractError,
    NotReflexive,
    NotSymmetric,
    NotTransitive,
)
from signdeloop.finite import LabeledSet, fin
from signdeloop.quotients import Partition, partition_from_relation

from strategies import labeled_sets


def lazy_partition_from_relation(X, rel):
    """Reference: query rel pair by pair, as each law and block needs it."""
    elems = X.elements
    for x in elems:
        if not rel(x, x):
            raise NotReflexive("relation is not reflexive", x)
    for x, y in itertools.combinations(elems, 2):
        if bool(rel(x, y)) != bool(rel(y, x)):
            raise NotSymmetric("relation is not symmetric", (x, y))
    for x, y, z in itertools.product(elems, repeat=3):
        if rel(x, y) and rel(y, z) and not rel(x, z):
            raise NotTransitive("relation is not transitive", (x, y, z))
    blocks = []
    assigned = set()
    for x in elems:
        if x in assigned:
            continue
        block = tuple(y for y in elems if rel(x, y))
        assigned.update(block)
        blocks.append(block)
    return Partition.from_blocks(X, blocks)


@st.composite
def relation_tables(draw):
    """A boolean table on fin(k), k <= 5: an equivalence with entries flipped.

    With no flips it is an equivalence.  Flipping both (x, y) and (y, x)
    keeps reflexivity and symmetry and may break transitivity; flipping one
    entry breaks reflexivity or symmetry.
    """
    k = draw(st.integers(0, 5))
    home = draw(st.lists(st.integers(0, max(k - 1, 0)), min_size=k, max_size=k))
    table = {(x, y): home[x] == home[y] for x in range(k) for y in range(k)}
    if k > 1:
        unordered = list(itertools.combinations(range(k), 2))
        for x, y in draw(st.sets(st.sampled_from(unordered))):
            table[x, y] = table[y, x] = not table[x, y]
    if k:
        for pair in draw(st.sets(st.sampled_from(sorted(table)), max_size=1)):
            table[pair] = not table[pair]
    return k, table


def outcome(partition, X, rel):
    """The blocks, or the failed law's exception class and witness."""
    try:
        return tuple(b.elements for b in partition(X, rel).blocks)
    except (NotReflexive, NotSymmetric, NotTransitive) as exc:
        return type(exc), exc.witness


def all_partitions(elements):
    """Independent oracle: every partition of a list, as a list of block lists.

    Recursive construction: the first element starts a block; every other
    element either joins an existing block or opens a new one.
    """
    if not elements:
        return [[]]
    head, *rest = elements
    out = []
    for sub in all_partitions(rest):
        for i in range(len(sub)):
            out.append(sub[:i] + [[head] + sub[i]] + sub[i + 1 :])
        out.append([[head]] + sub)
    return out


BELL = [1, 1, 2, 5, 15, 52]


class TestPartition:
    def test_bell_numbers(self):
        for n, expected in enumerate(BELL):
            assert len(all_partitions(list(range(n)))) == expected

    def test_every_enumerated_partition_validates(self):
        X = fin(4)
        seen = set()
        for raw in all_partitions(list(X.elements)):
            p = Partition.from_blocks(X, raw)
            seen.add(tuple(b.elements for b in p.blocks))
        assert len(seen) == BELL[4]

    def test_blocks_sorted_by_min(self):
        p = Partition.from_blocks(fin(4), [[3, 1], [0, 2]])
        assert [b.elements for b in p.blocks] == [(0, 2), (1, 3)]

    def test_block_of(self):
        p = Partition.from_blocks(fin(4), [[0, 2], [1, 3]])
        assert [b.elements for b in p.blocks if 3 in b] == [(1, 3)]
        assert len(p) == 2
        for label in (4, True, 3.0):
            assert not any(label in b for b in p.blocks)

    def test_rejects_overlap(self):
        with pytest.raises(ContractError):
            Partition.from_blocks(fin(3), [[0, 1], [1, 2]])

    def test_rejects_gap(self):
        with pytest.raises(ContractError):
            Partition.from_blocks(fin(3), [[0, 1]])

    def test_rejects_empty_block(self):
        with pytest.raises(ContractError):
            Partition(fin(2), (LabeledSet((0, 1)), LabeledSet(())))

    def test_rejects_unsorted_blocks(self):
        with pytest.raises(ContractError):
            Partition(fin(2), (LabeledSet((1,)), LabeledSet((0,))))


class TestPartitionFromRelation:
    def test_parity_relation(self):
        p = partition_from_relation(fin(4), lambda x, y: (x - y) % 2 == 0)
        assert [b.elements for b in p.blocks] == [(0, 2), (1, 3)]

    def test_equality_relation(self):
        p = partition_from_relation(fin(3), lambda x, y: x == y)
        assert len(p) == 3

    def test_total_relation(self):
        p = partition_from_relation(fin(3), lambda x, y: True)
        assert len(p) == 1

    def test_not_reflexive_witness(self):
        with pytest.raises(NotReflexive) as info:
            partition_from_relation(fin(3), lambda x, y: x == y and x != 1)
        assert info.value.witness == 1

    def test_not_symmetric_witness(self):
        with pytest.raises(NotSymmetric) as info:
            partition_from_relation(fin(3), lambda x, y: x <= y)
        assert info.value.witness == (0, 1)

    def test_not_transitive_witness(self):
        with pytest.raises(NotTransitive) as info:
            partition_from_relation(fin(3), lambda x, y: abs(x - y) <= 1)
        assert info.value.witness == (0, 1, 2)

    def test_matches_oracle_for_every_partition(self):
        X = fin(4)
        for raw in all_partitions(list(X.elements)):
            home = {x: i for i, block in enumerate(raw) for x in block}
            p = partition_from_relation(X, lambda x, y: home[x] == home[y])
            assert sorted(b.elements for b in p.blocks) == sorted(
                tuple(sorted(b)) for b in raw
            )

    @given(relation_tables())
    def test_matches_the_lazy_reference(self, drawn):
        k, table = drawn
        X = fin(k)
        calls = []

        def rel(x, y):
            calls.append((x, y))
            return table[x, y]

        got = outcome(partition_from_relation, X, rel)
        # Once per ordered pair, whether or not a law fails.
        assert len(calls) == k**2 and set(calls) == set(table)
        assert got == outcome(lazy_partition_from_relation, X, lambda x, y: table[x, y])

    @given(labeled_sets(min_size=1, max_size=6), st.integers(1, 4))
    def test_modulus_relation(self, X, k):
        p = partition_from_relation(X, lambda x, y: (x - y) % k == 0)
        for block in p.blocks:
            residues = {x % k for x in block.elements}
            assert len(residues) == 1
        assert len(p) == len({x % k for x in X.elements})
