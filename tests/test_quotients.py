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

    @given(labeled_sets(min_size=1, max_size=6), st.integers(1, 4))
    def test_modulus_relation(self, X, k):
        p = partition_from_relation(X, lambda x, y: (x - y) % k == 0)
        for block in p.blocks:
            residues = {x % k for x in block.elements}
            assert len(residues) == 1
        assert len(p) == len({x % k for x in X.elements})
