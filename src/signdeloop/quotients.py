"""Decidable equivalence relations on finite sets, stored as block partitions.

A relation is validated by brute exhaustion (reflexivity, symmetry,
transitivity over all pairs and triples) before any blocks are formed;
failures carry an explicit witness.  Blocks are sorted by their minimal
labels.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

from .errors import (
    ContractError,
    NotReflexive,
    NotSymmetric,
    NotTransitive,
)
from .finite import Label, LabeledSet

Relation = Callable[[Label, Label], bool]


@dataclass(frozen=True)
class Partition:
    """Nonempty, pairwise disjoint blocks covering the carrier, sorted by min."""

    carrier: LabeledSet
    blocks: tuple[LabeledSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        seen: set[Label] = set()
        for block in self.blocks:
            if len(block) == 0:
                raise ContractError("empty block in partition")
            if seen & set(block.elements):
                raise ContractError("blocks overlap")
            seen.update(block.elements)
        if seen != set(self.carrier.elements):
            raise ContractError("blocks do not cover the carrier")
        mins = [block.elements[0] for block in self.blocks]
        if mins != sorted(mins):
            raise ContractError("blocks must be sorted by minimal member")

    @classmethod
    def from_blocks(cls, carrier: LabeledSet, blocks) -> "Partition":
        sets = sorted(
            (LabeledSet.of(b) for b in blocks),
            key=lambda s: s.elements[0] if s.elements else -1,
        )
        return cls(carrier, tuple(sets))

    def __len__(self) -> int:
        return len(self.blocks)


def partition_from_relation(X: LabeledSet, rel: Relation) -> Partition:
    """Validate a decidable relation exhaustively, then form its blocks.

    Raises NotReflexive / NotSymmetric / NotTransitive with a witness as
    soon as a law fails; validation is O(n^3) and carriers here are small.
    """
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
    assigned: set[Label] = set()
    for x in elems:
        if x in assigned:
            continue
        block = tuple(y for y in elems if rel(x, y))
        assigned.update(block)
        blocks.append(block)
    return Partition.from_blocks(X, blocks)
