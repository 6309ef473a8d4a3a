"""Decidable equivalence relations on finite sets, stored as block partitions.

A relation is evaluated once per ordered pair of the carrier, up front, so
it must be total on X x X.  Its laws are then decided by brute exhaustion on
that table (reflexivity, symmetry, transitivity over all pairs and triples)
before any blocks are formed; failures carry an explicit witness.  Blocks
are sorted by their minimal labels.
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

    rel is called exactly once per ordered pair of X, len(X) ** 2 calls in
    all, before any law is checked, so it must be total on X x X.  The laws
    are decided on that table over every pair and triple, and
    NotReflexive / NotSymmetric / NotTransitive carry the first witness in
    element, pair and triple order.
    """
    elems = X.elements
    related = {x: {y for y in elems if rel(x, y)} for x in elems}
    for x in elems:
        if x not in related[x]:
            raise NotReflexive("relation is not reflexive", x)
    for x, y in itertools.combinations(elems, 2):
        if (y in related[x]) != (x in related[y]):
            raise NotSymmetric("relation is not symmetric", (x, y))
    # x ~ y ~ z forces x ~ z exactly when related[y] is inside related[x];
    # the least z outside it completes the first failing triple.
    for x in elems:
        for y in elems:
            if y in related[x] and not related[y] <= related[x]:
                z = min(related[y] - related[x])
                raise NotTransitive("relation is not transitive", (x, y, z))
    blocks = []
    assigned: set[Label] = set()
    for x in elems:
        if x not in assigned:
            assigned |= related[x]
            blocks.append(related[x])
    return Partition.from_blocks(X, blocks)
