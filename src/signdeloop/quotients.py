"""Decidable equivalence relations on finite sets, and the blocks they induce.

A relation is evaluated once per ordered pair of the carrier, up front, so
it must be total on X x X.  Its laws are then decided by brute exhaustion on
that table (reflexivity, symmetry, transitivity over all pairs and triples)
before any blocks are formed; failures carry an explicit witness.  The
blocks are returned as a tuple of LabeledSets sorted by minimal label.
"""

from __future__ import annotations

import itertools
from typing import Callable

from .errors import NotReflexive, NotSymmetric, NotTransitive
from .finite import Label, LabeledSet

Relation = Callable[[Label, Label], bool]


def partition_from_relation(X: LabeledSet, rel: Relation) -> tuple[LabeledSet, ...]:
    """Validate a decidable relation exhaustively, then return its blocks.

    rel is called exactly once per ordered pair of X, len(X) ** 2 calls in
    all, before any law is checked, so it must be total on X x X.  The laws
    are decided on that table over every pair and triple, and
    NotReflexive / NotSymmetric / NotTransitive carry the first witness in
    element, pair and triple order.  The blocks are the classes, so they
    are nonempty, pairwise disjoint and cover X.
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
    # Ascending scan: each class is found at, and starts with, its minimum.
    blocks = []
    assigned: set[Label] = set()
    for x in elems:
        if x not in assigned:
            assigned |= related[x]
            blocks.append(LabeledSet._trusted(tuple(sorted(related[x]))))
    return tuple(blocks)
