"""Cycle forms of self-bijections and of arbitrary self-maps.

A self-bijection of a finite set is the same data as its orbits, so a cycle
is a plain tuple of labels: its orbit, listed from its minimal label, each
label followed by its image and the last by the first.  The set is the
disjoint union of the orbits: cycle_decompose and recompose keep the set
they are given, and CycleDecomposition(cycles) derives it from the labels.
The canonical form sorts cycles by minimal label.  Arbitrary endofunctions
extend this picture as plain data: the cycles of their periodic core, and a
dict that sends each transient label to its image.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Set as AbstractSet
from itertools import chain
from operator import itemgetter
from typing import Iterable

from .errors import DomainMismatch, MalformedDecomposition, NotMember
from .finite import Bijection, Frozen, Label, LabeledSet, _tuple, require_ints

Orbit = tuple[Label, ...]


def _require_ordered(orbits: tuple) -> None:
    """MalformedDecomposition when an orbit is a set, which lists no cycle order."""
    for orbit in orbits:
        if isinstance(orbit, AbstractSet):
            raise MalformedDecomposition(f"an orbit must be ordered, got the set {orbit!r}")


def _union_of_orbits(cycles: tuple[Orbit, ...], carrier: LabeledSet | None = None) -> LabeledSet:
    """The labels of the cycles: each cycle nonempty and listed from its minimum,
    no label twice, and exactly the labels of carrier when one is given."""
    labels = tuple(sorted(require_ints(tuple(chain.from_iterable(cycles)), "label")))
    for orbit in cycles:
        if not orbit or orbit[0] != min(orbit):
            raise MalformedDecomposition(f"orbit {orbit!r} is not listed from its minimum")
    if carrier is not None and labels == carrier.elements:
        return carrier
    repeated = sorted({a for a, b in zip(labels, labels[1:]) if a == b})
    if repeated:
        raise MalformedDecomposition(f"duplicate labels in the cycles: {repeated!r}")
    if carrier is not None:
        raise MalformedDecomposition(f"cycles on {labels!r} do not cover {carrier.elements!r}")
    return LabeledSet(labels)


class CycleDecomposition(Frozen):
    """Disjoint cycles; their labels' union is the decomposed carrier.

    Each orbit lists its cycle order, so a set, which lists none, is
    refused.  The carrier is derived, so it is neither compared, hashed nor
    shown.
    """

    def __init__(self, cycles: Iterable[Iterable[Label]]):
        orbits = _tuple(cycles, "cycles")
        _require_ordered(orbits)
        cycles = tuple(_tuple(orbit, "a cycle") for orbit in orbits)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "carrier", _union_of_orbits(cycles))

    @classmethod
    def _over(cls, cycles: tuple[Orbit, ...], carrier: LabeledSet) -> "CycleDecomposition":
        """The cycles as a decomposition of carrier, whose labels they list once each."""
        dec = object.__new__(cls)
        dec.__dict__.update(cycles=cycles, carrier=_union_of_orbits(cycles, carrier))
        return dec

    def _values(self) -> tuple:
        return (self.cycles,)

    def __repr__(self) -> str:
        return f"CycleDecomposition(cycles={self.cycles!r})"


def _orbits(labels: Iterable[Label], step: dict[Label, Label]) -> list[Orbit]:
    # Ascending scan: each orbit is found at, and listed from, its minimum.
    # Every step taken is popped, so the labels left in step are unvisited.
    orbits = []
    for x in labels:
        if x not in step:
            continue
        orbit = [x]
        y = step.pop(x)
        while y != x:
            orbit.append(y)
            y = step.pop(y)
        orbits.append(tuple(orbit))
    return orbits


def cycle_decompose(e: Bijection) -> CycleDecomposition:
    """Canonical cycle form: cycles sorted by minimal label, over e.domain."""
    if (X := e.domain) is not e.codomain and X != e.codomain:
        raise DomainMismatch("cycle decomposition requires an endo-bijection")
    labels, positions = X.elements, e.positions
    # The one permutation of fewer than two points is the identity.
    images = itemgetter(*positions)(labels) if len(positions) > 1 else labels
    cycles = _orbits(labels, dict(zip(labels, images)))
    return CycleDecomposition._over(tuple(cycles), X)


def recompose(dec: CycleDecomposition) -> Bijection:
    """The self-bijection that moves every label one step along its cycle."""
    X = dec.carrier
    pos = X._pos
    positions = [0] * len(pos)
    for orbit in dec.cycles:
        i = pos[orbit[-1]]  # the last label steps to the first
        for label in orbit:
            j = pos[label]
            positions[i] = j
            i = j
    return Bijection._trusted(X, X, tuple(positions))


def decompose_endofunction(
    carrier: LabeledSet, f: dict[Label, Label]
) -> tuple[tuple[Orbit, ...], dict[Label, Label]]:
    """Split a self-map, given as its image table, into (cycles, transient).

    cycles are the orbits of the periodic core, as cycle_decompose lists
    them; transient maps every other label, ascending, to its image.  The
    forest of transient points hanging off the core is that parent map.
    The core is found in linear time by peeling: a label that no remaining
    label maps to is transient, and removing it may expose its image.
    What is never peeled is exactly the set of periodic labels.
    """
    try:
        table = {x: f[x] for x in carrier}
    except KeyError as exc:
        raise NotMember(f"no image recorded for {exc.args[0]!r}") from None
    for x, y in table.items():
        if y not in carrier:
            raise NotMember(f"image {y!r} of {x!r} escapes the carrier")
    indegree = Counter(table.values())
    peel = [x for x in table if not indegree[x]]
    core = set(table)
    while peel:
        x = peel.pop()
        core.remove(x)
        y = table[x]
        indegree[y] -= 1
        if not indegree[y]:
            peel.append(y)
    cycles = tuple(_orbits(sorted(core), dict(table)))
    return cycles, {x: y for x, y in table.items() if x not in core}


def recompose_endofunction(
    dec: tuple[tuple[Orbit, ...], dict[Label, Label]]
) -> dict[Label, Label]:
    """The image table of (cycles, transient): each cycle label steps to the
    next label of its orbit, and each transient label to its image.

    The pair is a caller's plain data, so it is checked here, in linear time
    and without decomposing anything: its shape first, then the cycles as
    CycleDecomposition takes them, no orbit a set, every transient label an
    int on no cycle, every image a label of the pair, and every transient
    label reaching the core.
    """
    try:
        cycles, transient = dec
        orbits = tuple(cycles)
        cycles = tuple(map(tuple, orbits))
    except (TypeError, ValueError):  # no pair, or cycles that are no iterable of iterables
        transient = None
    if not isinstance(transient, dict):
        raise MalformedDecomposition("expected a pair (cycles, transient) of orbits and a dict")
    _require_ordered(orbits)
    _union_of_orbits(cycles)
    image = {x: y for orbit in cycles for x, y in zip(orbit, orbit[1:] + orbit[:1])}
    on_cycles = sorted(image.keys() & require_ints(tuple(transient), "label"))
    if on_cycles:
        raise MalformedDecomposition(f"transient labels {on_cycles!r} lie on a cycle")
    require_ints(tuple(transient.values()), "image")
    for x, y in transient.items():
        if y not in image and y not in transient:
            raise MalformedDecomposition(f"image {y!r} of {x!r} is not a label")
    # Each walk stops at the core, or at a label an earlier walk reached it from.
    reaches = set(image)
    for x in transient:
        path = set()
        while x not in reaches:
            if x in path:
                raise MalformedDecomposition(f"labels {sorted(path)!r} never reach the core")
            path.add(x)
            x = transient[x]
        reaches |= path
    image.update(transient)
    return image
