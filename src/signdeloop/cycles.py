"""Cycle forms of self-bijections and of arbitrary self-maps.

A self-bijection of a finite set is the same data as its orbits, so a cycle
is a plain tuple of labels: its orbit, listed from its minimal label, each
label followed by its image and the last by the first.  The set is the
disjoint union of the orbits: cycle_decompose and recompose keep the set
they are given, and CycleDecomposition(cycles) derives it from the labels.
The canonical form sorts cycles by minimal label.  Arbitrary endofunctions
extend this picture: an eventually-periodic core carrying cycles, with a
rooted tree of transient points hanging off every core element.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator

from .errors import DomainMismatch, MalformedDecomposition, NotMember
from .finite import Bijection, Frozen, Label, LabeledSet, require_ints

Orbit = tuple[Label, ...]


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

    The carrier is derived, so it is neither compared, hashed nor shown.
    """

    def __init__(self, cycles: Iterable[Iterable[Label]]):
        cycles = tuple(map(tuple, cycles))
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


def _successors(orbit: Orbit) -> Iterator[tuple[Label, Label]]:
    """Each label of an orbit with its image, the next entry."""
    return zip(orbit, orbit[1:] + orbit[:1])


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


class RootedTree(Frozen):
    """A rooted tree of labels; children sorted by their roots."""

    def __init__(self, root: Label, children: Iterable["RootedTree"] = ()):
        children = tuple(children)
        roots = [c.root for c in children]
        if roots != sorted(roots) or len(set(roots)) != len(roots):
            raise MalformedDecomposition("children must be sorted by distinct roots")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "children", children)

    def _preorder(self) -> Iterator["RootedTree"]:
        # Without recursion: trees may be deep.
        stack = [self]
        while stack:
            tree = stack.pop()
            yield tree
            stack.extend(reversed(tree.children))

    def nodes(self) -> Iterator[Label]:
        """Every label in preorder."""
        return (tree.root for tree in self._preorder())

    def _shape(self) -> tuple[tuple[Label, int], ...]:
        """(root, child count) in preorder, which determines the tree."""
        return tuple((tree.root, len(tree.children)) for tree in self._preorder())

    # Field-wise __eq__, __hash__ and __repr__ would recurse once per level.
    def __eq__(self, other) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash(self._shape())

    def __repr__(self) -> str:
        return f"RootedTree(preorder={self._shape()!r})"


class EndoDecomposition(Frozen):
    """Cycles plus rooted trees of transient points; the carrier is the tree nodes.

    cycles are orbit tuples of the periodic core, as in CycleDecomposition.
    trees[i][j] hangs at cycles[i][j]; within a tree, a node's parent is its
    image under the recomposed function.
    """

    def __init__(
        self, cycles: Iterable[Iterable[Label]], trees: Iterable[Iterable[RootedTree]]
    ):
        cycles = tuple(map(tuple, cycles))
        trees = tuple(tuple(row) for row in trees)
        _union_of_orbits(cycles)
        if len(trees) != len(cycles):
            raise MalformedDecomposition("cycles and tree rows must align")
        nodes: list[Label] = []
        for orbit, row in zip(cycles, trees):
            if len(row) != len(orbit):
                raise MalformedDecomposition("one tree per cycle element required")
            for anchor, tree in zip(orbit, row):
                if tree.root != anchor:
                    raise MalformedDecomposition(
                        f"tree root {tree.root!r} must equal its anchor {anchor!r}"
                    )
                nodes.extend(tree.nodes())
        if len(set(nodes)) != len(nodes):
            raise MalformedDecomposition("tree node sets overlap")
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "trees", trees)

    def _values(self) -> tuple:
        return (self.cycles, self.trees)

    def __repr__(self) -> str:
        return f"EndoDecomposition(cycles={self.cycles!r}, trees={self.trees!r})"


def decompose_endofunction(carrier: LabeledSet, f: dict[Label, Label]) -> EndoDecomposition:
    """Split a self-map, given as its image table, into core and trees.

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
    kids: dict[Label, list[Label]] = defaultdict(list)
    for x in carrier:
        if x not in core:
            kids[table[x]].append(x)

    def build(x: Label) -> RootedTree:
        # Reversed preorder lists every node after its subtree, so each
        # node's children are built before it, without recursion.
        order, stack = [], [x]
        while stack:
            y = stack.pop()
            order.append(y)
            stack.extend(kids[y])
        built: dict[Label, RootedTree] = {}
        for y in reversed(order):
            built[y] = RootedTree(y, tuple(built.pop(c) for c in sorted(kids[y])))
        return built[x]

    trees = tuple(tuple(build(x) for x in orbit) for orbit in cycles)
    return EndoDecomposition(cycles, trees)


def recompose_endofunction(dec: EndoDecomposition) -> dict[Label, Label]:
    """Rebuild the image table: roots step along their cycle, nodes point at parents."""
    image: dict[Label, Label] = {}
    for orbit, row in zip(dec.cycles, dec.trees):
        for (root, successor), tree in zip(_successors(orbit), row):
            image[root] = successor
            stack = [tree]
            while stack:
                node = stack.pop()
                for child in node.children:
                    image[child.root] = node.root
                    stack.append(child)
    return image
