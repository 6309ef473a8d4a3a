"""Single-orbit structures and the cycle form of self-maps.

A self-bijection of a finite set is the same data as its orbits, each
carrying a single-orbit step; the set is the disjoint union of the orbits.
cycle_decompose/recompose realize both directions, and the canonical form
sorts cycles by minimal label.  Arbitrary endofunctions extend this picture:
an eventually-periodic core carrying cycles, with a rooted tree of transient
points hanging off every core element.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, field
from typing import Iterator

from .errors import DomainMismatch, MalformedDecomposition, NotMember
from .finite import Bijection, Label, LabeledSet, disjoint_union


@dataclass(frozen=True)
class CyclicStructure:
    """A nonempty carrier whose step walks through it in a single orbit."""

    carrier: LabeledSet
    step: Bijection

    def __post_init__(self):
        if len(self.carrier) == 0:
            raise MalformedDecomposition("a cycle needs a nonempty carrier")
        if self.step.domain != self.carrier or self.step.codomain != self.carrier:
            raise MalformedDecomposition("step must be an endo-bijection of the carrier")
        if len(self.orbit_from_min()) != len(self.carrier):
            raise MalformedDecomposition("step does not have a single orbit")

    def orbit_from_min(self) -> tuple[Label, ...]:
        """The orbit listed from the minimal label."""
        start = self.carrier.elements[0]
        orbit = [start]
        y = self.step(start)
        while y != start:
            orbit.append(y)
            y = self.step(y)
        return tuple(orbit)

    def __len__(self) -> int:
        return len(self.carrier)


@dataclass(frozen=True)
class CycleDecomposition:
    """Disjoint cycles; their carriers' union is the decomposed carrier."""

    cycles: tuple[CyclicStructure, ...]
    carrier: LabeledSet = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        try:
            carrier = disjoint_union(c.carrier for c in self.cycles)
        except ValueError as exc:
            raise MalformedDecomposition(str(exc)) from None
        object.__setattr__(self, "carrier", carrier)


def _orbits(e: Bijection) -> list[tuple[Label, ...]]:
    # Ascending scan: each orbit is found at, and listed from, its minimum.
    seen: set[Label] = set()
    out = []
    for x in e.domain:
        if x in seen:
            continue
        orbit = [x]
        y = e(x)
        while y != x:
            orbit.append(y)
            y = e(y)
        seen.update(orbit)
        out.append(tuple(orbit))
    return out


def cycle_decompose(e: Bijection) -> CycleDecomposition:
    """Canonical cycle form: cycles sorted by minimal label."""
    if e.domain != e.codomain:
        raise DomainMismatch("cycle decomposition requires an endo-bijection")
    cycles = []
    for orbit in _orbits(e):
        carrier = LabeledSet.of(orbit)
        step = Bijection(carrier, carrier, tuple(e(x) for x in carrier))
        cycles.append(CyclicStructure(carrier, step))
    return CycleDecomposition(tuple(cycles))


def recompose(dec: CycleDecomposition) -> Bijection:
    """The self-bijection that moves every label one step along its cycle."""
    image: dict[Label, Label] = {}
    for cyc in dec.cycles:
        image.update(zip(cyc.carrier.elements, cyc.step.images))
    return Bijection(dec.carrier, dec.carrier, tuple(image[x] for x in dec.carrier))


def canonical_form(dec: CycleDecomposition) -> CycleDecomposition:
    return cycle_decompose(recompose(dec))


@dataclass(frozen=True)
class RootedTree:
    """A rooted tree of labels; children sorted by their roots."""

    root: Label
    children: tuple["RootedTree", ...] = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "children", tuple(self.children))
        roots = [c.root for c in self.children]
        if roots != sorted(roots) or len(set(roots)) != len(roots):
            raise MalformedDecomposition("children must be sorted by distinct roots")

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

    # The generated __eq__, __hash__ and __repr__ would recurse once per level.
    def __eq__(self, other) -> bool:
        if not isinstance(other, RootedTree):
            return NotImplemented
        return self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash(self._shape())

    def __repr__(self) -> str:
        return f"RootedTree(preorder={self._shape()!r})"


@dataclass(frozen=True)
class EndoDecomposition:
    """Cycles plus rooted trees of transient points; the carrier is the tree nodes.

    trees[i][j] is attached at cycles[i].carrier.elements[j]; within a tree,
    a node's parent is its image under the recomposed function.
    """

    cycles: tuple[CyclicStructure, ...]
    trees: tuple[tuple[RootedTree, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        object.__setattr__(self, "trees", tuple(tuple(row) for row in self.trees))
        if len(self.trees) != len(self.cycles):
            raise MalformedDecomposition("cycles and tree rows must align")
        nodes: list[Label] = []
        for cyc, row in zip(self.cycles, self.trees):
            if len(row) != len(cyc.carrier):
                raise MalformedDecomposition("one tree per cycle element required")
            for anchor, tree in zip(cyc.carrier, row):
                if tree.root != anchor:
                    raise MalformedDecomposition(
                        f"tree root {tree.root!r} must equal its anchor {anchor!r}"
                    )
                nodes.extend(tree.nodes())
        if len(set(nodes)) != len(nodes):
            raise MalformedDecomposition("tree node sets overlap")


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
    cycles = []
    if core:
        core_set = LabeledSet.of(core)
        restriction = Bijection(core_set, core_set, tuple(table[x] for x in core_set))
        cycles = list(cycle_decompose(restriction).cycles)
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

    trees = tuple(tuple(build(x) for x in cyc.carrier) for cyc in cycles)
    return EndoDecomposition(tuple(cycles), trees)


def recompose_endofunction(dec: EndoDecomposition) -> dict[Label, Label]:
    """Rebuild the image table: roots step along their cycle, nodes point at parents."""
    image: dict[Label, Label] = {}
    for cyc, row in zip(dec.cycles, dec.trees):
        for tree in row:
            image[tree.root] = cyc.step(tree.root)
            stack = [tree]
            while stack:
                node = stack.pop()
                for child in node.children:
                    image[child.root] = node.root
                    stack.append(child)
    return image
