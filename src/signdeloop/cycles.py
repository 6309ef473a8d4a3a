"""Single-orbit structures and the cycle form of self-maps.

A self-bijection of a finite set is the same data as a partition of the set
into orbits together with a single-orbit step on each block, glued back onto
the set.  decompose/recompose realize both directions; the canonical form
sorts cycles by minimal label and takes the glue to be the identity pairing.
Arbitrary endofunctions extend this picture: an eventually-periodic core
carrying cycles, with a rooted tree of transient points hanging off every
core element.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import Iterator

from .errors import DomainMismatch, MalformedDecomposition, NotMember
from .finite import Bijection, Label, LabeledSet, disjoint_union, identity
from .quotients import Partition


def endo_table(carrier: LabeledSet, f) -> dict[Label, Label]:
    """Normalize a Bijection, mapping, or callable into an image table."""
    if isinstance(f, Bijection):
        lookup = f
    elif isinstance(f, Mapping):
        def lookup(x, _m=f):
            try:
                return _m[x]
            except KeyError:
                raise NotMember(f"no image recorded for {x!r}") from None
    else:
        lookup = f
    return {x: lookup(x) for x in carrier}


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
    """Disjoint cycles indexed by a label set, glued onto a carrier."""

    index: LabeledSet
    cycles: tuple[CyclicStructure, ...]
    glue: Bijection

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        if len(self.cycles) != len(self.index):
            raise MalformedDecomposition("one cycle per index label required")
        try:
            total = disjoint_union(c.carrier for c in self.cycles)
        except ValueError as exc:
            raise MalformedDecomposition(str(exc)) from None
        if self.glue.codomain != total:
            raise MalformedDecomposition("glue must land in the union of the cycle carriers")

    def cycle_at(self, label: Label) -> CyclicStructure:
        return self.cycles[self.index.position(label)]


def is_cyclic(carrier: LabeledSet, f) -> bool:
    """True when every element reaches every other under iteration of f.

    Equivalently: f is a bijection of the carrier with a single orbit.
    The empty carrier is not cyclic.
    """
    if len(carrier) == 0:
        return False
    table = endo_table(carrier, f)
    if any(v not in carrier for v in table.values()):
        return False
    if len(set(table.values())) != len(carrier):
        return False
    start = carrier.elements[0]
    length, y = 1, table[start]
    while y != start:
        length += 1
        y = table[y]
    return length == len(carrier)


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


def orbit_partition(e: Bijection) -> Partition:
    """Orbits of an endo-bijection as a partition of its carrier."""
    if e.domain != e.codomain:
        raise DomainMismatch("orbit partition requires an endo-bijection")
    return Partition.from_blocks(e.domain, _orbits(e))


def cycle_decompose(e: Bijection) -> CycleDecomposition:
    """Canonical cycle form: cycles sorted by minimal label, identity glue."""
    if e.domain != e.codomain:
        raise DomainMismatch("cycle decomposition requires an endo-bijection")
    cycles = []
    for orbit in _orbits(e):
        carrier = LabeledSet.of(orbit)
        step = Bijection(carrier, carrier, tuple(e(x) for x in carrier))
        cycles.append(CyclicStructure(carrier, step))
    index = LabeledSet.of(c.carrier.elements[0] for c in cycles)
    return CycleDecomposition(index, tuple(cycles), identity(e.domain))


def recompose(dec: CycleDecomposition) -> Bijection:
    """Transport every cycle step back through the glue."""
    step_at: dict[Label, Bijection] = {}
    for cyc in dec.cycles:
        for x in cyc.carrier:
            step_at[x] = cyc.step
    g = dec.glue
    images = tuple(g.preimage(step_at[g(x)](g(x))) for x in g.domain)
    return Bijection(g.domain, g.domain, images)


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

    def nodes(self) -> Iterator[Label]:
        """Every label in preorder, without recursion: trees may be deep."""
        stack = [self]
        while stack:
            tree = stack.pop()
            yield tree.root
            stack.extend(reversed(tree.children))


@dataclass(frozen=True)
class EndoDecomposition:
    """Cycles plus rooted trees of transient points, glued onto a carrier.

    trees[i][j] is attached at cycles[i].carrier.elements[j]; within a tree,
    a node's parent is its image under the recomposed function.
    """

    index: LabeledSet
    cycles: tuple[CyclicStructure, ...]
    trees: tuple[tuple[RootedTree, ...], ...]
    glue: Bijection

    def __post_init__(self):
        object.__setattr__(self, "cycles", tuple(self.cycles))
        object.__setattr__(self, "trees", tuple(tuple(row) for row in self.trees))
        if len(self.cycles) != len(self.index) or len(self.trees) != len(self.cycles):
            raise MalformedDecomposition("index, cycles, and tree rows must align")
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
        if self.glue.codomain != LabeledSet.of(nodes):
            raise MalformedDecomposition("glue must land in the union of the tree nodes")


def decompose_endofunction(carrier: LabeledSet, f) -> EndoDecomposition:
    """Split an arbitrary self-map into its periodic core and transient trees.

    The core is found by iterated-image stabilization: applying f |carrier|
    times leaves exactly the eventually-periodic labels.
    """
    table = endo_table(carrier, f)
    for x, y in table.items():
        if y not in carrier:
            raise NotMember(f"image {y!r} of {x!r} escapes the carrier")
    core = set(carrier.elements)
    for _ in range(len(carrier)):
        core = {table[x] for x in core}
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

    index = LabeledSet.of(c.carrier.elements[0] for c in cycles)
    trees = tuple(tuple(build(x) for x in cyc.carrier) for cyc in cycles)
    return EndoDecomposition(index, tuple(cycles), trees, identity(carrier))


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
    g = dec.glue
    return {x: g.preimage(image[g(x)]) for x in g.domain}
