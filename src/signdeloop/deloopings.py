"""Functorial two-element families over concrete finite sets.

Four constructions each assign to every n-element labeled set a two-element
fiber together with a transport bijection along any relabeling, and a chart
identifying the fiber over fin(n) with {+1, -1}:

* fixed_point_delooping - equivariant functions from charts to {+1, -1};
  exactly two are fixed by the twisted action, determined by a reference
  chart and the value taken there.
* orbit_delooping - pairs (chart, sign) modulo simultaneous precomposition
  and sign twist; exactly two orbits.
* simpson_delooping - charts modulo "even relative parity"; exactly two
  classes of equal size.
* cartier_delooping - orientations of the complete graph modulo parity of
  their disagreement count; the only construction that never consults
  permutation parity, which is what makes the sign-agreement checks here
  meaningful rather than circular.

Fibers are materialized as the concrete set {0, 1}, where label 0 always
names the class of the construction's documented canonical representative
over the given carrier.  Extracting a sign from any family asks whether the
action of a permutation fixes the charted base point of the fiber over
fin(n).

Each construction is declared once, as a Construction record listing its
elements, a representative per class, transport and classification; its
family, class census and projection squares are all derived from that record.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterable, Iterator

from .errors import (
    ArityMismatch,
    ArityTooSmall,
    CarrierMismatch,
    ContractError,
    NaturalityFailure,
    NotADelooping,
    SizeGuard,
    TooSmall,
)
from .finite import (
    Bijection,
    Label,
    LabeledSet,
    enumerate_bijections,
    fin,
    identity,
    k_subsets,
    order_bijection,
    random_bijection,
    random_labeled_set,
    require_int,
    require_natural,
    swap_two,
    transposition_of_pair,
)
from .perms import MINUS, PLUS, Sign, sign_inversions, transposition

# The shared two-element fiber; 0 is the class of the canonical representative.
CLASS_LABELS = fin(2)

# Its two bijections, by image tuple; every computed action returns one of them.
FIBER_IDENTITY, FIBER_SWAP = identity(CLASS_LABELS), swap_two(CLASS_LABELS)
FIBER_MAPS = {m.images: m for m in (FIBER_IDENTITY, FIBER_SWAP)}


# --------------------------------------------------------------------------
# Orientations of the complete graph on a labeled set.

@dataclass(frozen=True)
class Orientation:
    """One chosen element per 2-element subset of the carrier.

    Encoded as a bitmask over the lexicographically sorted pairs: bit k set
    means the larger element of pair k is chosen.  Over an n-point carrier
    the pair at positions x < y is pair k = x*(2n-x-3)//2 - 1 + y.
    """

    carrier: LabeledSet
    bits: int

    def __post_init__(self):
        width = math.comb(len(self.carrier), 2)
        if not 0 <= require_int(self.bits, "orientation bits") < (1 << width):
            raise ContractError(
                f"orientation needs {width} bits, got {self.bits!r}"
            )

    def flip(self, position: int) -> "Orientation":
        """Reverse the choice at one pair position."""
        if not 0 <= require_int(position, "pair position") < math.comb(len(self.carrier), 2):
            raise ContractError(f"no pair at position {position}")
        return Orientation(self.carrier, self.bits ^ (1 << position))

    def choices(self) -> Iterator[tuple[Label, Label]]:
        """(unchosen, chosen) per pair, in pair order, as a lazy iterator."""
        pairs = itertools.combinations(self.carrier.elements, 2)
        bits = format(self.bits, "b").zfill(math.comb(len(self.carrier), 2))[::-1]
        return ((a, b) if bit == "1" else (b, a) for (a, b), bit in zip(pairs, bits))


def canonical_orientation(X: LabeledSet) -> Orientation:
    """The orientation choosing the larger element of every pair."""
    if len(X) < 2:
        raise TooSmall("orientations need a carrier with at least 2 points")
    return Orientation(X, (1 << math.comb(len(X), 2)) - 1)


def all_orientations(X: LabeledSet):
    """Every orientation of X, in increasing bitmask order."""
    for bits in range(1 << math.comb(len(X), 2)):
        yield Orientation(X, bits)


def relative_inversions(u: Orientation, v: Orientation) -> int:
    """Number of pairs on which two orientations disagree."""
    if u.carrier != v.carrier:
        raise CarrierMismatch("orientations live over different carriers")
    return (u.bits ^ v.bits).bit_count()


_FLIP = {"0": "1", "1": "0"}


def orientation_action(e: Bijection, u: Orientation) -> Orientation:
    """Transport an orientation along a bijection of carriers.

    The pair {a, b} of the codomain, a < b, chooses b exactly when u chooses
    the preimage of b: the bit of the preimage pair, flipped when e reverses
    its order.  Labels are handled by position: preimage[j] is the domain
    position of the preimage of the j-th codomain label, and the pair at
    positions x < y of n points is bit row[x] + y, row[x] = x*(2n-x-3)//2 - 1.
    The source bits are read once as a binary string and the result is
    assembled once: O(n^2) for n points, about 0.1 s at n = 1024 (523 776
    pairs) on a 2-vCPU x86-64 VM.
    """
    if u.carrier != e.domain:
        raise CarrierMismatch("orientation does not live over the domain of the map")
    n = len(e.domain)
    preimage = [e.domain.position(x) for x in e.inverse().images]
    row = [x * (2 * n - x - 3) // 2 - 1 for x in range(n)]
    source = format(u.bits, "b").zfill(math.comb(n, 2))[::-1]  # source[k] is bit k
    chosen = [
        source[row[x] + y] if x < y else _FLIP[source[row[y] + x]]
        for k, x in enumerate(preimage)
        for y in preimage[k + 1 :]
    ]
    return Orientation(e.codomain, int("".join(reversed(chosen)) or "0", 2))


def orientation_class(u: Orientation) -> Label:
    """Parity class relative to the canonical orientation of the carrier."""
    return relative_inversions(u, canonical_orientation(u.carrier)) % 2


def orientation_representative(X: LabeledSet, label: Label) -> Orientation:
    d = canonical_orientation(X)
    return d if Sign.from_fin2(label) is PLUS else d.flip(0)


# --------------------------------------------------------------------------
# Charts modulo parity (and their signed variant).

def simpson_class(f: Bijection) -> Label:
    """0 when f has even parity relative to the order-preserving chart."""
    h0 = order_bijection(f.codomain)
    return sign_inversions(f.then(h0.inverse())).fin2


def simpson_representative(X: LabeledSet, label: Label) -> Bijection:
    rep = order_bijection(X)
    if Sign.from_fin2(label) is MINUS:
        rep = transposition(len(X), 0, 1).then(rep)
    return rep


def orbit_class(h: Bijection, s: Sign) -> Label:
    """Orbit label of a (chart, sign) pair under twisted precomposition."""
    h0 = order_bijection(h.codomain)
    return (sign_inversions(h.then(h0.inverse())) * s).fin2


def orbit_representative(X: LabeledSet, label: Label) -> tuple[Bijection, Sign]:
    return order_bijection(X), Sign.from_fin2(label)


# --------------------------------------------------------------------------
# Equivariant sign-valued functions on charts.

@dataclass(frozen=True)
class FixedPointElement:
    """An equivariant function from charts fin(n) = X to {+1, -1}.

    Stored as a reference chart plus the value taken there; the full table
    follows from equivariance: value_at(h) = parity(reference relative to h)
    times the reference value.  Any two parameterizations of the same
    function agree on every chart.
    """

    reference: Bijection
    value_at_reference: Sign

    def value_at(self, h: Bijection) -> Sign:
        return sign_inversions(h.then(self.reference.inverse())) * self.value_at_reference

    def transport(self, e: Bijection) -> "FixedPointElement":
        """Push forward along a bijection of the underlying carriers."""
        if e.domain != self.reference.codomain:
            raise CarrierMismatch("element does not live over the domain of the map")
        return FixedPointElement(self.reference.then(e), self.value_at_reference)


def fixed_point_elements(X: LabeledSet) -> tuple[FixedPointElement, FixedPointElement]:
    """The two equivariant functions over X; index 0 is the +1 one."""
    h0 = order_bijection(X)
    return FixedPointElement(h0, PLUS), FixedPointElement(h0, MINUS)


def fixed_point_class(elem: FixedPointElement) -> Label:
    X = elem.reference.codomain
    return elem.value_at(order_bijection(X)).fin2


# --------------------------------------------------------------------------
# The family abstraction and the four constructions.

@dataclass(frozen=True, eq=False)
class TwoElementFamily:
    """A two-element fiber over every n-element set, transported functorially.

    The fiber over every carrier is CLASS_LABELS = fin(2); action(e) is the
    bijection of CLASS_LABELS that carries the fiber over e.domain to the
    fiber over e.codomain; base_point is the label over fin(arity) charted
    to +1; construction is the record the family was built from, None for
    mutants and hand-built families.
    """

    name: str
    arity: int
    action: Callable[[Bijection], Bijection]
    base_point: Label
    construction: Construction | None = None

    def chart(self, label: Label) -> Sign:
        if label not in CLASS_LABELS:
            raise ContractError(f"{label!r} is not in the fiber over fin({self.arity})")
        return PLUS if label == self.base_point else MINUS

    def chart_inverse(self, s: Sign) -> Label:
        return self.base_point if s is PLUS else 1 - self.base_point


@dataclass(frozen=True)
class Construction:
    """One sign delooping: elements over each carrier modulo two classes.

    elements(X) enumerates every element over the carrier X;
    representative(X, c) is an element of class c (class 0 holds the
    canonical one); transport(e, x) pushes an element over e.domain to one
    over e.codomain; classify(x) is the class label of x.

    Calling a construction with n gives its family over n-element carriers.
    The action transports a representative of each class along the
    bijection and reads off the class of the result.  Class images (0, 1)
    and (1, 0) give the shared FIBER_IDENTITY and FIBER_SWAP; any other
    images go through the validating Bijection constructor, which raises
    ContractError when both classes land on one label.

    Each family keeps its own table of actions over fin(n), keyed by the
    image tuple of the permutation; a bijection with another domain or
    codomain is computed afresh every time.  The table is sound because an
    action is a pure function of e: transport, representative and classify
    compute from their arguments alone, so a permutation of fin(n) acts the
    same way on every call.  The table belongs to one family: a family
    built after a function is rebound, such as cartier's
    orientation_action, starts with an empty one.
    """

    name: str
    elements: Callable[[LabeledSet], Iterable]
    representative: Callable[[LabeledSet, Label], object]
    transport: Callable[[Bijection, object], object]
    classify: Callable[[object], Label]

    def __call__(self, n: int) -> TwoElementFamily:
        if require_int(n, "arity") < 2:
            raise ArityTooSmall(f"{self.name} family needs arity >= 2")

        base = fin(n)
        table: dict[tuple[Label, ...], Bijection] = {}

        def action(e: Bijection) -> Bijection:
            over_base = e.domain == base and e.codomain == base
            acted = table.get(e.images) if over_base else None
            if acted is None:
                # A Bijection's codomain has as many labels as its domain.
                if len(e.domain) != n:
                    raise ArityMismatch(
                        f"expected a {n}-element set, got {len(e.domain)} elements"
                    )
                images = tuple(
                    self.classify(self.transport(e, self.representative(e.domain, c)))
                    for c in (0, 1)
                )
                # True and 1.0 hash like 1; they reach the validating constructor.
                acted = FIBER_MAPS.get(images) if set(map(type, images)) == {int} else None
                if acted is None:
                    acted = Bijection(CLASS_LABELS, CLASS_LABELS, images)
                if over_base:
                    table[e.images] = acted
            return acted

        return TwoElementFamily(self.name, n, action, base_point=0, construction=self)

    def census(self, X: LabeledSet) -> list[int]:
        """Class sizes over X, counted over every element."""
        counts = [0, 0]
        for x in self.elements(X):
            counts[self.classify(x)] += 1
        return counts


def _charts(X: LabeledSet) -> tuple[Bijection, ...]:
    return enumerate_bijections(fin(len(X)), X)


# Orientations modulo disagreement parity; sign-free by construction.
cartier_delooping = Construction(
    "cartier",
    all_orientations,
    orientation_representative,
    # Looked up by name at call time, so a rebound orientation_action is used
    # for every action not yet in the family's table.
    lambda e, u: orientation_action(e, u),
    orientation_class,
)

# Charts modulo even relative parity.
simpson_delooping = Construction(
    "simpson",
    _charts,
    simpson_representative,
    lambda e, f: f.then(e),
    simpson_class,
)

# (chart, sign) pairs modulo the twisted precomposition action.
orbit_delooping = Construction(
    "orbit",
    lambda X: ((h, s) for h in _charts(X) for s in (PLUS, MINUS)),
    orbit_representative,
    lambda e, pair: (pair[0].then(e), pair[1]),
    lambda pair: orbit_class(*pair),
)

# Equivariant sign-valued functions on charts, in every reference form.
fixed_point_delooping = Construction(
    "fixed",
    lambda X: (FixedPointElement(h, s) for h in _charts(X) for s in (PLUS, MINUS)),
    lambda X, c: FixedPointElement(order_bijection(X), Sign.from_fin2(c)),
    lambda e, elem: elem.transport(e),
    fixed_point_class,
)

# The benchmark's tracer swaps these values for plain wrapper functions, so
# callers only call them with n and reach the record via family.construction.
CONSTRUCTIONS: dict[str, Callable[[int], TwoElementFamily]] = {
    c.name: c
    for c in (fixed_point_delooping, orbit_delooping, simpson_delooping, cartier_delooping)
}


# --------------------------------------------------------------------------
# Exhaustive census of equivariant tables (the independent oracle).

# The census scans 2^(n!) masks: 2^24 at n = 4, 2^120 beyond.
CENSUS_BOUND = 4


def exhaustive_fixed_points(n: int) -> list[dict[Bijection, Sign]]:
    """Scan all 2^(n!) sign-valued tables on permutations and keep the ones
    fixed by every generator of the twisted action.

    Table k sends the i-th permutation to -1 when bit i of k is set.  A
    generator g sends f to h -> -f(h o g), so k is fixed exactly when bit i
    differs from bit j_g(i) for every i, j_g being the index permutation
    h -> h o g.  The scan is bit-sliced: bit k of `alive` stands for table
    k, column i holds bit i of every k, and `alive &= col[i] ^ col[j_g(i)]`
    tests every table at once.  Adjacent transpositions generate, so
    fixedness under them is fixedness under the whole action.  Survivors
    are read off in ascending k.
    """
    if n > CENSUS_BOUND:
        raise SizeGuard(f"census scans 2^(n!) tables; bound is n <= {CENSUS_BOUND}")
    base = fin(n)
    perms = enumerate_bijections(base, base)
    m = len(perms)
    position = {p.images: i for i, p in enumerate(perms)}
    full = (1 << (1 << m)) - 1
    width = max(1, (1 << m) >> 3)  # bytes, 8 masks each
    # Bit i of k, byte by byte: 0xAA, 0xCC, 0xF0, then runs of 2^(i-3) 0x00s and 0xFFs.
    runs = (1 << k for k in range(m - 3))
    col = [
        int.from_bytes(p * (width // len(p)), "little") & full
        for p in [b"\xaa", b"\xcc", b"\xf0", *(bytes(r) + b"\xff" * r for r in runs)][:m]
    ]
    alive = full
    for g in (transposition(n, i, i + 1) for i in range(n - 1)):
        for i, p in enumerate(perms):
            alive &= col[i] ^ col[position[g.then(p).images]]
    tables = []
    while alive:
        mask = (alive & -alive).bit_length() - 1
        alive &= alive - 1
        tables.append(
            {p: (MINUS if (mask >> i) & 1 else PLUS) for i, p in enumerate(perms)}
        )
    return tables


# --------------------------------------------------------------------------
# Sign extraction, recognition, and uniqueness.

def sign_from_delooping(Q: TwoElementFamily, e: Bijection) -> Sign:
    """+1 exactly when the action of e fixes the charted base point."""
    base = fin(Q.arity)
    if e.domain != base or e.codomain != base:
        raise ArityMismatch(f"expected a permutation of fin({Q.arity})")
    return PLUS if Q.action(e)(Q.base_point) == Q.base_point else MINUS


@dataclass(frozen=True)
class RecognitionReport:
    """Results of the three decidable recognition conditions.

    For genuine families the booleans always co-vary: either all hold (the
    family is a delooping) or none do.  counterexample carries a witness
    permutation when some condition fails.
    """

    condition3_surjective: bool
    condition4_transpositions_swap: bool
    condition5_sign_matches: bool
    counterexample: Bijection | None = None

    @property
    def booleans(self) -> tuple[bool, bool, bool]:
        return (
            self.condition3_surjective,
            self.condition4_transpositions_swap,
            self.condition5_sign_matches,
        )

    @property
    def is_delooping(self) -> bool:
        return all(self.booleans)

    @property
    def consistent(self) -> bool:
        return len(set(self.booleans)) == 1


def unswapped_transposition(Q: TwoElementFamily) -> Bijection | None:
    """Condition 4's scan: the first transposition of fin(arity) that does
    not act as the swap, or None."""
    base = fin(Q.arity)
    transpositions = (transposition_of_pair(base, P) for P in k_subsets(base, 2))
    return next((t for t in transpositions if Q.action(t) != FIBER_SWAP), None)


def sign_mismatch(Q: TwoElementFamily, perms: Iterable[Bijection]) -> Bijection | None:
    """Condition 5's scan: the first of perms, the permutations of
    fin(arity), whose extracted sign differs from its inversion-count sign,
    or None."""
    return next((e for e in perms if sign_from_delooping(Q, e) != sign_inversions(e)), None)


def check_recognition(Q: TwoElementFamily) -> RecognitionReport:
    """Decide, by exhaustion over fin(arity), whether a family deloops the sign.

    condition 3: some permutation acts non-trivially on the base fiber;
    condition 4: every transposition acts as the swap;
    condition 5: the extracted sign agrees with the inversion-count sign
    on every permutation.
    """
    base = fin(Q.arity)
    perms = enumerate_bijections(base, base)
    cond3 = any(Q.action(e) != FIBER_IDENTITY for e in perms)
    bad_swap = unswapped_transposition(Q)
    bad_sign = sign_mismatch(Q, perms)
    cond4 = bad_swap is None
    cond5 = bad_sign is None
    witness = None
    if not (cond3 and cond4 and cond5):
        witness = bad_swap or bad_sign
        if witness is None and len(base) >= 2:
            witness = transposition_of_pair(base, k_subsets(base, 2)[0])
    return RecognitionReport(cond3, cond4, cond5, witness)


def mutate_family(Q: TwoElementFamily, rng: Random) -> TwoElementFamily:
    """A random functorial deformation of a family.

    Deformations: trivialize the action, conjugate every fiber by a
    pseudorandom involution, and/or flip the chart.  All deformations stay
    inside the space of genuine functorial two-element families, which is
    exactly the space where the recognition booleans must co-vary.
    """
    trivialize = rng.random() < 0.4
    salt = rng.randrange(1 << 30) if rng.random() < 0.7 else None
    flip_chart = rng.random() < 0.5

    def twist(X: LabeledSet) -> Bijection:
        if salt is not None and (hash((salt,) + X.elements) >> 3) & 1:
            return FIBER_SWAP
        return FIBER_IDENTITY

    def action(e: Bijection) -> Bijection:
        # twist(X)^-1 then core then twist(Y): each twist is its own inverse
        # and S_2 is abelian, so equal twists cancel and unequal ones swap.
        core = FIBER_IDENTITY if trivialize else Q.action(e)
        return core if twist(e.domain) is twist(e.codomain) else core.then(FIBER_SWAP)

    base_point = 1 - Q.base_point if flip_chart else Q.base_point
    tags = [
        tag
        for tag, on in (
            ("trivial", trivialize),
            ("twist", salt is not None),
            ("flip", flip_chart),
        )
        if on
    ]
    name = f"{Q.name}/mutant[{','.join(tags) or 'none'}]"
    return TwoElementFamily(name, Q.arity, action, base_point)


def natural_isomorphism(
    Q: TwoElementFamily,
    Qp: TwoElementFamily,
    squares: int = 50,
    seed: int = 0,
) -> Callable[[LabeledSet], Bijection]:
    """The fiber map X -> (bijection of CLASS_LABELS) of the unique
    base-point-preserving natural isomorphism between two deloopings.

    Over fin(n) the bijection matches charts; over any other carrier it is
    transported along the order-preserving chart (any chart gives the same
    answer since both families realize the same sign action).  The function
    verifies naturality on seeded random squares and verifies uniqueness by
    checking that flipping the bijection on one fiber breaks a square.
    """
    require_natural(squares, "square count")
    if Q.arity != Qp.arity:
        raise ArityMismatch("families have different arities")
    for fam in (Q, Qp):
        if not check_recognition(fam).is_delooping:
            raise NotADelooping(f"{fam.name} fails recognition")
    n = Q.arity
    base = fin(n)
    phi0 = Bijection(
        CLASS_LABELS,
        CLASS_LABELS,
        tuple(Qp.chart_inverse(Q.chart(x)) for x in CLASS_LABELS),
    )

    def at(X: LabeledSet) -> Bijection:
        h = order_bijection(X)
        return Q.action(h).inverse().then(phi0).then(Qp.action(h))

    rng = Random(seed)

    def sample_set() -> LabeledSet:
        return base if rng.random() < 0.25 else random_labeled_set(rng, n)

    for _ in range(squares):
        X, Y = sample_set(), sample_set()
        e = random_bijection(rng, X, Y)
        if Q.action(e).then(at(Y)) != at(X).then(Qp.action(e)):
            raise NaturalityFailure("family is not natural", square=(X, Y, e))
    for _ in range(4):
        X, Y = sample_set(), sample_set()
        e = random_bijection(rng, X, Y)
        flipped = at(X).then(FIBER_SWAP)
        if Q.action(e).then(at(Y)) == flipped.then(Qp.action(e)):
            raise NaturalityFailure(
                "flipped fiber map is also natural; uniqueness violated",
                square=(X, Y, e),
            )
    return at


def alternating_kernel(n: int) -> tuple[Bijection, ...]:
    """All permutations of fin(n) with sign +1, in enumeration order."""
    if n < 2:
        raise ArityTooSmall("the kernel is only materialized for n >= 2")
    base = fin(n)
    return tuple(
        e for e in enumerate_bijections(base, base) if sign_inversions(e) is PLUS
    )
