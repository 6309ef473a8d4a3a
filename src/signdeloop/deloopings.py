"""Functorial two-element families over concrete finite sets.

Four constructions each assign to every n-element labeled set a two-element
fiber together with a transport bijection along any relabeling, and a chart
identifying the fiber over fin(n) with {+1, -1}:

* fixed_point_delooping - the sign-valued functions on charts that the
  action twisted by the sign fixes: exactly two, each held as its value at
  the order chart.
* orbit_delooping - pairs (chart, sign) modulo precomposition twisted by
  the sign; exactly two orbits.
* simpson_delooping - charts modulo "even relative parity"; exactly two
  classes of equal size.
* cartier_delooping - orientations of the complete graph modulo parity of
  their disagreement count; the only construction that never consults
  permutation parity, which is what makes the sign-agreement checks here
  meaningful rather than circular.

Every fiber is S_2 = {+1, -1} itself, as the two Signs: PLUS always names
the class of the construction's documented canonical representative over
the given carrier, and a fiber map is multiplication by a Sign, PLUS
keeping each class and MINUS swapping them.  So the action of a
permutation of fin(n) is its sign: it fixes the charted base point
exactly when it acts as PLUS.

Each construction is declared once, as a Construction record listing its
elements, a representative per class, transport and classification; its
family, class census and projection squares are all derived from that record.
orbit and fixed are the recipes orbit_recipe(phi) and fixed_recipe(phi) of
a homomorphism phi from charts to Signs, applied here at the sign, chart_sign.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
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
    ENUMERATION_BOUND,
    Bijection,
    Label,
    LabeledSet,
    enumerate_bijections,
    fin,
    k_subsets,
    order_bijection,
    random_bijection,
    random_labeled_set,
    require_int,
    require_natural,
    symmetric_group,
)
from .perms import MINUS, PLUS, Sign, chart_sign, sign_inversions, transposition


def _require_sign(value, what: str = "class") -> Sign:
    """Return value when it is a Sign, else raise ContractError."""
    if not isinstance(value, Sign):
        raise ContractError(f"{what} must be a Sign, got {value!r}")
    return value


# --------------------------------------------------------------------------
# Orientations of the complete graph on a labeled set.

@dataclass(frozen=True)
class Orientation:
    """One chosen element per 2-element subset of the carrier.

    Encoded as a bitmask over the lexicographically sorted pairs: bit k set
    means the larger element of pair k is chosen.  Over an n-point carrier
    the pair at positions x < y is pair k = x*(2n-x-3)//2 - 1 + y.  The
    public constructor validates the carrier and the bits; code whose bits
    fit the carrier's pairs by construction builds through _trusted:
    all_orientations, canonical_orientation, flip (once its position is
    checked), orientation_action and verify's sampled triangle law.
    """

    carrier: LabeledSet
    bits: int

    def __post_init__(self):
        if not isinstance(self.carrier, LabeledSet):
            raise ContractError(f"orientation carrier must be a LabeledSet, got {self.carrier!r}")
        width = math.comb(len(self.carrier), 2)
        if not 0 <= require_int(self.bits, "orientation bits") < (1 << width):
            raise ContractError(
                f"orientation needs {width} bits, got {self.bits!r}"
            )

    @classmethod
    def _trusted(cls, carrier: LabeledSet, bits: int) -> "Orientation":
        """An Orientation from bits already known to fit the carrier's pairs."""
        u = object.__new__(cls)
        fields = u.__dict__
        fields["carrier"] = carrier
        fields["bits"] = bits
        return u

    def flip(self, position: int) -> "Orientation":
        """Reverse the choice at one pair position."""
        if not 0 <= require_int(position, "pair position") < math.comb(len(self.carrier), 2):
            raise ContractError(f"no pair at position {position}")
        return Orientation._trusted(self.carrier, self.bits ^ (1 << position))

    def choices(self) -> Iterator[tuple[Label, Label]]:
        """(unchosen, chosen) per pair, in pair order, as a lazy iterator."""
        pairs = itertools.combinations(self.carrier.elements, 2)
        bits = format(self.bits, "b").zfill(math.comb(len(self.carrier), 2))[::-1]
        return ((a, b) if bit == "1" else (b, a) for (a, b), bit in zip(pairs, bits))


def _canonical_bit_count(X: LabeledSet) -> int:
    """The pair count of X, every one of which the canonical orientation sets."""
    if len(X.elements) < 2:
        raise TooSmall("orientations need a carrier with at least 2 points")
    return math.comb(len(X.elements), 2)


def canonical_orientation(X: LabeledSet) -> Orientation:
    """The orientation choosing the larger element of every pair."""
    return Orientation._trusted(X, (1 << _canonical_bit_count(X)) - 1)


def all_orientations(X: LabeledSet):
    """Every orientation of X, in increasing bitmask order."""
    for bits in range(1 << math.comb(len(X), 2)):
        yield Orientation._trusted(X, bits)


def relative_inversions(u: Orientation, v: Orientation) -> int:
    """Number of pairs on which two orientations disagree."""
    if u.carrier is not v.carrier and u.carrier != v.carrier:
        raise CarrierMismatch("orientations live over different carriers")
    return (u.bits ^ v.bits).bit_count()


_FLIP = str.maketrans("01", "10")


def orientation_action(e: Bijection, u: Orientation) -> Orientation:
    """Transport an orientation along a bijection of carriers.

    The pair {a, b} of the codomain, a < b, chooses b exactly when u chooses
    the preimage of b: the bit of the preimage pair, flipped when e reverses
    its order.  Labels are handled by position, so the transported bits
    depend on e's positions and u's bits alone (_transported_bits).  Keys of
    at most ENUMERATION_BOUND points are kept in a cache of 1024 entries;
    larger ones are transported afresh on every call.  A run transports few
    distinct keys many times over: cartier's two representatives along the
    permutations of its checks, 240 keys and 2 944 hits in
    run_verification(5, "all", 1000), where n = 7 misses on most (237 hits
    in 2 685 transports).  run_verification(5, "all", 101) took 0.110 s
    without the cache and 0.098 s with it, faster in 9 of 10 pairs, and at
    n = 7 0.130 s either way (medians of 10 alternating fresh-process pairs
    on a 2-vCPU x86-64 VM).
    """
    if u.carrier is not e.domain and u.carrier != e.domain:
        raise CarrierMismatch("orientation does not live over the domain of the map")
    positions = e.positions
    if len(positions) > ENUMERATION_BOUND:
        bits = _transported_bits.__wrapped__(positions, u.bits)
    else:
        bits = _transported_bits(positions, u.bits)
    return Orientation._trusted(e.codomain, bits)


@lru_cache(maxsize=1024)
def _transported_bits(positions: tuple[int, ...], bits: int) -> int:
    """The bits of an orientation transported along the positions of a map.

    preimage[j] is the domain position of the preimage of the j-th codomain
    label, scattered from the positions without building an inverse, and
    the pair at positions x < y of n points is bit row[x] + y,
    row[x] = x*(2n-x-3)//2 - 1.  The source bits are read once as a binary
    string and once flipped, and the result is assembled once: O(n^2) for
    n points, about 0.1 s at n = 1024 (523 776 pairs) on a 2-vCPU x86-64 VM.
    """
    n = len(positions)
    preimage = [0] * n
    for i, j in enumerate(positions):
        preimage[j] = i
    row = [x * (2 * n - x - 3) // 2 - 1 for x in range(n)]
    source = format(bits, f"0{math.comb(n, 2)}b")[::-1]  # source[k] is bit k
    flipped = source.translate(_FLIP)
    chosen = [
        source[row[x] + y] if x < y else flipped[row[y] + x]
        for x, y in itertools.combinations(preimage, 2)
    ]
    return int("".join(chosen)[::-1] or "0", 2)


def orientation_class(u: Orientation) -> Sign:
    """Parity class relative to the canonical orientation of the carrier.

    The canonical orientation sets every bit, so u disagrees with it on
    exactly the pairs u leaves clear.
    """
    return MINUS if (_canonical_bit_count(u.carrier) - u.bits.bit_count()) % 2 else PLUS


def orientation_representative(X: LabeledSet, s: Sign) -> Orientation:
    d = canonical_orientation(X)
    return d if _require_sign(s) is PLUS else d.flip(0)


# --------------------------------------------------------------------------
# Charts modulo parity (and their signed variant).

def simpson_representative(X: LabeledSet, s: Sign) -> Bijection:
    rep = order_bijection(X)
    if _require_sign(s) is MINUS:
        rep = transposition(len(X), 0, 1).then(rep)
    return rep


def orbit_representative(X: LabeledSet, s: Sign) -> tuple[Bijection, Sign]:
    return order_bijection(X), _require_sign(s)


# --------------------------------------------------------------------------
# Equivariant sign-valued functions on charts.

@dataclass(frozen=True)
class FixedPointElement:
    """A function from charts fin(n) = X to {+1, -1}, one of the two that
    fixed_recipe(phi) fixes, stored as its carrier and its value at the order
    chart: at a chart h it is phi(h) * value, its transport's along h.  The
    constructor checks that carrier is a LabeledSet and value a Sign.
    """

    carrier: LabeledSet
    value: Sign

    def __post_init__(self):
        if not isinstance(self.carrier, LabeledSet):
            raise ContractError(f"carrier must be a LabeledSet, got {self.carrier!r}")
        _require_sign(self.value, "value at the order chart")


# --------------------------------------------------------------------------
# The family abstraction and the four constructions.

@dataclass(frozen=True, eq=False)
class TwoElementFamily:
    """A two-element fiber over every n-element set, transported functorially.

    The fiber over every carrier is {PLUS, MINUS}; action(e) is the Sign
    that carries the fiber over e.domain to the fiber over e.codomain by
    multiplication, PLUS keeping each class and MINUS swapping them;
    base_point is the class over fin(arity) charted to +1, so the chart is
    multiplication by it; construction is the record the family was built
    from, None for hand-built families, such as the tests' deformations.
    """

    name: str
    arity: int
    action: Callable[[Bijection], Sign]
    base_point: Sign
    construction: Construction | None = None

    def __post_init__(self):
        _require_sign(self.base_point, "base point")


@dataclass(frozen=True)
class Construction:
    """One sign delooping: elements over each carrier modulo two classes.

    elements(X) enumerates every element over the carrier X;
    representative(X, s) is an element of the class s, a Sign (PLUS holds
    the canonical one); transport(e, x) pushes an element over e.domain to
    one over e.codomain; classify(x) is the class of x, a Sign.

    Calling a construction with n gives its family over n-element carriers.
    The action transports a representative of each class along the
    bijection and reads off the class of the result: the action is the
    class the PLUS representative lands in, and the MINUS representative
    must land in the other class, else ContractError.

    Each family keeps the last carrier it transported from, by identity,
    with its two representatives, and builds them anew only when a
    bijection's domain is another object: sound, as a representative is an
    immutable value computed from its carrier alone.
    """

    name: str
    elements: Callable[[LabeledSet], Iterable]
    representative: Callable[[LabeledSet, Sign], object]
    transport: Callable[[Bijection, object], object]
    classify: Callable[[object], Sign]

    def __call__(self, n: int) -> TwoElementFamily:
        if require_int(n, "arity") < 2:
            raise ArityTooSmall(f"{self.name} family needs arity >= 2")

        fin(n)  # refuses an arity no tuple can index
        held: list = [None, None, None]  # the last domain, its PLUS and MINUS representatives

        def action(e: Bijection) -> Sign:
            # A Bijection has as many positions as its domain and codomain have labels.
            if (size := len(e.positions)) != n:
                raise ArityMismatch(f"expected a {n}-element set, got {size} elements")
            if held[0] is not (X := e.domain):
                held[:] = X, self.representative(X, PLUS), self.representative(X, MINUS)
            acted = self.classify(self.transport(e, held[1]))
            swapped = self.classify(self.transport(e, held[2]))
            if swapped is not -_require_sign(acted):
                raise ContractError(f"the classes land in {acted!r} and {swapped!r}")
            return acted

        return TwoElementFamily(self.name, n, action, base_point=PLUS, construction=self)

    def census(self, X: LabeledSet) -> list[int]:
        """Class sizes over X, PLUS then MINUS, counted over every element."""
        counts = [0, 0]
        for x in self.elements(X):
            counts[self.classify(x) is MINUS] += 1
        return counts


def _charts(X: LabeledSet) -> tuple[Bijection, ...]:
    return enumerate_bijections(fin(len(X)), X)


# Orientations modulo disagreement parity; sign-free by construction.
cartier_delooping = Construction(
    "cartier",
    all_orientations,
    orientation_representative,
    # Looked up by name at call time, so a rebound orientation_action is used
    # by every family, however early it was built.
    lambda e, u: orientation_action(e, u),
    orientation_class,
)

# Charts modulo even relative parity.
simpson_delooping = Construction(
    "simpson",
    _charts,
    simpson_representative,
    lambda e, f: f.then(e),
    chart_sign,
)

def orbit_recipe(phi: Callable[[Bijection], Sign]) -> Construction:
    """(chart, sign) pairs modulo precomposition twisted by phi: the pair
    (h, s) is in the class phi(h) * s."""
    return Construction(
        "orbit",
        lambda X: ((h, s) for h in _charts(X) for s in (PLUS, MINUS)),
        orbit_representative,
        lambda e, pair: (pair[0].then(e), pair[1]),
        lambda pair: phi(pair[0]) * pair[1],
    )


def fixed_recipe(phi: Callable[[Bijection], Sign]) -> Construction:
    """The two sign-valued functions on charts that the action twisted by
    phi fixes.  Transport along e: X -> Y pushes f to f o e^-1, whose value
    at Y's order chart is f's at a chart that phi sends to phi(e^-1) = phi(e)."""

    def transport(e: Bijection, f: FixedPointElement) -> FixedPointElement:
        if e.domain is not (X := f.carrier) and e.domain != X:
            raise CarrierMismatch("element does not live over the domain of the map")
        return FixedPointElement(e.codomain, phi(e) * f.value)

    return Construction(
        "fixed",
        lambda X: (FixedPointElement(X, PLUS), FixedPointElement(X, MINUS)),
        FixedPointElement,
        transport,
        lambda f: f.value,
    )


orbit_delooping = orbit_recipe(chart_sign)
fixed_point_delooping = fixed_recipe(chart_sign)

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

# The census decides 2^_BLOCK_BITS tables at a time (fewer when n! is smaller).
_BLOCK_BITS = 16


def _column(i: int, width: int) -> int:
    """The width-bit integer whose bit t is bit i of t, for 2^(i+1) <= width:
    a period of 2^i clear bits and 2^i set bits, doubled until it fills."""
    column, period = ((1 << (1 << i)) - 1) << (1 << i), 2 << i
    while period < width:
        column |= column << period
        period <<= 1
    return column


def exhaustive_fixed_points(group: tuple) -> list[tuple[Sign, ...]]:
    """Scan all 2^(n!) sign-valued tables on the listing group of S_n, and
    no sign, and keep the ones fixed by every generator of the twisted action.

    Table k sends the i-th permutation to -1 when bit i of k is set.  A
    generator g sends f to h -> -f(h o g), so k is fixed exactly when bit i
    differs from bit j_g(i) for every i, j_g being the index permutation
    h -> h o g.  Adjacent transpositions generate, so fixedness under them
    is fixedness under the whole action.  The condition is symmetric in i
    and j, and j_g is a fixed-point-free involution, so the n!(n-1)
    conditions fold to half as many pairs i < j: 36 at n = 4.

    The scan is bit-sliced over blocks of 2^b tables, b = min(16, n!): block
    B holds tables k = B * 2^b + t, and bit t of `alive` stands for table k,
    so each `alive &= bits[i] ^ bits[j]` tests a whole block against one
    pair.  For i < b, bits[i] is column i, whose bit t is bit i of t in
    every block, so the pairs with j < b are ANDed once into `low`, where
    each block starts.  For i >= b, bit i of k is bit i - b of B, so bits[i]
    is all ones or zero over the block.  Every table still meets every pair;
    a block already at zero skips its remaining ANDs.  At n = 4 a block is
    8 KiB, and the scan traces under 1 MiB.  Survivors are read off block by
    block and bit by bit, in ascending k, each as a tuple of Signs aligned
    with the listing, as a run's signs are.
    """
    n, m = len(group[0].positions), len(group)  # group[0] is the identity
    if n > CENSUS_BOUND:
        raise SizeGuard(f"census scans 2^(n!) tables; bound is n <= {CENSUS_BOUND}")
    position = {p.positions: i for i, p in enumerate(group)}
    pairs = {
        tuple(sorted((i, position[g.then(p).positions])))
        for g in (transposition(n, a, a + 1) for a in range(n - 1))
        for i, p in enumerate(group)
    }
    b = min(_BLOCK_BITS, m)
    full = (1 << (1 << b)) - 1
    columns = [_column(i, 1 << b) for i in range(b)]
    low = full
    high = []
    for i, j in sorted(pairs):
        if j < b:
            low &= columns[i] ^ columns[j]
        else:
            high.append((i, j))
    tables = []
    for block in range(1 << (m - b)):
        bits = columns + [full if (block >> (i - b)) & 1 else 0 for i in range(b, m)]
        alive = low
        for i, j in high:
            if not alive:
                break
            alive &= bits[i] ^ bits[j]
        while alive:
            t = (alive & -alive).bit_length() - 1
            alive &= alive - 1
            mask = (block << b) | t
            tables.append(tuple(MINUS if (mask >> i) & 1 else PLUS for i in range(m)))
    return tables


# --------------------------------------------------------------------------
# Sign extraction, recognition, and uniqueness.

def sign_from_delooping(Q: TwoElementFamily, e: Bijection) -> Sign:
    """+1 exactly when the action of e fixes the charted base point, that
    is, when the action is PLUS."""
    base, X, Y = fin(Q.arity), e.domain, e.codomain
    if not ((X is base or X == base) and (Y is base or Y == base)):
        raise ArityMismatch(f"expected a permutation of fin({Q.arity})")
    return Q.action(e)


@dataclass(frozen=True)
class RecognitionReport:
    """Results of the three decidable recognition conditions.

    For genuine families the booleans always co-vary: either all hold (the
    family is a delooping) or none do.  When some condition fails,
    counterexample is the first transposition that does not swap, else the
    first permutation whose sign disagrees.  Only at arity 1, where the
    trivial action fails condition 3 alone, is there neither.
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
    n = Q.arity
    transpositions = (transposition(n, a, b) for a, b in k_subsets(fin(n), 2))
    return next((t for t in transpositions if Q.action(t) is not MINUS), None)


def sign_mismatch(Q: TwoElementFamily, group: tuple, signs: tuple) -> Bijection | None:
    """Condition 5's scan: the first permutation of the listing group of
    S_arity whose extracted sign differs from its sign in signs, or None."""
    return next((e for e, s in zip(group, signs) if sign_from_delooping(Q, e) is not s), None)


def check_recognition(Q: TwoElementFamily, group: tuple, signs: tuple) -> RecognitionReport:
    """Decide, by exhaustion over the caller's listing group of S_arity and
    signs, the inversion sign of each of its permutations in order, whether
    a family deloops the sign.

    condition 3: some permutation acts non-trivially on the base fiber;
    condition 4: every transposition acts as the swap (unswapped_transposition);
    condition 5: the extracted sign agrees with signs on every permutation (sign_mismatch).
    """
    cond3 = any(Q.action(e) is not PLUS for e in group)
    bad_swap, bad_sign = unswapped_transposition(Q), sign_mismatch(Q, group, signs)
    cond4, cond5 = bad_swap is None, bad_sign is None
    witness = None if cond3 and cond4 and cond5 else bad_swap or bad_sign
    return RecognitionReport(cond3, cond4, cond5, witness)


@lru_cache(maxsize=len(CONSTRUCTIONS))
def _naturality_signs(
    Q: TwoElementFamily, squares: int, seed: int
) -> tuple[tuple[tuple[LabeledSet, LabeledSet, Bijection], ...], tuple[Sign, ...]]:
    """Recognize Q over its own listing of S_arity, then draw `squares`
    squares (X, Y, e) from Random(seed) and sign each
    Q(e) * Q(h_X) * Q(h_Y), h_Z being Z's order chart.

    Kept per family for as many families as there are constructions, so
    verify's 16 natural isomorphisms list, recognize and square each of its
    4 families once; a later run's families are new keys.
    """
    n = Q.arity
    group = symmetric_group(n)
    if not check_recognition(Q, group, tuple(map(sign_inversions, group))).is_delooping:
        raise NotADelooping(f"{Q.name} fails recognition")
    base = fin(n)
    rng = Random(seed)

    def sample_set() -> LabeledSet:
        return base if rng.random() < 0.25 else random_labeled_set(rng, n)

    drawn = []
    for _ in range(squares):
        X, Y = sample_set(), sample_set()
        drawn.append((X, Y, random_bijection(rng, X, Y)))
    act = Q.action
    signs = tuple(
        act(e) * act(order_bijection(X)) * act(order_bijection(Y)) for X, Y, e in drawn
    )
    return tuple(drawn), signs


def natural_isomorphism(
    Q: TwoElementFamily,
    Qp: TwoElementFamily,
    squares: int = 50,
    seed: int = 0,
) -> Callable[[LabeledSet], Sign]:
    """The fiber map X -> Sign of the unique base-point-preserving natural
    isomorphism between two deloopings: over X it multiplies Q's fiber into
    Qp's by that Sign.

    Over fin(n) it matches charts, Q.base_point * Qp.base_point; over any
    other carrier it is transported along the order-preserving chart (any
    chart gives the same answer since both families realize the same sign
    action).  The function verifies naturality on seeded random squares;
    uniqueness is forced: the base point fixes the value over fin(n), and
    naturality along X's order chart fixes it over X.

    The square (X, Y, e) commutes when Q(e) * at(Y) is at(X) * Qp(e).  As
    at(Z) = Q(h_Z) * phi0 * Qp(h_Z) and Signs commute and square to PLUS,
    that is Q(e) * Q(h_X) * Q(h_Y) is Qp(e) * Qp(h_X) * Qp(h_Y): a sign per
    family, kept by _naturality_signs with the family's recognition, and
    NaturalityFailure names the first square in draw order whose signs
    differ.  The square count, the arities and the seed are checked before
    anything is looked up.
    """
    require_natural(squares, "square count")
    if Q.arity != Qp.arity:
        raise ArityMismatch("families have different arities")
    require_int(seed, "seed")  # a NaturalityFailure's square must replay
    drawn, left = _naturality_signs(Q, squares, seed)
    right = _naturality_signs(Qp, squares, seed)[1]
    if left != right:
        k = next(k for k, (s, t) in enumerate(zip(left, right)) if s is not t)
        raise NaturalityFailure("family is not natural", square=drawn[k])
    phi0 = Q.base_point * Qp.base_point

    def at(X: LabeledSet) -> Sign:
        h = order_bijection(X)
        return Q.action(h) * phi0 * Qp.action(h)

    return at


def alternating_kernel(group: tuple, signs: tuple) -> tuple[Bijection, ...]:
    """The permutations of the listing group of S_n whose sign is +1, in order."""
    if len(group) < 2:
        raise ArityTooSmall("the kernel is only materialized for n >= 2")
    return tuple(e for e, s in zip(group, signs) if s is PLUS)
