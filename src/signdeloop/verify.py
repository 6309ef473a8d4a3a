"""Runnable invariant suite backing the `verify` subcommand.

Each check compares an implementation path against an independent route:
exhaustive orbit expansion against the class-label shortcut, brute
enumeration against closed forms, transported computations against direct
ones.  Checks return (passed, detail), or for the rows that judge every
family on shared draws a judge that returns it per family, and the runner
wraps them with timing; failure details carry reproducible inputs (seed
and witness).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from operator import itemgetter
from random import Random
from typing import Callable, Iterator, Mapping, NamedTuple

from .cycles import (
    cycle_decompose,
    decompose_endofunction,
    recompose,
    recompose_endofunction,
)
from .deloopings import (
    CENSUS_BOUND,
    CONSTRUCTIONS,
    Orientation,
    RecognitionReport,
    TwoElementFamily,
    all_orientations,
    alternating_kernel,
    canonical_orientation,
    cartier_delooping,
    check_recognition,
    exhaustive_fixed_points,
    fixed_point_delooping,
    fixed_recipe,
    natural_isomorphism,
    orbit_delooping,
    orientation_action,
    relative_inversions,
    sign_mismatch,
    unswapped_transposition,
)
from .errors import ContractError, SizeGuard
from .finite import (
    ENUMERATION_BOUND,
    Bijection,
    LabeledSet,
    fin,
    identity,
    k_subsets,
    random_bijection,
    random_labeled_set,
    require_int,
    require_natural,
    symmetric_group,
    transposition_of_pair,
)
from .perms import (
    MINUS,
    PLUS,
    Sign,
    factor_into_transpositions,
    product_of_transpositions,
    sign_inversions,
    transposition,
)
from .quotients import partition_from_relation


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""
    duration: float = 0.0

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "duration": round(self.duration, 4),
        }


@dataclass
class VerifyReport:
    construction: str
    n: int
    seed: int
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "construction": self.construction,
            "n": self.n,
            "seed": self.seed,
            "passed": self.passed,
            "checks": [c.to_json() for c in self.checks],
        }


def _raised(exc: Exception) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def _run(report: VerifyReport, name: str, check: Callable[[], tuple[bool, str]]):
    start = time.perf_counter()
    try:
        passed, detail = check()
    except Exception as exc:  # a crash is a failure with the exception as witness
        passed, detail = False, _raised(exc)
    report.checks.append(
        CheckResult(name, passed, detail, time.perf_counter() - start)
    )


# --------------------------------------------------------------------------
# Oracles.

def expand_orbits(group: tuple) -> list[set[tuple[Bijection, Sign]]]:
    """The orbits of (identity, PLUS) and (identity, MINUS) under the moves
    (h, s) -> (h*tau, -s), tau any transposition, over the listing group.

    Independent of the class-label shortcut: the walk under all the moves
    colours the identity PLUS and each permutation -colour[p] from the edge
    that first reaches it.  An edge within one colour merges the orbits;
    moves that fail to generate S_n leave them smaller than n!.
    """
    base = group[0].domain
    moves = [transposition_of_pair(base, P).images for P in k_subsets(base, 2)]
    walk = cayley_walk(group, moves)
    colour = {walk[1][0]: PLUS}
    merged = False
    for p, _, q in cayley_edges(walk):
        if q not in colour:
            colour[q] = -colour[p]
        elif colour[q] is colour[p]:
            merged = True
    plus, minus = ({(group[p], t * c) for p, c in colour.items()} for t in (PLUS, MINUS))
    return [plus | minus] if merged else [plus, minus]


def kernel_closure(n: int, group: tuple, signs: tuple) -> tuple[bool, str]:
    """The even listing of S_n is A_n, a subgroup, proved by generation.

    The Cayley walk of the listing under the 3-cycles (0 1 i), 2 <= i < n,
    which generate A_n, must stay in the listing (a None step escapes it)
    and reach all of it.  A set holding the identity and closed under right
    multiplication by generators is the subgroup they generate, so this
    holds exactly when the listing is that subgroup, closed under products
    and inverses.  Each product is looked up in the listing, never judged
    by its sign, and the walk reads no parity.  A failure names the first
    escaping edge in walk order, else the first unreached permutation in
    listing order.
    """
    kernel = alternating_kernel(group, signs)
    moves = [tuple({0: 1, 1: i, i: 0}.get(k, k) for k in range(n)) for i in range(2, n)]
    walk = cayley_walk(kernel, moves)
    for p, i, q in cayley_edges(walk):
        if q is None:
            return False, f"product of {kernel[p].positions!r} and {moves[i]!r} escapes the kernel"
    if len(walk[1]) < len(kernel):
        k = min(set(range(len(kernel))).difference(walk[1]))
        return False, f"{kernel[k].positions!r} is not reached from the identity"
    return True, f"order {len(kernel)}"


def parity_triangle_holds(n: int, rng: Random, trials: int = 10_000) -> tuple[bool, str]:
    """Disagreement counts add mod 2 over any triple of orientations.

    For n <= 4 every ordered triple of the 2^width orientations is decided:
    each ordered pair's parity is computed once, bit k of rows[i] being the
    parity from pool[i] to pool[k].  For each (i, j) in product order, bit k
    of rows[i] ^ rows[j], flipped everywhere when bit j of rows[i] is set,
    marks the k that break the triple (i, j, k), so its lowest set bit is
    the first failing triple a triple-by-triple scan would report.  Beyond,
    seeded random triples are checked one by one.
    """
    require_natural(trials, "trial count")
    X = fin(n)
    width = n * (n - 1) // 2
    if n <= 4:
        pool = list(all_orientations(X))
        rows = [
            sum((relative_inversions(u, w) % 2) << k for k, w in enumerate(pool))
            for u in pool
        ]
        ones = (1 << len(pool)) - 1
        for i, j in itertools.product(range(len(pool)), repeat=2):
            bad = rows[i] ^ rows[j] ^ (ones if (rows[i] >> j) & 1 else 0)
            if bad:
                k = (bad & -bad).bit_length() - 1
                triple = (pool[i].bits, pool[j].bits, pool[k].bits)
                return False, f"triple {triple!r} breaks additivity"
        return True, "additive mod 2"
    for _ in range(trials):
        u, v, w = (Orientation._trusted(X, rng.getrandbits(width)) for _ in range(3))
        lhs = relative_inversions(u, w) % 2
        rhs = (relative_inversions(u, v) + relative_inversions(v, w)) % 2
        if lhs != rhs:
            return False, f"triple {(u.bits, v.bits, w.bits)!r} breaks additivity"
    return True, "additive mod 2"


def orientation_class_census(n: int) -> tuple[bool, str]:
    """Exhaustively classify all orientations of fin(n): two equal classes."""
    # Through the family, as for every record: see CONSTRUCTIONS.
    counts = cartier_delooping(n).construction.census(fin(n))
    width = n * (n - 1) // 2
    expected = 1 << (width - 1)
    ok = counts[0] == counts[1] == expected
    return ok, f"class sizes {counts!r}, expected {expected} each"


def transposition_oddness(n: int) -> tuple[bool, str]:
    """Transporting the canonical orientation along any transposition moves
    it an odd number of pairs away."""
    X = fin(n)
    d = canonical_orientation(X)
    for P in k_subsets(X, 2):
        tau = transposition_of_pair(X, P)
        m = relative_inversions(d, orientation_action(tau, d))
        if m % 2 != 1:
            return False, f"transposition {P!r} gives even count {m}"
    return True, "odd for every transposition"


def bridge_parity(n: int, group: tuple, signs: tuple) -> tuple[bool, str]:
    """Distance from the canonical orientation to its transport along e has
    the parity of e's sign in signs, for every e in group."""
    d = canonical_orientation(fin(n))
    for e, sign in zip(group, signs):
        m = relative_inversions(d, orientation_action(e, d))
        if Sign.of_parity(m) is not sign:
            return False, f"permutation {e.images!r}: count {m} vs inversions"
    return True, "parities agree on all permutations"


# --------------------------------------------------------------------------
# Family checks.  Each row draws its seeded inputs, if any, once per run and
# before any family is judged, and returns a judge that the runner calls on
# each selected family.  A judge holds only what was drawn (carriers, drawn
# bijections, coin bits) and derives the rest, such as composites, as it
# goes; it stops at the family's first failure.

Judge = Callable[[TwoElementFamily], tuple[bool, str]]


def functor_laws(s: Scope) -> Judge:
    """The action of the identity is PLUS and the action of e.then(f) is
    the product of theirs: on every pair of S_n for n <= 4, acting once on
    each permutation, else on 300 seeded pairs between random carriers;
    then the identity of 10 random carriers acts as PLUS."""
    n, rng = s.n, s.family_rng
    pairs = []
    if n > 4:
        for _ in range(300):
            X = random_labeled_set(rng, n)
            Y = random_labeled_set(rng, n)
            Z = random_labeled_set(rng, n)
            pairs.append((random_bijection(rng, X, Y), random_bijection(rng, Y, Z)))
    carriers = [random_labeled_set(rng, n) for _ in range(10)]

    def judge(Q: TwoElementFamily) -> tuple[bool, str]:
        if Q.action(identity(fin(n))) is not PLUS:
            return False, "action of the identity is not the identity"
        act, composable = Q.action, pairs
        if n <= 4:  # S_n is closed under then: act once on each permutation
            acted = {e.positions: act(e) for e in s.group}
            act, composable = (lambda e: acted[e.positions]), itertools.product(s.group, repeat=2)
        for e, f in composable:
            if act(e.then(f)) is not act(e) * act(f):
                return False, f"composite law fails on {(e.images, f.images)!r}"
        for X in carriers:
            if Q.action(identity(X)) is not PLUS:
                return False, f"identity law fails over {X.elements!r}"
        return True, "identity and composite laws hold"

    return judge


def fiber_two_elements(n: int, rng: Random) -> Judge:
    """The quotient really has two classes over random carriers.

    Classifies every element of the family's construction rather than
    trusting the family's two-element fiber to say so.
    """
    carriers = [random_labeled_set(rng, n) for _ in range(10)]

    def judge(Q: TwoElementFamily) -> tuple[bool, str]:
        for X in carriers:
            counts = Q.construction.census(X)
            if counts[0] != counts[1] or counts[0] == 0:
                return False, f"class sizes {counts!r} over {X.elements!r}"
        return True, f"two equal classes over {len(carriers)} random carriers"

    return judge


def _witness_judge(
    find: Callable[[TwoElementFamily], object], failure: Callable[[object], str], passing: str
) -> Judge:
    """The judge of a row that draws nothing: a family fails with
    failure(w) when find(Q) returns a witness w, not None."""
    return lambda Q: (True, passing) if (w := find(Q)) is None else (False, failure(w))


def _covaries(k: int, trivial: bool, report: RecognitionReport, Q: TwoElementFamily) -> str | None:
    """None when mutant #k of Q, recognized as report, has co-varying
    booleans, else the row's failure detail."""
    if report.consistent:
        return None
    name = f"{Q.name}/mutant[{'trivial' if trivial else 'none'}]"
    return f"mutant #{k} ({name}) booleans {report.booleans!r}"


def recognition_covariance(s: Scope) -> Judge:
    """The recognition booleans co-vary on 50 seeded mutants of each family.

    Recognition reads neither the base point nor any action off fin(n), so
    to it a deformed family is the family itself or a trivial action: each
    mutant draws that one bit.  A family's mutants read the run's report of
    the family, its trivial mutants the report of the row's one trivial
    action, fixed_recipe at the constant PLUS, each recognized once per run
    by Scope.recognition.
    """
    trivial = [s.family_rng.random() < 0.4 for _ in range(50)]
    constant = fixed_recipe(lambda e: PLUS)(s.n)

    def judge(Q: TwoElementFamily) -> tuple[bool, str]:
        for k, t in enumerate(trivial):
            if (failure := _covaries(k, t, s.recognition(constant if t else Q), Q)) is not None:
                return False, failure
        return True, f"booleans co-vary on {len(trivial)} mutants"

    return judge


def label_independence(n: int, rng: Random) -> Judge:
    """Relabeling carriers and transporting commutes with every action."""
    squares = []
    for _ in range(100):
        X, Y = random_labeled_set(rng, n), random_labeled_set(rng, n)
        Xp, Yp = random_labeled_set(rng, n), random_labeled_set(rng, n)
        e = random_bijection(rng, X, Y)
        squares.append((e, random_bijection(rng, X, Xp), random_bijection(rng, Y, Yp)))

    def judge(Q: TwoElementFamily) -> tuple[bool, str]:
        for e, r, s in squares:
            if Q.action(r.inverse().then(e).then(s)) is not Q.action(r) * Q.action(e) * Q.action(s):
                X, Y = e.domain.elements, e.codomain.elements
                return False, f"square fails for e={e.images!r} over {X!r}->{Y!r}"
        return True, f"{len(squares)} relabeling squares commute"

    return judge


# The most elements a projection square enumerates over one carrier: all 6!
# charts of simpson at n = 6.  Larger carriers use the class representatives.
SQUARE_POOL_LIMIT = 720


def quotient_naturality(n: int, rng: Random) -> Judge:
    """Projecting to the class then acting equals acting then projecting.

    Every n-element carrier has as many elements as fin(n), so the judge
    counts its construction's elements over fin(n) once: a pool of every
    element when there are at most SQUARE_POOL_LIMIT, else the two class
    representatives.
    """
    moves = []
    for _ in range(20):
        X, Y = random_labeled_set(rng, n), random_labeled_set(rng, n)
        moves.append(random_bijection(rng, X, Y))

    def judge(Q: TwoElementFamily) -> tuple[bool, str]:
        C = Q.construction
        count = sum(1 for _ in itertools.islice(C.elements(fin(n)), SQUARE_POOL_LIMIT + 1))
        whole = count <= SQUARE_POOL_LIMIT  # does the pool hold every element
        for e in moves:
            act, X = Q.action(e), e.domain
            pool = C.elements(X) if whole else (C.representative(X, s) for s in (PLUS, MINUS))
            for x in pool:
                if C.classify(C.transport(e, x)) is not act * C.classify(x):
                    return False, f"element {x!r} breaks the square"
        return True, f"projection squares commute on {len(moves)} moves"

    return judge


def orbit_structure(n: int, group: tuple) -> tuple[bool, str]:
    """Exhaustive orbit expansion of group: two orbits of size n!, labels constant."""
    orbits = expand_orbits(group)
    sizes = sorted(len(o) for o in orbits)
    if sizes != [math.factorial(n)] * 2:
        return False, f"orbit sizes {sizes!r}"
    labels = []
    # Through the family, as for every record: see CONSTRUCTIONS.
    classify = orbit_delooping(n).construction.classify
    for orbit in orbits:
        got = set(map(classify, orbit))
        if len(got) != 1:
            return False, "class label is not constant on an orbit"
        labels.append(got.pop())
    if set(labels) != {PLUS, MINUS}:
        return False, f"orbit labels {labels!r}"
    return True, f"two orbits of size {sizes[0]} with distinct labels"


def fixed_equivariance(n: int, group: tuple, walk: tuple) -> tuple[bool, str]:
    """value(h*a^-1) = sign(a) * value(h) for both fixed elements, every
    chart h in group and every a in S_n, proved on the edges: value(h*s_i) = -value(h)
    for every adjacent swap s_i.  The swaps generate S_n and the sign is
    multiplicative (sign_homomorphism's walk proves both in the same run),
    so a is a word in the s_i whose length has the parity of sign(a).  walk
    is the run's Scope.walk, the one sign_homomorphism reads; a failure
    names the first broken edge in walk order, else the walk's share of the
    edges when it does not reach the whole listing.
    """
    base = fin(n)
    # Through the family, as for every record: see CONSTRUCTIONS.
    C = fixed_point_delooping(n).construction
    for elem in (C.representative(base, s) for s in (PLUS, MINUS)):
        value = [C.transport(h, elem).value for h in group]  # its value at each chart
        for h, i, q in cayley_edges(walk):
            if value[q] is not -value[h]:
                chart = group[h].positions
                return False, f"equivariance fails at chart {chart!r}, swap ({i}, {i + 1})"
    if len(walk[1]) != len(group):  # as sign_homomorphism words it
        swaps = len(walk[0])
        return False, f"walk takes {len(walk[1]) * swaps} of {len(group) * swaps} edges"
    return True, "both elements are equivariant"


def fixed_census(group: tuple, signs: tuple) -> tuple[bool, str]:
    tables = exhaustive_fixed_points(group)
    if len(tables) != 2:
        return False, f"{len(tables)} fixed tables found"
    got = set(tables)
    ok = got == {signs, tuple(-s for s in signs)}
    return ok, "fixed tables are exactly plus/minus sign" if ok else f"got {got!r}"


# --------------------------------------------------------------------------
# Structural checks shared by all constructions.

def cycle_roundtrip(group: tuple) -> tuple[bool, str]:
    """recompose(cycle_decompose(e)) == e for every permutation e in group,
    which also makes the canonical forms distinct: cycle_decompose is injective."""
    for e in group:
        if recompose(cycle_decompose(e)) != e:
            return False, f"roundtrip fails at {e.images!r}"
    return True, f"{len(group)} permutations roundtrip with distinct forms"


def endofunction_roundtrip(n: int) -> tuple[bool, str]:
    base = fin(n)
    count = 0
    for images in itertools.product(base.elements, repeat=n):
        table = dict(zip(base.elements, images))
        dec = decompose_endofunction(base, table)
        if recompose_endofunction(dec) != table:
            return False, f"table {images!r} does not roundtrip"
        count += 1
    return True, f"{count} endofunctions roundtrip"


def factorization_sound(group: tuple, signs: tuple) -> tuple[bool, str]:
    for e, sign in zip(group, signs):
        factors = factor_into_transpositions(e)
        if any(len(f) != 2 for f in factors):
            return False, f"non-transposition factor for {e.images!r}"
        if product_of_transpositions(e.domain, factors) != e:
            return False, f"product of factors differs from {e.images!r}"
        if Sign.of_parity(len(factors)) is not sign:
            return False, f"factor parity disagrees at {e.images!r}"
    return True, "factors rebuild every permutation with matching parity"


def cayley_walk(listing: tuple, moves: list[tuple[int, ...]]) -> tuple[list[tuple], list[int]]:
    """The Cayley graph of the moves g_i on a listing of permutations of
    fin(n), by index: steps[i][k] is the index of listing[k]*g_i (g_i
    first, so listing[k] read at g_i's images), None if that is not listed.
    order lists the indices reached breadth-first from the identity, none
    when the identity is not listed.  No parity is read.
    """
    positions = [e.positions for e in listing]
    index = {p: k for k, p in enumerate(positions)}
    steps = [tuple(map(index.get, map(itemgetter(*g), positions))) for g in moves]
    start = index.get(tuple(range(len(positions[0]))))
    order = [] if start is None else [start]
    seen = set(order)
    for p in order:  # grows while it is read: breadth-first order
        for step in steps:
            q = step[p]
            if q is not None and q not in seen:
                seen.add(q)
                order.append(q)
    return steps, order


def cayley_edges(walk: tuple[list[tuple], list[int]]) -> Iterator[tuple[int, int, int | None]]:
    """Every edge (p, i, steps[i][p]) of a cayley_walk, p in walk order."""
    return ((p, i, step[p]) for p in walk[1] for i, step in enumerate(walk[0]))


def sign_homomorphism(s: Scope) -> tuple[bool, str]:
    """sign(a*b) = sign(a) * sign(b) on S_n.

    Up to ENUMERATION_BOUND it is proved on the edges of the run's walk,
    with no rng draws: it reads the run's signs, as every other row does;
    the identity must map to +1 and every edge (p, i, p*s_i) under the n - 1
    adjacent swaps s_i = <i i+1> must flip the sign, so
    sign(a*w) = sign(a) * (-1)^len(w) for every word w in the s_i.  The walk
    takes n - 1 edges from each permutation it reaches, so taking all
    n!(n - 1) means it reached the whole listing: every b is a word w, so
    sign(a*b) = sign(a) * sign(b) (take a = id for sign(b) = (-1)^len(w)).
    A failure names the first offending edge in walk order.  Beyond
    ENUMERATION_BOUND, 10 000 seeded random pairs are checked.
    """
    n, rng, base = s.n, s.rng, fin(s.n)
    if n > ENUMERATION_BOUND:
        for _ in range(10_000):
            a, b = random_bijection(rng, base, base), random_bijection(rng, base, base)
            if sign_inversions(a.then(b)) != sign_inversions(a) * sign_inversions(b):
                return False, f"multiplicativity fails at {(a.images, b.images)!r}"
        return True, "sign is multiplicative"
    group, signs, (steps, order) = s.group, s.signs, s.walk
    if signs[order[0]] is not PLUS:
        return False, "sign of the identity is not +1"
    for p, i, q in cayley_edges(s.walk):
        if signs[q] is signs[p]:  # two signs: anything else is -signs[p]
            edge = f"{group[p].positions!r} -> {group[q].positions!r}"
            return False, f"sign does not flip on edge {edge} (swap {i}, {i + 1})"
    if len(order) != len(group):
        return False, f"walk takes {len(order) * len(steps)} of {len(group) * len(steps)} edges"
    return True, "sign is multiplicative"


def relation_validity(s: Scope) -> tuple[bool, str]:
    """Both quotient relations validate as equivalence relations.

    Exhaustive where the element count allows cubic validation; on larger
    carriers the relation is restricted to seeded random sub-carriers.
    """
    n, rng, base = s.n, s.rng, fin(s.n)
    # charts relation: even relative parity
    if math.factorial(n) <= 24:
        charts = s.group
    else:
        charts = [random_bijection(rng, base, base) for _ in range(24)]
    inverses = [h.inverse() for h in charts]
    p = partition_from_relation(
        LabeledSet.of(range(len(charts))),
        lambda i, j: sign_inversions(charts[i].then(inverses[j])) is PLUS,
    )
    if len(p) != (1 if n < 2 else 2):
        return False, f"chart relation gives {len(p)} blocks"
    # orientation relation: even disagreement count
    width = n * (n - 1) // 2
    if width <= 6:
        bit_pool = range(1 << width)
    else:
        bit_pool = set()
        while len(bit_pool) < 40:
            bit_pool.add(rng.getrandbits(width))
    q = partition_from_relation(
        LabeledSet.of(bit_pool), lambda a, b: (a ^ b).bit_count() % 2 == 0
    )
    if len(q) != 2:
        return False, f"orientation relation gives {len(q)} blocks"
    return True, "both relations validate with two blocks"


def uniqueness_of_deloopings(
    families: Mapping[str, TwoElementFamily], seed: int
) -> tuple[bool, str]:
    """A base-point-preserving natural isomorphism between every ordered
    pair of the families, each over fin(n) for its arity n; a family to
    itself is the identity."""
    count = 0
    for a, b in itertools.product(families, repeat=2):
        fam_a, fam_b = families[a], families[b]
        phi = natural_isomorphism(fam_a, fam_b, squares=24, seed=seed)(fin(fam_a.arity))
        if fam_a.base_point * phi is not fam_b.base_point:
            return False, f"{a}->{b} does not preserve the base point"
        if a == b and phi is not PLUS:
            return False, f"{a}->{a} is not the identity family"
        count += 1
    return True, f"{count} natural isomorphisms built and checked"


# --------------------------------------------------------------------------
# Runner.

class Scope:
    """One verify run: what its checks read.

    rng and family_rng are the two Random(seed) of the core and the family
    rows; families maps each selected construction to the run's family of
    it.  group lists S_n, signs the sign_inversions of its permutations and
    walk their cayley_walk under the adjacent swaps, each on first read: a
    run whose rows all sample lists and walks nothing, and a sign reader
    that raises fails the rows reading signs, not the run.  recognition(Q)
    is Q's check_recognition over group and signs, made once per family
    object and kept until the run ends: the recognition row and
    recognition-covariance read the same report.
    """

    def __init__(self, n: int, seed: int, families: Mapping[str, TwoElementFamily]):
        self.n, self.seed, self.families = n, seed, families
        self.rng, self.family_rng = Random(seed), Random(seed)
        self._recognized: dict[TwoElementFamily, RecognitionReport] = {}

    def recognition(self, Q: TwoElementFamily) -> RecognitionReport:
        if Q not in self._recognized:  # a family hashes by identity
            self._recognized[Q] = check_recognition(Q, self.group, self.signs)
        return self._recognized[Q]

    @cached_property
    def group(self) -> tuple[Bijection, ...]:
        return symmetric_group(self.n)

    @cached_property
    def signs(self) -> tuple[Sign, ...]:
        return tuple(map(sign_inversions, self.group))

    @cached_property
    def walk(self) -> tuple[list[tuple], list[int]]:
        swaps = [transposition(self.n, i, i + 1).images for i in range(self.n - 1)]
        return cayley_walk(self.group, swaps)


class Check(NamedTuple):
    """One verify check and how far it runs.

    report is "core", "family" (run returns a Judge, which every selected
    family's report runs; see _run_family) or the name of the one
    construction whose report carries it, run only when that construction
    is selected; core and construction rows return (passed, detail).  The
    check runs for n <= max_n (None:
    every n), or n <= fixed_max_n under exhaustive_fixed when set; an
    all_only check needs every construction selected.  run looks library
    functions up by their module-level names when it is called.
    """

    name: str
    report: str
    run: Callable[[Scope], tuple[bool, str] | Judge]
    max_n: int | None = None
    fixed_max_n: int | None = None
    all_only: bool = False

    def applies(self, n: int, every: bool, exhaustive_fixed: bool) -> bool:
        limit = self.fixed_max_n if exhaustive_fixed and self.fixed_max_n else self.max_n
        return (limit is None or n <= limit) and (every or not self.all_only)


# In row order, which is the order of every report.  The core rows share one
# Random(seed); the family rows draw from a second Random(seed) in this
# order, once per run for all the families; the construction rows draw none.
CHECKS: tuple[Check, ...] = (
    Check("cycle-roundtrip", "core", lambda s: cycle_roundtrip(s.group), max_n=7),
    Check("endofunction-roundtrip", "core", lambda s: endofunction_roundtrip(s.n), max_n=4),
    Check("factorization", "core", lambda s: factorization_sound(s.group, s.signs), max_n=6),
    Check("sign-homomorphism", "core", lambda s: sign_homomorphism(s)),
    Check("alternating-kernel", "core", lambda s: kernel_closure(s.n, s.group, s.signs),
          max_n=ENUMERATION_BOUND),
    Check("parity-triangle", "core", lambda s: parity_triangle_holds(s.n, s.rng, trials=2000)),
    Check("transposition-oddness", "core", lambda s: transposition_oddness(s.n)),
    Check("orientation-classes", "core", lambda s: orientation_class_census(s.n), max_n=6),
    Check("bridge-parity", "core", lambda s: bridge_parity(s.n, s.group, s.signs), max_n=6),
    Check("relation-validity", "core", lambda s: relation_validity(s)),
    Check("uniqueness", "core", lambda s: uniqueness_of_deloopings(s.families, s.seed),
          max_n=5, all_only=True),
    Check("functor-laws", "family", lambda s: functor_laws(s)),
    Check("fiber-two-elements", "family", lambda s: fiber_two_elements(s.n, s.family_rng),
          max_n=6),
    Check("transpositions-swap", "family", lambda s: _witness_judge(
        unswapped_transposition, lambda t: f"transposition {t.moved()!r} does not swap the fiber",
        "every transposition swaps the fiber",
    )),
    Check("sign-agreement", "family", lambda s: _witness_judge(
        lambda Q: sign_mismatch(Q, s.group, s.signs), lambda e: f"sign mismatch at {e.images!r}",
        "delooping sign equals inversion sign on all permutations",
    ), max_n=6),
    # Calls sign-agreement's scan as condition 5, but stays its own row:
    # each row is reported, and gated by the benchmark, on its own.
    Check("recognition", "family", lambda s: _witness_judge(
        lambda Q: None if (r := s.recognition(Q)).is_delooping else r,
        lambda r: f"booleans {r.booleans!r}, counterexample {r.counterexample.images!r}",
        "all three conditions hold",
    ), max_n=6),
    Check("recognition-covariance", "family", lambda s: recognition_covariance(s), max_n=6),
    Check("label-independence", "family", lambda s: label_independence(s.n, s.family_rng)),
    Check("quotient-naturality", "family", lambda s: quotient_naturality(s.n, s.family_rng),
          max_n=6),
    Check("orbit-structure", "orbit", lambda s: orbit_structure(s.n, s.group), max_n=5),
    Check("equivariance", "fixed", lambda s: fixed_equivariance(s.n, s.group, s.walk), max_n=5),
    Check("fixed-census", "fixed", lambda s: fixed_census(s.group, s.signs), max_n=3,
          fixed_max_n=CENSUS_BOUND),
)


def _run_family(reports: Mapping[str, VerifyReport], check: Check, scope: Scope) -> None:
    """Run a family row once: draw its inputs, then judge each selected
    family in turn through _run.

    Every draw comes before any judging, so a failure never shifts a later
    row's draws; a draw that raises fails every family.  Each family's
    duration is the time of its own judging plus an equal share of the
    draws, so the durations add up to the row's whole time.
    """
    start = time.perf_counter()
    try:
        judge = check.run(scope)
    except Exception as exc:  # a crash is a failure with the exception as witness
        failure = _raised(exc)
        judge = lambda Q: (False, failure)
    share = (time.perf_counter() - start) / len(scope.families)
    for name, Q in scope.families.items():
        _run(reports[name], check.name, partial(judge, Q))
        reports[name].checks[-1].duration += share


# The largest arity verify runs; cartier's transpositions-swap alone is O(n^4).
VERIFY_BOUND = 64


def run_verification(
    n: int,
    construction: str = "all",
    seed: int = 0,
    exhaustive_fixed: bool = False,
) -> list[VerifyReport]:
    if construction not in ("all", *CONSTRUCTIONS):  # by equality: nothing is hashed
        choices = ", ".join(map(repr, ("all", *CONSTRUCTIONS)))
        raise ContractError(f"unknown construction {construction!r} (choose from {choices})")
    if require_int(n, "arity") > VERIFY_BOUND:
        raise SizeGuard(f"verify runs up to n = {VERIFY_BOUND}, got {n}")
    require_int(seed, "seed")  # a report's seed must replay its run
    every = construction == "all"
    selected = list(CONSTRUCTIONS) if every else [construction]
    families = {c: CONSTRUCTIONS[c](n) for c in selected}
    reports = {name: VerifyReport(name, n, seed) for name in ("core", *selected)}
    scope = Scope(n, seed, families)
    for check in CHECKS:
        if not check.applies(n, every, exhaustive_fixed):
            continue
        if check.report == "family":
            _run_family(reports, check, scope)
        elif check.report in reports:
            _run(reports[check.report], check.name, lambda: check.run(scope))
    return list(reports.values())
