"""Runnable invariant suite backing the `verify` subcommand.

Each check compares an implementation path against an independent route:
exhaustive orbit expansion against the class-label shortcut, brute
enumeration against closed forms, transported computations against direct
ones.  Checks return (passed, detail) and the runner wraps them with
timing; failure details carry reproducible inputs (seed and witness).
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from random import Random
from typing import Callable, NamedTuple

from .cycles import (
    canonical_form,
    cycle_decompose,
    decompose_endofunction,
    recompose,
    recompose_endofunction,
)
from .deloopings import (
    CENSUS_BOUND,
    CLASS_LABELS,
    CONSTRUCTIONS,
    Orientation,
    TwoElementFamily,
    all_orientations,
    alternating_kernel,
    canonical_orientation,
    cartier_delooping,
    check_recognition,
    exhaustive_fixed_points,
    fixed_point_elements,
    mutate_family,
    natural_isomorphism,
    orientation_action,
    orbit_class,
    relative_inversions,
    sign_mismatch,
    unswapped_transposition,
)
from .errors import ContractError
from .finite import (
    ENUMERATION_BOUND,
    LabeledSet,
    enumerate_bijections,
    fin,
    identity,
    k_subsets,
    random_bijection,
    random_labeled_set,
    require_natural,
    transposition_of_pair,
)
from .perms import (
    MINUS,
    PLUS,
    factor_into_transpositions,
    inversions,
    product_of_transpositions,
    sign_inversions,
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


def _run(report: VerifyReport, name: str, check: Callable[[], tuple[bool, str]]):
    start = time.perf_counter()
    try:
        passed, detail = check()
    except Exception as exc:  # a crash is a failure with the exception as witness
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    report.checks.append(
        CheckResult(name, passed, detail, time.perf_counter() - start)
    )


# --------------------------------------------------------------------------
# Oracles.

def expand_orbits(n: int) -> list[set[tuple]]:
    """Orbits of (chart, sign) pairs by explicit closure under generators.

    Independent of the class-label shortcut: applies every transposition
    move until nothing new appears.
    """
    base = fin(n)
    perms = enumerate_bijections(base, base)
    taus = [transposition_of_pair(base, P) for P in k_subsets(base, 2)]
    todo = {(h.images, s) for h in perms for s in (PLUS, MINUS)}
    by_images = {h.images: h for h in perms}
    orbits = []
    while todo:
        seed_elem = todo.pop()
        orbit = {seed_elem}
        frontier = [seed_elem]
        while frontier:
            images, s = frontier.pop()
            h = by_images[images]
            for tau in taus:
                moved = (tau.inverse().then(h).images, -s)
                if moved not in orbit:
                    orbit.add(moved)
                    frontier.append(moved)
        todo -= orbit
        orbits.append(orbit)
    return orbits


def kernel_closure(n: int, rng: Random | None = None) -> tuple[bool, str]:
    """Closure of the even-sign kernel under composition and inverse.

    Inverses are checked exhaustively.  Up to n = 7 so are products: every
    ordered pair of the listing is composed, and each product is looked up
    in the listing itself, never judged by its sign.  A permutation is its
    image bytes (labels lie below ENUMERATION_BOUND), so "a, then b" is
    a.translate(b + tail) and the 2520^2 products at n = 7 run inside C
    builtins.  An escape is reported as the first pair in listing order.
    Beyond n = 7, 10 000 products are sampled (seeded) from the sorted
    listing and composed the same way.
    """
    kernel = alternating_kernel(n)
    listing = [bytes(e.images) for e in kernel]
    members = set(listing)
    for e in kernel:
        if bytes(e.inverse().images) not in members:
            return False, f"inverse of {e.images!r} escapes the kernel"
    tail = bytes(range(n, 256))
    if n <= 7:
        if all(
            members.issuperset(map(bytes.translate, listing, itertools.repeat(b + tail)))
            for b in listing
        ):
            return True, f"order {len(kernel)}"
        pairs = itertools.product(listing, repeat=2)
    else:
        rng = rng or Random(0)
        pool = sorted(listing)
        pairs = (
            (rng.choice(pool), rng.choice(pool)) for _ in range(10_000)
        )
    for a, b in pairs:
        if a.translate(b + tail) not in members:  # apply a, then b
            return False, f"product of {tuple(a)!r} and {tuple(b)!r} escapes the kernel"
    return True, f"order {len(kernel)}"


def parity_triangle_holds(n: int, rng: Random, trials: int = 10_000) -> tuple[bool, str]:
    """Disagreement counts add mod 2 over any triple of orientations.

    For n <= 4 every ordered triple of the 2^width orientations is decided:
    each ordered pair's parity is computed once into a table, and every
    triple, in product order, is checked against it, so the first failing
    triple is the one a triple-by-triple scan would report.  Beyond, seeded
    random triples are checked one by one.
    """
    require_natural(trials, "trial count")
    X = fin(n)
    width = n * (n - 1) // 2
    if n <= 4:
        pool = list(all_orientations(X))
        odd = [[relative_inversions(u, w) % 2 for w in pool] for u in pool]
        for i, j, k in itertools.product(range(len(pool)), repeat=3):
            if odd[i][k] != odd[i][j] ^ odd[j][k]:
                triple = (pool[i].bits, pool[j].bits, pool[k].bits)
                return False, f"triple {triple!r} breaks additivity"
        return True, "additive mod 2"
    for _ in range(trials):
        u, v, w = (Orientation(X, rng.getrandbits(width)) for _ in range(3))
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


def bridge_parity(n: int) -> tuple[bool, str]:
    """Distance from the canonical orientation to its transport along e has
    the same parity as the inversion count of e, for every permutation."""
    X = fin(n)
    d = canonical_orientation(X)
    for e in enumerate_bijections(X, X):
        m = relative_inversions(d, orientation_action(e, d))
        if m % 2 != len(inversions(e)) % 2:
            return False, f"permutation {e.images!r}: count {m} vs inversions"
    return True, "parities agree on all permutations"


# --------------------------------------------------------------------------
# Family checks.

def functor_laws(Q: TwoElementFamily, rng: Random) -> tuple[bool, str]:
    n = Q.arity
    base = fin(n)
    if Q.action(identity(base)) != identity(CLASS_LABELS):
        return False, "action of the identity is not the identity"
    if n <= 4:
        perms = enumerate_bijections(base, base)
        composable = itertools.product(perms, repeat=2)
    else:
        def sampled():
            for _ in range(300):
                X = random_labeled_set(rng, n)
                Y = random_labeled_set(rng, n)
                Z = random_labeled_set(rng, n)
                yield random_bijection(rng, X, Y), random_bijection(rng, Y, Z)
        composable = sampled()
    for e, f in composable:
        if Q.action(e.then(f)) != Q.action(e).then(Q.action(f)):
            return False, f"composite law fails on {(e.images, f.images)!r}"
    for _ in range(10):
        X = random_labeled_set(rng, n)
        if Q.action(identity(X)) != identity(CLASS_LABELS):
            return False, f"identity law fails over {X.elements!r}"
    return True, "identity and composite laws hold"


def fiber_two_elements(Q: TwoElementFamily, rng: Random) -> tuple[bool, str]:
    """The quotient really has two classes over random carriers.

    Classifies every element of the family's construction rather than
    trusting the family's two-element fiber to say so.
    """
    C = Q.construction
    sets = 10
    for _ in range(sets):
        X = random_labeled_set(rng, Q.arity)
        counts = C.census(X)
        if counts[0] != counts[1] or counts[0] == 0:
            return False, f"class sizes {counts!r} over {X.elements!r}"
    return True, f"two equal classes over {sets} random carriers"


def recognition_covariance(Q: TwoElementFamily, rng: Random) -> tuple[bool, str]:
    count = 50
    for k in range(count):
        mutant = mutate_family(Q, rng)
        report = check_recognition(mutant)
        if not report.consistent:
            return False, f"mutant #{k} ({mutant.name}) booleans {report.booleans!r}"
    return True, f"booleans co-vary on {count} mutants"


def label_independence(Q: TwoElementFamily, rng: Random) -> tuple[bool, str]:
    """Relabeling carriers and transporting commutes with every action."""
    n, trials = Q.arity, 100
    for _ in range(trials):
        X, Y = random_labeled_set(rng, n), random_labeled_set(rng, n)
        Xp, Yp = random_labeled_set(rng, n), random_labeled_set(rng, n)
        e = random_bijection(rng, X, Y)
        r = random_bijection(rng, X, Xp)
        s = random_bijection(rng, Y, Yp)
        transported = r.inverse().then(e).then(s)
        direct = Q.action(transported)
        composed = Q.action(r).inverse().then(Q.action(e)).then(Q.action(s))
        if direct != composed:
            return False, (
                f"square fails for e={e.images!r} over {X.elements!r}->{Y.elements!r}"
            )
    return True, f"{trials} relabeling squares commute"


# The most elements a projection square enumerates over one carrier: all 6!
# charts of simpson at n = 6.  Larger carriers use the class representatives.
SQUARE_POOL_LIMIT = 720


def quotient_naturality(Q: TwoElementFamily, rng: Random) -> tuple[bool, str]:
    """Projecting to the class then acting equals acting then projecting."""
    C = Q.construction
    n, moves = Q.arity, 20
    for _ in range(moves):
        X, Y = random_labeled_set(rng, n), random_labeled_set(rng, n)
        e = random_bijection(rng, X, Y)
        act = Q.action(e)
        pool = list(itertools.islice(C.elements(X), SQUARE_POOL_LIMIT + 1))
        if len(pool) > SQUARE_POOL_LIMIT:
            pool = [C.representative(X, c) for c in (0, 1)]
        for x in pool:
            if C.classify(C.transport(e, x)) != act(C.classify(x)):
                return False, f"element {x!r} breaks the square"
    return True, f"projection squares commute on {moves} moves"


def orbit_structure(n: int) -> tuple[bool, str]:
    """Exhaustive orbit expansion: two orbits of size n!, labels constant."""
    orbits = expand_orbits(n)
    sizes = sorted(len(o) for o in orbits)
    if sizes != [math.factorial(n)] * 2:
        return False, f"orbit sizes {sizes!r}"
    base = fin(n)
    by_images = {h.images: h for h in enumerate_bijections(base, base)}
    labels = []
    for orbit in orbits:
        got = {orbit_class(by_images[images], s) for images, s in orbit}
        if len(got) != 1:
            return False, "class label is not constant on an orbit"
        labels.append(got.pop())
    if sorted(labels) != [0, 1]:
        return False, f"orbit labels {labels!r}"
    return True, f"two orbits of size {sizes[0]} with distinct labels"


def fixed_equivariance(n: int) -> tuple[bool, str]:
    base = fin(n)
    perms = enumerate_bijections(base, base)
    lo, hi = fixed_point_elements(base)
    for elem in (lo, hi):
        value = {h.images: elem.value_at(h) for h in perms}  # one read per chart
        for alpha in perms:
            s = sign_inversions(alpha)
            alpha_inverse = alpha.inverse()
            for h in perms:
                if value[alpha_inverse.then(h).images] != s * value[h.images]:
                    return False, f"equivariance fails at {(alpha.images, h.images)!r}"
    return True, "both elements are equivariant"


def fixed_census(n: int) -> tuple[bool, str]:
    tables = exhaustive_fixed_points(n)
    if len(tables) != 2:
        return False, f"{len(tables)} fixed tables found"
    base = fin(n)
    expected = {
        tuple(sign_inversions(p) for p in enumerate_bijections(base, base)),
        tuple(-sign_inversions(p) for p in enumerate_bijections(base, base)),
    }
    got = {
        tuple(t[p] for p in enumerate_bijections(base, base)) for t in tables
    }
    ok = got == expected
    return ok, "fixed tables are exactly plus/minus sign" if ok else f"got {got!r}"


# --------------------------------------------------------------------------
# Structural checks shared by all constructions.

def cycle_roundtrip(n: int) -> tuple[bool, str]:
    base = fin(n)
    seen = set()
    for e in enumerate_bijections(base, base):
        dec = cycle_decompose(e)
        if recompose(dec) != e:
            return False, f"roundtrip fails at {e.images!r}"
        if canonical_form(dec) != dec:
            return False, f"canonical form is not stable at {e.images!r}"
        seen.add(dec)
    if len(seen) != math.factorial(n):
        return False, f"only {len(seen)} distinct canonical forms"
    return True, f"{len(seen)} permutations roundtrip with distinct forms"


def endofunction_roundtrip(n: int) -> tuple[bool, str]:
    base = fin(n)
    count = 0
    for images in itertools.product(base.elements, repeat=n):
        table = dict(zip(base.elements, images))
        dec = decompose_endofunction(base, table)
        if recompose_endofunction(dec) != table:
            return False, f"table {images!r} does not roundtrip"
        if decompose_endofunction(base, recompose_endofunction(dec)) != dec:
            return False, f"decomposition of {images!r} is not stable"
        count += 1
    return True, f"{count} endofunctions roundtrip"


def factorization_sound(n: int) -> tuple[bool, str]:
    base = fin(n)
    for e in enumerate_bijections(base, base):
        factors = factor_into_transpositions(e)
        if any(len(f) != 2 for f in factors):
            return False, f"non-transposition factor for {e.images!r}"
        if product_of_transpositions(base, factors) != e:
            return False, f"product of factors differs from {e.images!r}"
        if len(factors) % 2 != len(inversions(e)) % 2:
            return False, f"factor parity disagrees at {e.images!r}"
    return True, "factors rebuild every permutation with matching parity"


def sign_homomorphism(n: int, rng: Random) -> tuple[bool, str]:
    base = fin(n)
    if n <= 5:
        perms = enumerate_bijections(base, base)
        candidates = itertools.product(perms, repeat=2)
    else:
        candidates = (
            (random_bijection(rng, base, base), random_bijection(rng, base, base))
            for _ in range(10_000)
        )
    for a, b in candidates:
        if sign_inversions(a.then(b)) != sign_inversions(a) * sign_inversions(b):
            return False, f"multiplicativity fails at {(a.images, b.images)!r}"
    return True, "sign is multiplicative"


def relation_validity(n: int, rng: Random) -> tuple[bool, str]:
    """Both quotient relations validate as equivalence relations.

    Exhaustive where the element count allows cubic validation; on larger
    carriers the relation is restricted to seeded random sub-carriers.
    """
    base = fin(n)
    # charts relation: even relative parity
    if math.factorial(n) <= 24:
        charts = enumerate_bijections(base, base)
    else:
        charts = [random_bijection(rng, base, base) for _ in range(24)]
    p = partition_from_relation(
        LabeledSet.of(range(len(charts))),
        lambda i, j: sign_inversions(charts[i].then(charts[j].inverse())) is PLUS,
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
    bit_set = LabeledSet.of(bit_pool)

    def orient_rel(a, b):
        return (a ^ b).bit_count() % 2 == 0

    q = partition_from_relation(bit_set, orient_rel)
    if len(q) != 2:
        return False, f"orientation relation gives {len(q)} blocks"
    return True, "both relations validate with two blocks"


def uniqueness_of_deloopings(n: int, seed: int) -> tuple[bool, str]:
    base = fin(n)
    families = {name: build(n) for name, build in CONSTRUCTIONS.items()}
    count = 0
    for a, b in itertools.product(CONSTRUCTIONS, repeat=2):
        fam_a, fam_b = families[a], families[b]
        phi = natural_isomorphism(fam_a, fam_b, squares=20, seed=seed)(base)
        if fam_b.chart(phi(fam_a.base_point)) is not PLUS:
            return False, f"{a}->{b} does not preserve the base point"
        if a == b and phi != identity(CLASS_LABELS):
            return False, f"{a}->{a} is not the identity family"
        count += 1
    return True, f"{count} natural isomorphisms built and checked"


# --------------------------------------------------------------------------
# Runner.

class Scope(NamedTuple):
    """What the checks of one report read; family is None in the core report."""

    n: int
    seed: int
    rng: Random
    family: TwoElementFamily | None


class Check(NamedTuple):
    """One verify check and how far it runs.

    report is "core", "family" (every construction's report) or the name of
    the one construction that carries it.  The check runs for n <= max_n
    (None: every n), or n <= fixed_max_n under exhaustive_fixed when set;
    an all_only check needs every construction selected.  run looks library
    functions up by their module-level names when it is called.
    """

    name: str
    report: str
    run: Callable[[Scope], tuple[bool, str]]
    max_n: int | None = None
    fixed_max_n: int | None = None
    all_only: bool = False

    def applies(self, report: str, scope: Scope, every: bool, exhaustive_fixed: bool) -> bool:
        on_family = scope.family is not None and self.report == "family"
        limit = self.fixed_max_n if exhaustive_fixed and self.fixed_max_n else self.max_n
        return (
            (self.report == report or on_family)
            and (limit is None or scope.n <= limit)
            and (every or not self.all_only)
        )


# In report order: the checks of one report share its rng, so this is also
# the order of their draws.
CHECKS: tuple[Check, ...] = (
    Check("cycle-roundtrip", "core", lambda s: cycle_roundtrip(s.n), max_n=7),
    Check("endofunction-roundtrip", "core", lambda s: endofunction_roundtrip(s.n), max_n=4),
    Check("factorization", "core", lambda s: factorization_sound(s.n), max_n=6),
    Check("sign-homomorphism", "core", lambda s: sign_homomorphism(s.n, s.rng)),
    Check("alternating-kernel", "core", lambda s: kernel_closure(s.n, s.rng),
          max_n=ENUMERATION_BOUND),
    Check("parity-triangle", "core", lambda s: parity_triangle_holds(s.n, s.rng, trials=2000)),
    Check("transposition-oddness", "core", lambda s: transposition_oddness(s.n)),
    Check("orientation-classes", "core", lambda s: orientation_class_census(s.n), max_n=6),
    Check("bridge-parity", "core", lambda s: bridge_parity(s.n), max_n=6),
    Check("relation-validity", "core", lambda s: relation_validity(s.n, s.rng)),
    Check("uniqueness", "core", lambda s: uniqueness_of_deloopings(s.n, s.seed),
          max_n=5, all_only=True),
    Check("functor-laws", "family", lambda s: functor_laws(s.family, s.rng)),
    Check("fiber-two-elements", "family", lambda s: fiber_two_elements(s.family, s.rng), max_n=6),
    Check("transpositions-swap", "family", lambda s: (
        (t := unswapped_transposition(s.family)) is None,
        f"transposition {t.moved()!r} does not swap the fiber" if t
        else "every transposition swaps the fiber",
    )),
    Check("sign-agreement", "family", lambda s: (
        (e := sign_mismatch(s.family, enumerate_bijections(fin(s.n), fin(s.n)))) is None,
        f"sign mismatch at {e.images!r}" if e
        else "delooping sign equals inversion sign on all permutations",
    ), max_n=6),
    # Repeats sign-agreement's scan as condition 5, but stays its own row:
    # each row is reported, and gated by the benchmark, on its own.
    Check("recognition", "family", lambda s: (
        (r := check_recognition(s.family)).is_delooping,
        "all three conditions hold" if r.is_delooping
        else f"booleans {r.booleans!r}, counterexample {r.counterexample.images!r}",
    ), max_n=6),
    Check("recognition-covariance", "family",
          lambda s: recognition_covariance(s.family, s.rng), max_n=6),
    Check("label-independence", "family", lambda s: label_independence(s.family, s.rng)),
    Check("quotient-naturality", "family", lambda s: quotient_naturality(s.family, s.rng), max_n=6),
    Check("orbit-structure", "orbit", lambda s: orbit_structure(s.n), max_n=5),
    Check("equivariance", "fixed", lambda s: fixed_equivariance(s.n), max_n=5),
    Check("fixed-census", "fixed", lambda s: fixed_census(s.n), max_n=3, fixed_max_n=CENSUS_BOUND),
)


def run_verification(
    n: int,
    construction: str = "all",
    seed: int = 0,
    exhaustive_fixed: bool = False,
) -> list[VerifyReport]:
    if construction != "all" and construction not in CONSTRUCTIONS:
        raise ContractError(f"unknown construction {construction!r}")
    every = construction == "all"
    selected = list(CONSTRUCTIONS) if every else [construction]
    reports = []
    for name, build in [("core", None)] + [(c, CONSTRUCTIONS[c]) for c in selected]:
        report = VerifyReport(name, n, seed)
        scope = Scope(n, seed, Random(seed), build(n) if build else None)
        for check in CHECKS:
            if check.applies(name, scope, every, exhaustive_fixed):
                _run(report, check.name, lambda: check.run(scope))
        reports.append(report)
    return reports
