"""Permutation parity and transposition factorization.

Composition convention used throughout the package: the product e*f of two
endo-bijections acts by (e*f)(x) = e(f(x)), i.e. the right factor is applied
first, and the product of a listed sequence of factors multiplies the
leftmost factor outermost.  Diagrammatic chaining is spelled
Bijection.then: e.then(f) applies e first and therefore equals f*e.  Under
this convention the full cycle k-1 -> 0 -> 1 -> ... factors literally as
<0 1><1 2>...<k-2 k-1>.
"""

from __future__ import annotations

import itertools
import math
import operator
from enum import Enum
from functools import lru_cache
from typing import Iterable

from .cycles import cycle_decompose
from .errors import DomainMismatch
from .finite import (
    ENUMERATION_BOUND,
    Bijection,
    Label,
    LabeledSet,
    _tuple,
    fin,
    identity,
    transposition_of_pair,
)


class Sign(Enum):
    """The two-element group {+1, -1} under multiplication: S_2, whose
    elements are also the classes and fiber maps of every delooping."""

    PLUS = 1
    MINUS = -1

    # The two products below run about 100 000 times in one verify at n = 5:
    # they test the class exactly and, like of_parity, read the module-level
    # PLUS and MINUS, as each Sign.PLUS is an Enum class-attribute lookup.
    def __mul__(self, other: "Sign") -> "Sign":
        if other.__class__ is not Sign:
            return NotImplemented
        return PLUS if self is other else MINUS

    def __neg__(self) -> "Sign":
        return MINUS if self is PLUS else PLUS

    def __str__(self) -> str:
        return "+1" if self is Sign.PLUS else "-1"

    @classmethod
    def of_parity(cls, count: int) -> "Sign":
        return PLUS if count % 2 == 0 else MINUS


PLUS = Sign.PLUS
MINUS = Sign.MINUS


def permutation(images: Iterable[int]) -> Bijection:
    """One-line form: images[i] is the image of i, on fin(len(images))."""
    imgs = _tuple(images, "images")
    n = fin(len(imgs))
    return Bijection(n, n, imgs)


@lru_cache(maxsize=math.comb(ENUMERATION_BOUND, 2), typed=True)
def transposition(n: int, i: int, j: int) -> Bijection:
    """The transposition <i j> of fin(n).

    Built once and shared: recognition scans every transposition of
    fin(n), and simpson's MINUS representative starts from <0 1>, on every
    call.  The cache has room for every transposition of one fin(n) up to
    ENUMERATION_BOUND points.  typed keeps True and 1.0 from reusing the
    entry of 1, so they still raise ContractError.
    """
    return transposition_of_pair(fin(n), (i, j))


def sign_inversions(e: Bijection) -> Sign:
    """+1 exactly when e sends an even number of label pairs out of order.

    Labels are sorted, so those are the pairs whose positions e reverses.
    This oracle judges the families, which read parity through chart_sign,
    so it repeats the count in _sign_of_images instead of calling either:
    a fault in one is then not a fault in the other.
    """
    if (X := e.domain) is not e.codomain and X != e.codomain:
        raise DomainMismatch("inversions require an endo-bijection")
    pairs = itertools.combinations(e.positions, 2)
    return Sign.of_parity(sum(itertools.starmap(operator.gt, pairs)))


def chart_sign(h: Bijection) -> Sign:
    """The sign of h relative to the order-preserving bijection between its ends.

    h's positions are the permutation of fin(n) that h becomes between the
    two order charts; its inversions are counted straight off that tuple.
    This is the families' parity reader; the oracle sign_inversions counts
    apart from it.  The count depends on the position tuple alone, so
    tuples of at most ENUMERATION_BOUND points are kept in a cache of
    ENUMERATION_BOUND! entries, room for one full listing of S_n; larger
    ones are counted afresh on every call.  The cache outlives a run
    because counting afresh is no faster: run_verification(5, "all", 101)
    took 0.156 s without it and 0.121 s with it, faster in 10 of 10 pairs,
    and at n = 7 0.150 s either way (medians of 10 alternating
    fresh-process pairs on a 2-vCPU x86-64 VM).
    """
    positions = h.positions
    if len(positions) > ENUMERATION_BOUND:
        return _sign_of_images.__wrapped__(positions)
    return _sign_of_images(positions)


@lru_cache(maxsize=math.factorial(ENUMERATION_BOUND))
def _sign_of_images(positions: tuple[int, ...]) -> Sign:
    pairs = itertools.combinations(positions, 2)
    return Sign.of_parity(sum(itertools.starmap(operator.gt, pairs)))


def product_of_transpositions(X: LabeledSet, factors) -> Bijection:
    """Multiply a factor list, leftmost factor outermost (right-to-left application)."""
    acc = identity(X)
    for pair in factors:
        acc = transposition_of_pair(X, pair).then(acc)
    return acc


def factor_into_transpositions(e: Bijection) -> tuple[tuple[Label, Label], ...]:
    """Write an endo-bijection as a product of adjacent-in-orbit swaps.

    Each cycle of cycle_decompose(e), an orbit (c0 c1 ... c_{k-1}) listed
    from its minimal label, contributes <c0 c1><c1 c2>...<c_{k-2} c_{k-1}>;
    cycles are emitted in order of their minimal labels, and each factor is
    a sorted label pair.  The factor count is len(carrier) - number of
    orbits, so its parity agrees with the inversion parity.
    """
    return tuple(
        tuple(sorted(pair))
        for orbit in cycle_decompose(e).cycles
        for pair in zip(orbit, orbit[1:])
    )
