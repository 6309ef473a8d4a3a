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
from .errors import ContractError, DomainMismatch
from .finite import (
    ENUMERATION_BOUND,
    Bijection,
    Label,
    LabeledSet,
    fin,
    identity,
    require_int,
    transposition_of_pair,
)


class Sign(Enum):
    """The two-element group {+1, -1} under multiplication."""

    PLUS = 1
    MINUS = -1

    def __mul__(self, other: "Sign") -> "Sign":
        if not isinstance(other, Sign):
            return NotImplemented
        return Sign.PLUS if self is other else Sign.MINUS

    def __neg__(self) -> "Sign":
        return Sign.MINUS if self is Sign.PLUS else Sign.PLUS

    def __str__(self) -> str:
        return "+1" if self is Sign.PLUS else "-1"

    @property
    def fin2(self) -> int:
        """Chart onto fin(2): +1 goes to 0, -1 goes to 1."""
        return 0 if self is Sign.PLUS else 1

    @classmethod
    def from_fin2(cls, bit: int) -> "Sign":
        if require_int(bit, "fin(2) label") not in (0, 1):
            raise ContractError(f"expected 0 or 1, got {bit!r}")
        return cls.PLUS if bit == 0 else cls.MINUS

    @classmethod
    def of_parity(cls, count: int) -> "Sign":
        return cls.PLUS if count % 2 == 0 else cls.MINUS


PLUS = Sign.PLUS
MINUS = Sign.MINUS


def permutation(images: Iterable[int]) -> Bijection:
    """One-line form: images[i] is the image of i, on fin(len(images))."""
    imgs = tuple(images)
    n = fin(len(imgs))
    return Bijection(n, n, imgs)


def transposition(n: int, i: int, j: int) -> Bijection:
    return transposition_of_pair(fin(n), (i, j))


def inversions(e: Bijection) -> tuple[tuple[int, int], ...]:
    """All label pairs i < j that e sends out of order, lexicographically."""
    if e.domain != e.codomain:
        raise DomainMismatch("inversions require an endo-bijection")
    return tuple(
        (i, j)
        for i, j in itertools.combinations(e.domain.elements, 2)
        if e(i) > e(j)
    )


def sign_inversions(e: Bijection) -> Sign:
    """+1 exactly when the number of inversions is even.

    Counts the same pairs as inversions(), straight off the image tuple: the
    domain is sorted, so positions i < j hold labels in increasing order.
    The parity depends on the image tuple alone, so it is kept in a cache of
    ENUMERATION_BOUND! entries, room for one full listing of S_n; the
    endo-bijection check runs on every call, before the cache is read.
    """
    if e.domain != e.codomain:
        raise DomainMismatch("inversions require an endo-bijection")
    return _sign_of_images(e.images)


@lru_cache(maxsize=math.factorial(ENUMERATION_BOUND))
def _sign_of_images(images: tuple[Label, ...]) -> Sign:
    pairs = itertools.combinations(images, 2)
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
