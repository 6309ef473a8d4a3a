"""Concrete finite sets and explicit bijections between them.

Labels are plain unsigned integers.  A LabeledSet is a strictly increasing
tuple of labels standing in for an abstract n-element set; a Bijection
stores its forward images aligned with the sorted domain.  Everything here
is immutable and hashable, so values can be used as dict keys, memoized,
and shared freely.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from random import Random
from typing import Iterable, Iterator

from .errors import (
    ContractError,
    DomainMismatch,
    NotMember,
    NotSubset,
    SizeGuard,
    WrongCardinality,
)

Label = int

# Exhaustive bijection listings refuse to run above this many elements; every
# exhaustion over permutations (kernel, recognition, verify checks) goes
# through enumerate_bijections, so this is the one enumeration guard.
ENUMERATION_BOUND = 8


def _is_int(value) -> bool:
    """True for an int, False for a bool or anything else."""
    return isinstance(value, int) and not isinstance(value, bool)


def require_int(value, what: str):
    """Return value when it is an int (bools excluded), else raise ContractError.

    Floats and bools compare and hash equal to ints, so without this check
    0.0 or True would pass as a label or a size.
    """
    if type(value) is not int and not _is_int(value):
        raise ContractError(f"{what} must be an integer, got {value!r}")
    return value


def require_natural(value, what: str):
    """Return value when it is an int >= 0 (bools excluded), else raise ContractError."""
    if require_int(value, what) < 0:
        raise ContractError(f"{what} must be a natural number, got {value!r}")
    return value


def require_ints(values: tuple, what: str) -> tuple:
    """require_int on every value, before anything sorts or compares them."""
    if not {int}.issuperset(map(type, values)):  # all plain ints: nothing to check
        for a in values:
            require_int(a, what)
    return values


class Frozen:
    """Base of the package's immutable values: a frozen dataclass by hand,
    which keeps dataclasses (and the inspect and ast modules it imports)
    off the import path of the CLI.

    __init__ writes each field once with object.__setattr__, as a frozen
    dataclass does, which keeps instances in the compact layout of their
    class; _values returns the compared fields.  Equality (same class, equal
    values), the hash (of the values) and the refusal to assign or delete an
    attribute are the dataclass's.
    """

    __slots__ = ()

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class LabeledSet(Frozen):
    """A finite set of unsigned integer labels, kept strictly sorted.

    fin(n) is cached, so most comparisons are of a set with itself: __eq__
    answers those by identity before comparing elements.  The hash is
    that of the field tuple (elements,), as the dataclass version had.
    """

    def __init__(self, elements: Iterable[Label]):
        elems = require_ints(tuple(elements), "label")
        for a in elems:
            if a < 0:
                raise ContractError(f"labels must be unsigned integers, got {a!r}")
        if any(a >= b for a, b in zip(elems, elems[1:])):
            raise ContractError(f"labels must be strictly increasing, got {elems!r}")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_pos", {a: i for i, a in enumerate(elems)})

    @classmethod
    def of(cls, labels: Iterable[Label]) -> "LabeledSet":
        elems = tuple(sorted(require_ints(tuple(labels), "label")))
        if len(set(elems)) != len(elems):
            raise ContractError(f"duplicate labels in {elems!r}")
        return cls(elems)

    def position(self, label: Label) -> int:
        if type(label) is not int:  # True and 1.0 hash like 1 in _pos
            require_int(label, "label")
        try:
            return self._pos[label]
        except KeyError:
            raise NotMember(f"{label!r} is not in {self.elements!r}") from None

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, LabeledSet):
            return NotImplemented
        return self.elements == other.elements

    def __hash__(self) -> int:
        return hash((self.elements,))

    def __repr__(self) -> str:
        return f"LabeledSet(elements={self.elements!r})"

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self) -> Iterator[Label]:
        return iter(self.elements)

    def __contains__(self, label) -> bool:
        return (type(label) is int or _is_int(label)) and label in self._pos


@lru_cache(maxsize=None)
def fin(n: int) -> LabeledSet:
    """The canonical n-element set {0, ..., n-1}."""
    return LabeledSet(tuple(range(require_natural(n, "fin size"))))


class Bijection(Frozen):
    """An explicit bijection between two labeled sets.

    images[i] is the image of domain.elements[i].  The public constructor
    Bijection(domain, codomain, images) validates that the images are
    integers enumerating the codomain exactly once; it is the constructor for
    images a caller supplies.  Code whose images enumerate a validated
    LabeledSet by construction builds through _trusted, which skips that
    check: then() and inverse(), identity, order_bijection,
    enumerate_bijections (permutations of the codomain), random_bijection
    (a sample of the whole codomain) and cycles.recompose (the successors
    along a validated decomposition).
    """

    def __init__(self, domain: LabeledSet, codomain: LabeledSet, images: Iterable[Label]):
        imgs = require_ints(tuple(images), "image")
        if len(imgs) != len(domain):
            raise ContractError(
                f"expected {len(domain)} images, got {len(imgs)}"
            )
        if tuple(sorted(imgs)) != codomain.elements:
            raise ContractError(
                f"images {imgs!r} do not enumerate codomain {codomain.elements!r}"
            )
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "codomain", codomain)
        object.__setattr__(self, "images", imgs)

    def _values(self) -> tuple:
        return (self.domain, self.codomain, self.images)

    def __repr__(self) -> str:
        fields = f"domain={self.domain!r}, codomain={self.codomain!r}, images={self.images!r}"
        return f"Bijection({fields})"

    @classmethod
    def _trusted(
        cls, domain: LabeledSet, codomain: LabeledSet, images: tuple[Label, ...]
    ) -> "Bijection":
        """A Bijection from images already known to enumerate codomain."""
        e = object.__new__(cls)
        fields = e.__dict__
        fields["domain"] = domain
        fields["codomain"] = codomain
        fields["images"] = images
        return e

    def __call__(self, label: Label) -> Label:
        return self.images[self.domain.position(label)]

    def inverse(self) -> "Bijection":
        images = [None] * len(self.images)
        pos = self.codomain._pos
        for x, y in zip(self.domain.elements, self.images):
            images[pos[y]] = x
        return Bijection._trusted(self.codomain, self.domain, tuple(images))

    def then(self, other: "Bijection") -> "Bijection":
        """Diagrammatic composite: apply self first, then other."""
        if self.codomain != other.domain:
            raise DomainMismatch(
                f"cannot chain {self.codomain.elements!r} into {other.domain.elements!r}"
            )
        pos, images = other.domain._pos, other.images
        return Bijection._trusted(
            self.domain, other.codomain, tuple([images[pos[y]] for y in self.images])
        )

    def moved(self) -> tuple[Label, ...]:
        """Labels not fixed by an endo-bijection."""
        return tuple(x for x, y in zip(self.domain, self.images) if x != y)


def identity(X: LabeledSet) -> Bijection:
    return Bijection._trusted(X, X, X.elements)


def enumerate_bijections(A: LabeledSet, B: LabeledSet) -> tuple[Bijection, ...]:
    """All bijections A -> B in lexicographic order of their image tuples.

    Empty when the cardinalities differ; refuses to enumerate above
    ENUMERATION_BOUND elements since the listing has |A|! entries.
    """
    if len(A) > ENUMERATION_BOUND:
        raise SizeGuard(
            f"refusing to enumerate {len(A)}! bijections (bound {ENUMERATION_BOUND})"
        )
    if len(A) != len(B):
        return ()
    return tuple(
        Bijection._trusted(A, B, images) for images in itertools.permutations(B.elements)
    )


def k_subsets(X: LabeledSet, k: int) -> tuple[tuple[Label, ...], ...]:
    """All k-element subsets of X as sorted label tuples, lexicographically."""
    require_natural(k, "subset size")
    return tuple(itertools.combinations(X.elements, k))


def transposition_of_pair(X: LabeledSet, pair: Iterable[Label]) -> Bijection:
    """The endo-bijection of X swapping the two labels of `pair`.

    This is the unique endo-bijection whose support is exactly the pair.
    """
    mems = tuple(sorted(pair))
    if len(set(mems)) != len(mems):
        raise ContractError(f"pair has repeated labels: {mems!r}")
    if len(mems) != 2:
        raise WrongCardinality(f"transposition needs exactly 2 labels, got {mems!r}")
    a, b = mems
    if a not in X or b not in X:
        raise NotSubset(f"{mems!r} not contained in {X.elements!r}")
    images = tuple(b if x == a else a if x == b else x for x in X.elements)
    return Bijection(X, X, images)


def order_bijection(X: LabeledSet) -> Bijection:
    """The order-preserving bijection fin(|X|) -> X; the canonical chart."""
    return Bijection._trusted(fin(len(X)), X, X.elements)


def random_labeled_set(rng: Random, size: int) -> LabeledSet:
    """A fresh n-element set with labels far away from {0, ..., n-1}."""
    sample = rng.sample(range(100, 1_000_000), require_natural(size, "set size"))
    return LabeledSet(tuple(sorted(sample)))


def random_bijection(rng: Random, A: LabeledSet, B: LabeledSet) -> Bijection:
    if len(A) != len(B):
        raise WrongCardinality(
            f"no bijection between sizes {len(A)} and {len(B)}"
        )
    return Bijection._trusted(A, B, tuple(rng.sample(B.elements, len(B))))
