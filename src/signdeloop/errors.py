"""Exception types shared across the package.

Every contract violation raises a subclass of ContractError, so callers can
catch a single type at an API boundary while tests pin the precise class.
Relation errors additionally carry the offending witness.
"""


class ContractError(ValueError):
    """A precondition was violated or a value is malformed."""


class DomainMismatch(ContractError):
    """Composition endpoints (or an expected endo-map shape) disagree."""


class CarrierMismatch(ContractError):
    """Two values that must live over the same labeled set do not."""


class WrongCardinality(ContractError):
    """A set or subset has the wrong number of elements for this operation."""


class NotSubset(ContractError):
    """Alleged members are not contained in the stated carrier."""


class NotMember(ContractError):
    """A label is not an element of the set it was looked up in."""


class SizeGuard(ContractError):
    """An exhaustive enumeration was requested above its size bound."""


class TooSmall(ContractError):
    """The carrier is too small for this construction (needs >= 2 points)."""


class ArityTooSmall(ContractError):
    """The family arity must be at least 2."""


class ArityMismatch(ContractError):
    """A set or bijection does not match the arity of the family at hand."""


class MalformedDecomposition(ContractError):
    """Cycle/tree data violate the decomposition invariants."""


class NotADelooping(ContractError):
    """A family failed the recognition conditions where a delooping is required."""


class RelationError(ContractError):
    """An alleged equivalence relation failed validation; carries a witness."""

    def __init__(self, message: str, witness):
        super().__init__(f"{message}: witness {witness!r}")
        self.witness = witness


class NotReflexive(RelationError):
    pass


class NotSymmetric(RelationError):
    pass


class NotTransitive(RelationError):
    pass


class NaturalityFailure(ContractError):
    """A naturality square failed to commute; carries the square if known."""

    def __init__(self, message: str, square=None):
        if square is not None:
            message = f"{message}: square {square!r}"
        super().__init__(message)
        self.square = square
