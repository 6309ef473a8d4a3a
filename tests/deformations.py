"""Random functorial deformations of a family, a fixture for the tests.

verify's recognition-covariance row draws only what recognition can see,
the family or its trivial action; these deformations also twist every
carrier and flip the chart, for the tests that read a family off fin(n)
or at its base point.
"""

from random import Random
from typing import NamedTuple

from signdeloop.deloopings import TwoElementFamily
from signdeloop.finite import Bijection, LabeledSet
from signdeloop.perms import MINUS, PLUS, Sign


class Mutation(NamedTuple):
    """A random functorial deformation, drawn once and applicable to any family.

    Deformations: trivialize the action, conjugate every fiber by a
    pseudorandom involution (salt; None for none), and/or flip the chart.
    All deformations stay inside the space of genuine functorial
    two-element families, which is exactly the space where the recognition
    booleans must co-vary.
    """

    trivialize: bool
    salt: int | None
    flip_chart: bool

    @classmethod
    def draw(cls, rng: Random) -> "Mutation":
        trivialize = rng.random() < 0.4
        salt = rng.randrange(1 << 30) if rng.random() < 0.7 else None
        return cls(trivialize, salt, rng.random() < 0.5)

    def apply(self, Q: TwoElementFamily) -> TwoElementFamily:
        trivialize, salt, flip_chart = self

        def twist(X: LabeledSet) -> Sign:
            if salt is not None and (hash((salt,) + X.elements) >> 3) & 1:
                return MINUS
            return PLUS

        def action(e: Bijection) -> Sign:
            # twist(X)^-1 then core then twist(Y); each twist is its own inverse.
            core = PLUS if trivialize else Q.action(e)
            return core if e.domain == e.codomain else twist(e.domain) * core * twist(e.codomain)

        base_point = -Q.base_point if flip_chart else Q.base_point
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
