"""The value classes of finite and cycles keep the contract they had as
frozen dataclasses: keyword construction, equality and hashing by the field
tuple, the same repr text, and no assignment or deletion.  The hashes decide
set and dict order, and through them which witness a check reports first,
so they must equal the hash of the field tuple exactly."""

import pytest

from signdeloop.cycles import (
    CycleDecomposition,
    EndoDecomposition,
    RootedTree,
    decompose_endofunction,
)
from signdeloop.finite import Bijection, LabeledSet, fin

X = LabeledSet(elements=(3, 7, 10))
BIJECTION = Bijection(domain=X, codomain=fin(3), images=(2, 0, 1))
CYCLES = CycleDecomposition([[1, 5], (2,)])
TREE = RootedTree(4, children=(RootedTree(1), RootedTree(2, [RootedTree(3)])))
ENDO = decompose_endofunction(fin(5), {0: 1, 1: 0, 2: 0, 3: 2, 4: 4})

# (value, an equal value built another way, an unequal value, the field
# tuple its hash must equal, its repr as printed by the dataclass version).
CASES = {
    "LabeledSet": (
        X,
        LabeledSet.of([10, 3, 7]),
        LabeledSet((3, 7)),
        ((3, 7, 10),),
        "LabeledSet(elements=(3, 7, 10))",
    ),
    "Bijection": (
        BIJECTION,
        Bijection(X, fin(3), [2, 0, 1]),
        Bijection(X, fin(3), (0, 1, 2)),
        (X, fin(3), (2, 0, 1)),
        "Bijection(domain=LabeledSet(elements=(3, 7, 10)), "
        "codomain=LabeledSet(elements=(0, 1, 2)), images=(2, 0, 1))",
    ),
    "CycleDecomposition": (
        CYCLES,
        CycleDecomposition(cycles=((1, 5), (2,))),
        CycleDecomposition([[1, 5]]),
        (((1, 5), (2,)),),
        "CycleDecomposition(cycles=((1, 5), (2,)))",
    ),
    "RootedTree": (
        TREE,
        RootedTree(root=4, children=[RootedTree(1), RootedTree(2, (RootedTree(3),))]),
        RootedTree(4, (RootedTree(1), RootedTree(2))),
        ((4, 2), (1, 0), (2, 1), (3, 0)),
        "RootedTree(preorder=((4, 2), (1, 0), (2, 1), (3, 0)))",
    ),
    "EndoDecomposition": (
        ENDO,
        EndoDecomposition(cycles=[[0, 1], [4]], trees=ENDO.trees),
        decompose_endofunction(fin(5), {0: 1, 1: 0, 2: 1, 3: 2, 4: 4}),
        (ENDO.cycles, ENDO.trees),
        "EndoDecomposition(cycles=((0, 1), (4,)), trees=((RootedTree(preorder="
        "((0, 1), (2, 1), (3, 0))), RootedTree(preorder=((1, 0),))), "
        "(RootedTree(preorder=((4, 0),)),)))",
    ),
}


@pytest.fixture(params=sorted(CASES))
def case(request):
    return CASES[request.param]


def test_equality(case):
    value, same, other, _, _ = case
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != object() and value != tuple(vars(value).values())


def test_hash_is_the_hash_of_the_field_tuple(case):
    value, same, _, fields, _ = case
    assert hash(value) == hash(same) == hash(fields)
    assert {value, same} == {value}


def test_repr_is_unchanged(case):
    value, same, _, _, text = case
    assert repr(value) == repr(same) == text


@pytest.mark.parametrize("name", ["elements", "images", "cycles", "root", "trees", "extra"])
def test_assignment_and_deletion_raise(case, name):
    value = case[0]
    before = dict(vars(value))
    with pytest.raises(AttributeError):
        setattr(value, name, ())
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert vars(value) == before


def test_cycle_decomposition_ignores_its_carrier():
    # The carrier is derived from the cycles: not compared, hashed or shown.
    assert CYCLES.carrier == LabeledSet((1, 2, 5))
    other = object.__new__(CycleDecomposition)
    vars(other).update(cycles=CYCLES.cycles, carrier=fin(9))
    assert other == CYCLES and hash(other) == hash(CYCLES)
    assert repr(other) == repr(CYCLES)
