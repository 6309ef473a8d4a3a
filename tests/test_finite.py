import itertools
from random import Random

import pytest
import hypothesis.strategies as st
from hypothesis import example, given

from signdeloop.cycles import CycleDecomposition
from signdeloop.errors import (
    ArityMismatch,
    ContractError,
    DomainMismatch,
    NotMember,
    NotSubset,
    SizeGuard,
    WrongCardinality,
)
from signdeloop.finite import (
    Bijection,
    LabeledSet,
    enumerate_bijections,
    fin,
    identity,
    k_subsets,
    order_bijection,
    random_bijection,
    random_labeled_set,
    symmetric_group,
    transposition_of_pair,
)
from signdeloop.deloopings import (
    CONSTRUCTIONS,
    Orientation,
    canonical_orientation,
    cartier_delooping,
    natural_isomorphism,
)
from signdeloop.perms import permutation
from signdeloop.verify import parity_triangle_holds

from strategies import bijection_chains, endo_bijections, labeled_chains

# Values that are not integers, among them ones equal to an int (0.0, True).
non_integers = st.one_of(
    st.booleans(),
    st.floats(),
    st.text(max_size=3),
    st.none(),
    st.tuples(st.integers()),
)

# Every entry point that takes a label or a size, fed one bad value.
NON_INTEGER_ENTRY_POINTS = {
    "permutation": lambda v: permutation([v, 1]),
    "Bijection": lambda v: Bijection(fin(2), fin(2), (0, v)),
    "LabeledSet": lambda v: LabeledSet((v,)),
    "LabeledSet.of": lambda v: LabeledSet.of([1, v]),
    "fin": fin,
    "k_subsets": lambda v: k_subsets(fin(3), v),
    "Orientation": lambda v: Orientation(fin(3), v),
    "Orientation.flip": lambda v: canonical_orientation(fin(3)).flip(v),
    "random_labeled_set": lambda v: random_labeled_set(Random(0), v),
    **{f"{name}_delooping": ctor for name, ctor in CONSTRUCTIONS.items()},
    "LabeledSet.position": lambda v: fin(3).position(v),
    "Bijection.__call__": lambda v: permutation([1, 0, 2])(v),
    "natural_isomorphism": lambda v: natural_isomorphism(
        cartier_delooping(3), cartier_delooping(3), squares=v
    ),
    # The square count is checked before the seed, unhashable here, is read.
    "natural_isomorphism/seed": lambda v: natural_isomorphism(
        cartier_delooping(3), cartier_delooping(3), squares=v, seed=[v]
    ),
    "parity_triangle_holds": lambda v: parity_triangle_holds(6, Random(0), trials=v),
}

# Every entry point that takes a size, fed a negative one.
NEGATIVE_SIZE_ENTRY_POINTS = {
    name: NON_INTEGER_ENTRY_POINTS[name]
    for name in (
        "fin", "k_subsets", "random_labeled_set", "natural_isomorphism",
        "natural_isomorphism/seed", "parity_triangle_holds",
    )
}

# Every constructor that takes an iterable, fed a value that is not one.
NON_ITERABLE_ENTRY_POINTS = {
    "LabeledSet": LabeledSet,
    "LabeledSet.of": LabeledSet.of,
    "Bijection": lambda v: Bijection(fin(2), fin(2), v),
    "permutation": permutation,
    "transposition_of_pair": lambda v: transposition_of_pair(fin(3), v),
    "CycleDecomposition": CycleDecomposition,
    "CycleDecomposition/cycle": lambda v: CycleDecomposition([v]),
}


@pytest.mark.parametrize("name", sorted(NON_ITERABLE_ENTRY_POINTS))
@pytest.mark.parametrize("value", [None, 5, object()], ids=["None", "5", "object"])
def test_non_iterables_are_contract_errors(name, value):
    with pytest.raises(ContractError, match="must be iterable"):
        NON_ITERABLE_ENTRY_POINTS[name](value)


@pytest.mark.parametrize("seed", [[0], {}, {0: 1}, set(), object(), None, 1.5, "x", True])
def test_natural_isomorphism_refuses_what_random_refuses(seed):
    # A seed that is not an int, hashable or not, Random's or not, is a
    # ContractError, and only after the arity check.
    Q = cartier_delooping(3)
    with pytest.raises(ContractError, match="seed must be an integer"):
        natural_isomorphism(Q, Q, squares=3, seed=seed)
    with pytest.raises(ArityMismatch):
        natural_isomorphism(Q, cartier_delooping(4), squares=3, seed=seed)


@st.composite
def disjoint_chains(draw):
    """e: A -> B and f: B -> C over three disjoint sets of labels >= 100."""
    size = draw(st.integers(1, 6))
    labels = draw(
        st.lists(st.integers(100, 10**6), min_size=3 * size, max_size=3 * size, unique=True)
    )
    A, B, C = (LabeledSet.of(labels[k * size:(k + 1) * size]) for k in range(3))
    e = Bijection(A, B, tuple(draw(st.permutations(B.elements))))
    f = Bijection(B, C, tuple(draw(st.permutations(C.elements))))
    return e, f


@pytest.mark.parametrize("name", sorted(NON_INTEGER_ENTRY_POINTS))
@given(value=non_integers)
@example(value=0.0)
@example(value=True)
@example(value=2.5)
@example(value="1")
@example(value=[1])  # unhashable: checked before anything, a cache too, hashes it
@example(value={1: 2})
def test_non_integer_labels_and_sizes_are_contract_errors(name, value):
    with pytest.raises(ContractError, match="must be an integer"):
        NON_INTEGER_ENTRY_POINTS[name](value)


@given(value=non_integers)
@example(value=True)
@example(value=1.0)
def test_non_integer_labels_are_not_members(value):
    assert value not in fin(3)


@pytest.mark.parametrize("name", sorted(NEGATIVE_SIZE_ENTRY_POINTS))
@pytest.mark.parametrize("size", [-1, -5])
def test_negative_sizes_are_contract_errors(name, size):
    with pytest.raises(ContractError, match="must be a natural number"):
        NEGATIVE_SIZE_ENTRY_POINTS[name](size)


def tr(n, i, j):
    return transposition_of_pair(fin(n), (i, j))


class TestLabeledSet:
    def test_fin(self):
        assert fin(3).elements == (0, 1, 2)
        assert fin(0).elements == ()
        assert len(fin(5)) == 5

    def test_of_sorts(self):
        assert LabeledSet.of([9, 2, 5]).elements == (2, 5, 9)

    def test_rejects_duplicates(self):
        with pytest.raises(ContractError):
            LabeledSet.of([1, 1, 2])

    def test_rejects_unsorted_direct(self):
        with pytest.raises(ContractError):
            LabeledSet((3, 1))

    def test_rejects_negative(self):
        with pytest.raises(ContractError):
            LabeledSet((-1,))

    def test_equality_by_elements_and_by_identity(self):
        built = (
            fin(3),
            LabeledSet((0, 1, 2)),
            LabeledSet.of([2, 0, 1]),
            LabeledSet.of(range(3)),
            order_bijection(LabeledSet.of([4, 8, 9])).domain,
        )
        for a, b in itertools.product(built, repeat=2):
            assert a == b and not a != b
            assert hash(a) == hash(b)
        assert {fin(3): "x"}[LabeledSet.of([1, 2, 0])] == "x"
        assert fin(3) != LabeledSet.of([0, 1, 3]) and fin(3) != fin(2)
        assert fin(3) != (0, 1, 2) and (0, 1, 2) != fin(3)

    def test_membership(self):
        X = LabeledSet.of([4, 7])
        assert 4 in X and 5 not in X
        with pytest.raises(NotMember):
            X.position(5)


class TestBijection:
    def test_identity(self):
        e = identity(fin(3))
        assert e.images == (0, 1, 2)
        assert e.moved() == ()
        assert e(2) == 2

    def test_compose_applies_left_first(self):
        # apply <0 1>, then <1 2>: 0->1->2, 1->0->0, 2->2->1
        assert tr(3, 0, 1).then(tr(3, 1, 2)).images == (2, 0, 1)

    def test_transposition_squares_to_identity(self):
        assert tr(2, 0, 1).then(tr(2, 0, 1)) == identity(fin(2))

    def test_invert(self):
        e = Bijection(fin(3), fin(3), (2, 0, 1))
        assert e.inverse().images == (1, 2, 0)

    def test_invalid_images(self):
        with pytest.raises(ContractError):
            Bijection(fin(2), fin(2), (0, 0))
        with pytest.raises(ContractError):
            Bijection(fin(2), fin(3), (0, 1))

    @pytest.mark.parametrize(
        "domain, codomain", [("ab", fin(2)), (fin(2), (0, 1)), ((0, 1), (0, 1)), (fin(2), None)]
    )
    def test_carriers_must_be_labeled_sets(self, domain, codomain):
        with pytest.raises(ContractError):
            Bijection(domain, codomain, (0, 1))

    def test_stores_codomain_positions(self):
        X, Y = LabeledSet.of([4, 9, 20]), LabeledSet.of([3, 7, 11])
        e = Bijection(X, Y, (11, 3, 7))
        assert e.positions == (2, 0, 1)
        assert e.inverse().positions == (1, 2, 0)
        assert e.inverse().images == (9, 20, 4)
        # Equal positions over other carriers are another bijection.
        assert e != Bijection(fin(3), fin(3), (2, 0, 1))
        assert e.then(e.inverse().then(order_bijection(X).inverse())).images == (0, 1, 2)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            identity(fin(2)).then(identity(fin(3)))

    def test_preimage(self):
        e = Bijection(fin(3), fin(3), (2, 0, 1))
        assert e.inverse()(2) == 0
        with pytest.raises(NotMember):
            e.inverse()(7)

    @given(bijection_chains(length=3))
    def test_associativity(self, chain):
        e, f, g = chain
        assert e.then(f).then(g) == e.then(f.then(g))

    @given(endo_bijections())
    def test_inverse_roundtrip(self, e):
        assert e.then(e.inverse()) == identity(e.domain)
        assert e.inverse().inverse() == e

    @given(disjoint_chains())
    def test_trusted_paths_match_validating_constructor(self, chain):
        e, f = chain
        trusted_paths = (
            e.then(f),
            e.inverse(),
            e.then(f).inverse(),
            identity(e.domain),
            order_bijection(e.codomain),
        )
        for trusted in trusted_paths:
            checked = Bijection(trusted.domain, trusted.codomain, trusted.images)
            assert trusted == checked and hash(trusted) == hash(checked)
            assert type(trusted.images) is tuple
        for x in e.domain:
            assert e.then(f)(x) == f(e(x))
            assert e.inverse()(e(x)) == x
        with pytest.raises(DomainMismatch):
            f.then(e)

    @given(endo_bijections())
    def test_identity_laws(self, e):
        assert identity(e.domain).then(e) == e
        assert e.then(identity(e.codomain)) == e


def _from_table(A, B, table):
    """The validated Bijection A -> B with the label images of a dict."""
    return Bijection(A, B, tuple(table[x] for x in A))


class TestLabelOracle:
    """then, inverse, calls, images, moved, == and hash agree with plain dicts
    of label images, over fin(n) and arbitrary carriers, for n = 0..6:
    itemgetter composes at n >= 2 only."""

    @given(labeled_chains(length=2), st.data())
    def test_agrees_with_dicts_of_labels(self, chain, data):
        (e, d), (f, g) = chain
        A, B, C = e.domain, e.codomain, f.codomain
        cases = (
            (e, d, A, B),
            (e.then(f), {x: g[d[x]] for x in A}, A, C),
            (e.inverse(), {y: x for x, y in d.items()}, B, A),
            (f.inverse().then(e.inverse()), {g[y]: x for x, y in d.items()}, C, A),
        )
        for b, table, X, Y in cases:
            assert (b.domain, b.codomain) == (X, Y)
            assert type(b.images) is tuple and b.images == tuple(table[x] for x in X)
            assert b.positions == tuple(Y.elements.index(table[x]) for x in X)
            assert [b(x) for x in X] == [table[x] for x in X]
            assert b.moved() == tuple(x for x in X if table[x] != x)
            twin = _from_table(X, Y, table)
            assert b == twin and hash(b) == hash(twin)
        other = dict(zip(A.elements, data.draw(st.permutations(B.elements))))
        assert (e == _from_table(A, B, other)) == (d == other)


class TestEnumerateBijections:
    def test_count_and_distinct(self):
        out = enumerate_bijections(fin(3), fin(3))
        assert len(out) == 6
        assert len(set(out)) == 6

    def test_lexicographic_order(self):
        out = enumerate_bijections(fin(3), fin(3))
        assert [e.images for e in out] == sorted(e.images for e in out)
        assert out[0] == identity(fin(3))

    def test_first_is_order_preserving(self):
        A, B = LabeledSet.of([1, 5]), LabeledSet.of([3, 9])
        out = enumerate_bijections(A, B)
        assert out[0].images == (3, 9)
        assert out[0] == order_bijection(A).inverse().then(order_bijection(B))
        assert len(out) == 2

    def test_mismatched_sizes_empty(self):
        assert enumerate_bijections(fin(2), fin(3)) == ()

    @pytest.mark.parametrize("n", range(7))
    def test_equals_the_validated_listing(self, n):
        rng = Random(n)
        carriers = (
            (fin(n), fin(n)),
            (random_labeled_set(rng, n), random_labeled_set(rng, n)),
            (fin(n), random_labeled_set(rng, n)),
        )
        for A, B in carriers:
            validated = tuple(
                Bijection(A, B, images) for images in itertools.permutations(B.elements)
            )
            assert enumerate_bijections(A, B) == validated

    def test_size_guard(self):
        with pytest.raises(SizeGuard):
            enumerate_bijections(fin(9), fin(9))


class TestSymmetricGroup:
    @pytest.mark.parametrize("n", range(7))
    def test_is_the_listing_of_fin_n(self, n):
        assert symmetric_group(n) == enumerate_bijections(fin(n), fin(n))

    @pytest.mark.parametrize("n", [True, 1.0, -1])
    def test_refuses_what_fin_refuses(self, n):
        # fin(1) already built: True and 1.0 hash like 1, yet still raise.
        assert symmetric_group(1) == symmetric_group(n=1) == (identity(fin(1)),)
        with pytest.raises(ContractError):
            symmetric_group(n)
        with pytest.raises(ContractError):
            symmetric_group(n=n)

    def test_lists_afresh_on_every_call(self):
        # Nothing keeps a listing: each caller owns the one it made.
        first = symmetric_group(4)
        assert symmetric_group(4) == first and symmetric_group(4) is not first

    def test_size_guard(self):
        with pytest.raises(SizeGuard):
            symmetric_group(9)


def test_subsets_larger_than_the_set_are_none():
    # 2**70 is past what itertools.combinations accepts as a size.
    assert k_subsets(fin(3), 4) == k_subsets(fin(3), 2**70) == ()


@pytest.mark.parametrize(
    "build", [fin, symmetric_group, cartier_delooping], ids=["fin", "symmetric_group", "cartier"]
)
def test_sizes_past_a_tuple_index_are_size_guards(build):
    # range(2**70) has no length a tuple can hold: refused before any listing.
    with pytest.raises(SizeGuard):
        build(2**70)


class TestRandomLabeledSet:
    @pytest.mark.parametrize("size", [0, 1, 5, 40])
    def test_is_a_validated_sorted_sample(self, size):
        rng, twin = Random(size), Random(size)
        X = random_labeled_set(rng, size)
        assert X == LabeledSet(X.elements) and hash(X) == hash(LabeledSet(X.elements))
        assert X.elements == tuple(sorted(twin.sample(range(100, 1_000_000), size)))
        assert [X.position(a) for a in X] == list(range(size))
        assert rng.getstate() == twin.getstate()

    def test_more_labels_than_the_range_holds_is_a_size_guard(self):
        # 999 900 labels lie in 100 <= label < 1 000 000; one more cannot be
        # drawn, and nothing is drawn before the refusal.
        rng = Random(0)
        state = rng.getstate()
        with pytest.raises(SizeGuard):
            random_labeled_set(rng, 999_901)
        assert rng.getstate() == state


class TestRandomBijection:
    @pytest.mark.parametrize("seed", range(10))
    def test_is_a_validated_sample_of_the_codomain(self, seed):
        n = seed % 7
        A, B = random_labeled_set(Random(seed + 100), n), random_labeled_set(Random(seed), n)
        rng, twin = Random(seed), Random(seed)
        e = random_bijection(rng, A, B)
        assert e == Bijection(e.domain, e.codomain, e.images)
        assert (e.domain, e.codomain) == (A, B)
        assert e.images == tuple(twin.sample(B.elements, len(B)))
        assert rng.getstate() == twin.getstate()

    def test_draws_do_not_move(self):
        # random_bijection samples positions, range(n); sample picks its
        # indices from the population's length alone, so it draws what
        # sampling B's labels draws, from the same generator state.  With
        # as many picks as points, sample always takes its pool branch.
        for n in range(41):
            A, B = fin(n), LabeledSet(range(7, 7 + 5 * n, 5))
            for seed in range(500):
                rng, twin = Random(seed), Random(seed)
                e = random_bijection(rng, A, B)
                assert e.positions == tuple(map(B._pos.__getitem__, twin.sample(B.elements, n)))
                assert rng.getstate() == twin.getstate()

    def test_sizes_must_match(self):
        with pytest.raises(WrongCardinality):
            random_bijection(Random(0), fin(2), fin(3))


class TestSubsets:
    def test_k_subsets_counts(self):
        assert len(k_subsets(fin(4), 2)) == 6
        assert len(k_subsets(fin(3), 0)) == 1
        assert k_subsets(fin(2), 5) == ()

    def test_k_subsets_order(self):
        out = k_subsets(fin(5), 2)
        assert out[0] == (0, 1)
        assert out[-1] == (3, 4)
        assert len(out) == 10


class TestSwapAndSupport:
    def test_support(self):
        assert identity(fin(4)).moved() == ()
        assert tr(4, 1, 3).moved() == (1, 3)
        assert Bijection(fin(3), fin(3), (1, 2, 0)).moved() == (0, 1, 2)

class TestTransposition:
    def test_images(self):
        assert tr(4, 1, 2).images == (0, 2, 1, 3)

    def test_arbitrary_labels(self):
        X = LabeledSet.of([2, 5, 8])
        t = transposition_of_pair(X, (2, 8))
        assert t.images == (8, 5, 2)

    def test_accepts_subset(self):
        X = fin(4)
        t = transposition_of_pair(X, LabeledSet.of([3, 0]))
        assert t.images == (3, 1, 2, 0)

    def test_errors(self):
        with pytest.raises(WrongCardinality):
            transposition_of_pair(fin(3), (0, 1, 2))
        with pytest.raises(NotSubset):
            transposition_of_pair(fin(3), (0, 7))

    def test_unique_with_pair_support(self):
        # exhaustion: the transposition is the only endo-bijection moving
        # exactly the pair
        for n in range(2, 6):
            X = fin(n)
            for P in k_subsets(X, 2):
                matching = [
                    e
                    for e in enumerate_bijections(X, X)
                    if e.moved() == P
                ]
                assert matching == [transposition_of_pair(X, P)]
