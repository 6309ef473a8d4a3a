import pytest
from hypothesis import given

from signdeloop import perms
from signdeloop.errors import ContractError, DomainMismatch
from signdeloop.finite import (
    LabeledSet,
    Bijection,
    enumerate_bijections,
    fin,
    identity,
    order_bijection,
)
from signdeloop.perms import (
    MINUS,
    PLUS,
    Sign,
    chart_sign,
    factor_into_transpositions,
    permutation,
    product_of_transpositions,
    sign_inversions,
    transposition,
)

from signdeloop.verify import Scope, sign_homomorphism

from strategies import bijection_chains, endo_bijections


def bubble_sort_parity(images):
    """Independent oracle: parity of adjacent swaps needed to sort."""
    seq = list(images)
    swaps = 0
    for i in range(len(seq)):
        for j in range(len(seq) - 1):
            if seq[j] > seq[j + 1]:
                seq[j], seq[j + 1] = seq[j + 1], seq[j]
                swaps += 1
    return Sign.of_parity(swaps)


class TestSign:
    def test_multiplication(self):
        assert PLUS * PLUS == PLUS
        assert PLUS * MINUS == MINUS
        assert MINUS * PLUS == MINUS
        assert MINUS * MINUS == PLUS

    def test_negation(self):
        assert -PLUS == MINUS
        assert -MINUS == PLUS

    def test_two_element_chart(self):
        assert Sign.of_parity(0) == PLUS and Sign.of_parity(3) == MINUS

    def test_str(self):
        assert str(PLUS) == "+1" and str(MINUS) == "-1"

    def test_multiplication_by_a_non_sign_fails(self):
        with pytest.raises(TypeError):
            PLUS * 1
        with pytest.raises(TypeError):
            1 * PLUS
        with pytest.raises(TypeError):
            MINUS * -1

    def test_products_and_negations_are_the_two_members(self):
        # The whole 2x2 table and both negations, by identity: every result
        # is one of the module's two members, never a fresh value.
        table = {
            (PLUS, PLUS): PLUS, (PLUS, MINUS): MINUS, (MINUS, PLUS): MINUS, (MINUS, MINUS): PLUS
        }
        for (a, b), product in table.items():
            assert a * b is product is Sign(a.value * b.value)
        assert -PLUS is MINUS is Sign.MINUS and -MINUS is PLUS is Sign.PLUS


class TestInversions:
    def test_frozen_small_example(self):
        e = permutation((1, 2, 0))  # out of order: (0, 2) and (1, 2)
        assert sign_inversions(e) == PLUS

    def test_identity_has_none(self):
        assert sign_inversions(identity(fin(4))) == PLUS

    def test_reversal_has_all(self):
        e = permutation((3, 2, 1, 0))
        assert sign_inversions(e) == PLUS  # 6 inversions, even

    def test_transpositions_are_built_once(self):
        assert transposition(5, 0, 1) is transposition(5, 0, 1)
        assert transposition(5, 0, 1).images == (1, 0, 2, 3, 4)
        # Arguments equal to cached ones, but not ints, still reach the
        # label checks instead of the cached entry.
        for i in (True, 1.0):
            with pytest.raises(ContractError):
                transposition(5, 0, i)

    def test_single_transposition(self):
        assert sign_inversions(transposition(4, 0, 3)) == MINUS  # 5 inversions

    def test_arbitrary_labels(self):
        X = LabeledSet.of([3, 7, 9])
        e = Bijection(X, X, (7, 9, 3))  # out of order: (3, 9) and (7, 9)
        assert sign_inversions(e) == PLUS

    def test_requires_endo(self):
        e = Bijection(fin(2), LabeledSet.of([4, 5]), (4, 5))
        with pytest.raises(DomainMismatch):
            sign_inversions(e)

    def test_requires_endo_even_when_the_images_are_cached(self):
        e = permutation((1, 0, 2))
        assert sign_inversions(e) is MINUS
        twin = Bijection(LabeledSet.of([4, 5, 6]), fin(3), e.images)
        with pytest.raises(DomainMismatch):
            sign_inversions(twin)

    def test_matches_bubble_sort_oracle_exhaustive(self):
        for e in enumerate_bijections(fin(6), fin(6)):
            assert sign_inversions(e) is bubble_sort_parity(e.images)

    def test_fills_no_memo(self):
        # The oracle counts for itself: chart_sign's memo neither answers
        # nor records it.
        before = perms._sign_of_images.cache_info()
        for e in enumerate_bijections(fin(4), fin(4)):
            sign_inversions(e)
        assert perms._sign_of_images.cache_info() == before

    @given(endo_bijections(max_size=6))
    def test_matches_bubble_sort_oracle(self, e):
        positions = tuple(e.domain.position(y) for y in e.images)
        assert sign_inversions(e) == bubble_sort_parity(positions)

    def test_homomorphism_exhaustive(self):
        for n in range(5):
            for e in enumerate_bijections(fin(n), fin(n)):
                for f in enumerate_bijections(fin(n), fin(n)):
                    assert sign_inversions(e.then(f)) == sign_inversions(
                        e
                    ) * sign_inversions(f)

    @given(endo_bijections(max_size=7))
    def test_inverse_has_same_sign(self, e):
        assert sign_inversions(e.inverse()) == sign_inversions(e)


class TestChartSign:
    @given(bijection_chains(length=1, max_size=7))
    def test_is_the_sign_of_the_relative_chart(self, chain):
        # Between two carriers, against the order-preserving bijection:
        # the composite through both order charts is an endo-bijection.
        (h,) = chain
        relative = order_bijection(h.domain).then(h).then(order_bijection(h.codomain).inverse())
        assert chart_sign(h) is bubble_sort_parity(relative.images)

    @given(endo_bijections(max_size=7))
    def test_is_the_inversion_sign_of_an_endo_bijection(self, e):
        assert chart_sign(e) is sign_inversions(e)

    def test_counts_beyond_the_enumeration_bound(self):
        reversal = permutation(range(11, -1, -1))  # 66 inversions
        assert chart_sign(reversal) is PLUS
        assert chart_sign(transposition(20, 3, 17)) is MINUS
        assert chart_sign(permutation([(i + 1) % 13 for i in range(13)])) is PLUS

    def test_large_permutations_stay_out_of_the_cache(self):
        # Hits and misses too: the cache may already be full.
        before = perms._sign_of_images.cache_info()
        ok, _ = sign_homomorphism(Scope(16, 0, {}))
        assert ok
        assert perms._sign_of_images.cache_info() == before

    def test_reads_positions_without_label_lookups(self):
        # With their position maps emptied, carriers can map no label to a
        # position: chart_sign counts off the stored positions alone, on a
        # copy of fin(4) and on other labels alike.
        for X in (LabeledSet.of(range(4)), LabeledSet.of([2, 30, 41, 500])):
            listing = enumerate_bijections(X, X)
            expected = [sign_inversions(e) for e in listing]
            object.__setattr__(X, "_pos", {})
            assert [chart_sign(e) for e in listing] == expected

    def test_maps_labels_to_positions_off_fin_n(self):
        # {0, 1, 3} starts like fin(3) but is not one: the images (0, 3, 1)
        # are stored as positions (0, 2, 1), and share that cache entry.
        X = LabeledSet.of([0, 1, 3])
        assert chart_sign(permutation((0, 2, 1))) is MINUS
        before = perms._sign_of_images.cache_info()
        assert chart_sign(Bijection(X, X, (0, 3, 1))) is MINUS
        after = perms._sign_of_images.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        for e in enumerate_bijections(X, X):
            assert chart_sign(e) is sign_inversions(e)

    def test_caches_positions_not_labels(self):
        X, Y = LabeledSet.of([100, 250, 999]), LabeledSet.of([7, 40, 123456])
        h = Bijection(X, Y, (123456, 7, 40))  # positions (2, 0, 1)
        assert chart_sign(permutation((2, 0, 1))) is PLUS
        before = perms._sign_of_images.cache_info()
        assert chart_sign(h) is PLUS
        after = perms._sign_of_images.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


def succ_cycle(k):
    """The full cycle i -> i+1 (mod k) on fin(k)."""
    return permutation([(i + 1) % k for i in range(k)])


class TestSuccCycle:
    def test_equals_adjacent_transposition_product(self):
        for k in range(1, 7):
            pairs = [(t, t + 1) for t in range(k - 1)]
            assert succ_cycle(k) == product_of_transpositions(fin(k), pairs)

    def test_sign_alternates(self):
        for k in range(1, 8):
            assert sign_inversions(succ_cycle(k)) == Sign.of_parity(k - 1)

    def test_order(self):
        e = succ_cycle(5)
        acc = identity(fin(5))
        for _ in range(5):
            acc = acc.then(e)
        assert acc == identity(fin(5))


class TestFactorisation:
    def test_frozen_example(self):
        factors = factor_into_transpositions(succ_cycle(4))
        assert factors == ((0, 1), (1, 2), (2, 3))

    def test_identity_factors_empty(self):
        assert factor_into_transpositions(identity(fin(3))) == ()

    def test_product_reconstructs_exhaustive(self):
        for n in range(6):
            X = fin(n)
            for e in enumerate_bijections(X, X):
                factors = factor_into_transpositions(e)
                assert product_of_transpositions(X, factors) == e

    @given(endo_bijections(max_size=7))
    def test_product_reconstructs_random_labels(self, e):
        factors = factor_into_transpositions(e)
        assert product_of_transpositions(e.domain, factors) == e

    @given(endo_bijections(max_size=7))
    def test_factor_count_parity_matches_sign(self, e):
        factors = factor_into_transpositions(e)
        assert Sign.of_parity(len(factors)) == sign_inversions(e)

    def test_product_applies_rightmost_first(self):
        # <0 1><1 2> sends 1 -> 2 -> 2?  No: rightmost first, 1 -> 2, then
        # <0 1> fixes 2, so 1 -> 2; and 2 -> 1 -> 0.
        e = product_of_transpositions(fin(3), [(0, 1), (1, 2)])
        assert e.images == (1, 2, 0)
