import pytest
from hypothesis import given

from signdeloop.errors import DomainMismatch
from signdeloop.finite import (
    LabeledSet,
    Bijection,
    enumerate_bijections,
    fin,
    identity,
)
from signdeloop.perms import (
    MINUS,
    PLUS,
    Sign,
    factor_into_transpositions,
    inversions,
    permutation,
    product_of_transpositions,
    sign_inversions,
    transposition,
)

from strategies import endo_bijections


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
        assert PLUS.fin2 == 0 and MINUS.fin2 == 1
        assert Sign.from_fin2(0) == PLUS and Sign.from_fin2(1) == MINUS
        assert Sign.of_parity(0) == PLUS and Sign.of_parity(3) == MINUS

    def test_str(self):
        assert str(PLUS) == "+1" and str(MINUS) == "-1"

    def test_multiplication_by_a_non_sign_fails(self):
        with pytest.raises(TypeError):
            PLUS * 1


class TestInversions:
    def test_frozen_small_example(self):
        e = permutation((1, 2, 0))
        assert inversions(e) == ((0, 2), (1, 2))
        assert sign_inversions(e) == PLUS

    def test_identity_has_none(self):
        assert inversions(identity(fin(4))) == ()
        assert sign_inversions(identity(fin(4))) == PLUS

    def test_reversal_has_all(self):
        e = permutation((3, 2, 1, 0))
        assert len(inversions(e)) == 6
        assert sign_inversions(e) == PLUS  # 6 inversions, even

    def test_single_transposition(self):
        assert sign_inversions(transposition(4, 0, 3)) == MINUS
        assert len(inversions(transposition(4, 0, 3))) == 5

    def test_arbitrary_labels(self):
        X = LabeledSet.of([3, 7, 9])
        e = Bijection(X, X, (7, 9, 3))
        assert sign_inversions(e) == PLUS
        assert inversions(e) == ((3, 9), (7, 9))

    def test_requires_endo(self):
        e = Bijection(fin(2), LabeledSet.of([4, 5]), (4, 5))
        with pytest.raises(DomainMismatch):
            inversions(e)
        with pytest.raises(DomainMismatch):
            sign_inversions(e)

    def test_requires_endo_even_when_the_images_are_cached(self):
        e = permutation((1, 0, 2))
        assert sign_inversions(e) is MINUS
        twin = Bijection(LabeledSet.of([4, 5, 6]), fin(3), e.images)
        with pytest.raises(DomainMismatch):
            sign_inversions(twin)

    def test_direct_count_matches_witness_list_exhaustive(self):
        for e in enumerate_bijections(fin(6), fin(6)):
            assert sign_inversions(e) is Sign.of_parity(len(inversions(e)))

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
