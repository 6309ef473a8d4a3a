import itertools
import math
from random import Random

import pytest
from hypothesis import given

from signdeloop.errors import (
    ContractError,
    DomainMismatch,
    MalformedDecomposition,
    NotMember,
)
from signdeloop.finite import (
    Bijection,
    LabeledSet,
    enumerate_bijections,
    fin,
    random_bijection,
    random_labeled_set,
)
from signdeloop.perms import permutation
from signdeloop.cycles import (
    CycleDecomposition,
    cycle_decompose,
    decompose_endofunction,
    recompose,
    recompose_endofunction,
)

from strategies import endo_bijections
from test_quotients import all_partitions


def all_endofunctions(n):
    """Every self-map of fin(n), as an image table."""
    X = fin(n)
    for images in itertools.product(X.elements, repeat=n):
        yield X, dict(zip(X.elements, images))


def reaches_everything(n, e):
    """Independent oracle: from every start, iteration visits every label."""
    X = fin(n)
    if n == 0:
        return False
    for x in X:
        seen = {x}
        y = x
        for _ in range(n):
            y = e(y)
            seen.add(y)
        if seen != set(X.elements):
            return False
    return True


def is_single_orbit(e):
    return len(cycle_decompose(e).cycles) == 1


def endo_without_transients(cycles):
    return recompose_endofunction((cycles, {}))


def assert_both_constructors_reject(cycles, error=MalformedDecomposition):
    for build in (CycleDecomposition, endo_without_transients):
        with pytest.raises(error):
            build(cycles)


class TestDecompositionContracts:
    """CycleDecomposition and recompose_endofunction take exactly disjoint
    orbits listed from their minimum."""

    def test_orbit_listed_from_min(self):
        dec = CycleDecomposition(([5], (2, 9, 3)))  # 2 -> 9 -> 3 -> 2
        assert dec.cycles == ((5,), (2, 9, 3))
        assert dec.carrier == LabeledSet.of([2, 3, 5, 9])
        assert recompose(dec) == Bijection(dec.carrier, dec.carrier, (9, 2, 5, 3))
        assert endo_without_transients(dec.cycles) == {5: 5, 2: 9, 9: 3, 3: 2}
        assert CycleDecomposition(()).carrier == fin(0)

    def test_rejects_empty(self):
        assert_both_constructors_reject(((0, 1), ()))

    def test_rejects_orbit_not_listed_from_min(self):
        assert_both_constructors_reject(((1, 0),))
        assert_both_constructors_reject(((5,), (9, 3, 2)))

    def test_rejects_repeated_label(self):
        assert_both_constructors_reject(((0, 1, 0),))
        assert_both_constructors_reject(((0, 0),))

    def test_rejects_overlapping_orbits(self):
        assert_both_constructors_reject(((0, 1), (1, 2)))
        assert_both_constructors_reject(((0,), (0,)))

    @pytest.mark.parametrize(
        "orbit", [frozenset({0, 1, 2}), {2, 5, 9}, {0, 1, 2}, {4}], ids=repr
    )
    def test_rejects_an_unordered_orbit(self, orbit):
        # A set lists no cycle order, however its hash order happens to read.
        for build in (CycleDecomposition, endo_without_transients):
            with pytest.raises(MalformedDecomposition, match="an orbit must be ordered"):
                build([orbit])
            with pytest.raises(MalformedDecomposition, match="an orbit must be ordered"):
                build(((7,), orbit))

    def test_ordered_orbits_of_any_sequence_type(self):
        for orbit in ((2, 9, 3), [2, 9, 3], iter([2, 9, 3])):
            assert CycleDecomposition([orbit]).cycles == ((2, 9, 3),)
        assert endo_without_transients([[2, 9, 3]]) == {2: 9, 9: 3, 3: 2}

    @pytest.mark.parametrize("label", [True, 1.0, "1", None])
    def test_rejects_a_non_int_label(self, label):
        assert_both_constructors_reject(((0, label),), ContractError)


def own_carrier_cases():
    X = random_labeled_set(Random(6), 6)
    return [permutation((1, 0, 2, 4, 5, 3)), random_bijection(Random(7), X, X)]


class TestOwnCarrier:
    """cycle_decompose builds over the very carrier it decomposes, through
    the private CycleDecomposition._over, which checks the cycles as the
    public constructor does and then that they list the carrier once each."""

    @pytest.mark.parametrize("e", own_carrier_cases(), ids=["fin6", "random6"])
    def test_decompose_and_recompose_keep_the_carrier_object(self, e):
        dec = cycle_decompose(e)
        assert dec.carrier is e.domain
        back = recompose(dec)
        assert back.domain is e.domain and back.codomain is e.domain
        assert back == e
        public = CycleDecomposition(dec.cycles)
        assert dec == public and hash(dec) == hash(public) and repr(dec) == repr(public)
        assert public.carrier == e.domain and public.carrier is not e.domain

    @pytest.mark.parametrize(
        "cycles, carrier",
        [
            (((0, 1),), fin(3)),  # misses 2
            (((0, 1, 2),), fin(2)),  # 2 lies outside
            (((0, 1), (3,)), fin(3)),  # 3 instead of 2
            (((0,), (0,), (1,)), fin(2)),  # a repeated orbit
            (((0, 1, 0),), fin(2)),  # a repeat inside an orbit
            (((1, 0),), fin(2)),  # not listed from its minimum
            (((0, 1), ()), fin(2)),  # an empty orbit
            ((), fin(1)),  # no cycles over a point
        ],
        ids=[
            "miss", "outside", "other-label", "repeated-orbit", "repeat-in-orbit",
            "not-from-min", "empty-orbit", "no-cycles",
        ],
    )
    def test_private_builder_rejects_a_carrier_not_covered_exactly(self, cycles, carrier):
        with pytest.raises(MalformedDecomposition):
            CycleDecomposition._over(cycles, carrier)

    @pytest.mark.parametrize("label", [True, 1.0, "1", None])
    def test_private_builder_rejects_a_non_int_label(self, label):
        with pytest.raises(ContractError):
            CycleDecomposition._over(((0, label),), fin(2))

    def test_private_builder_accepts_an_exact_cover(self):
        X = LabeledSet.of([2, 3, 5, 9])
        dec = CycleDecomposition._over(((5,), (2, 9, 3)), X)
        assert dec.carrier is X
        assert dec == CycleDecomposition(([5], (2, 9, 3)))


class TestIsCyclic:
    """Single-orbit recognition: a decomposition with exactly one cycle."""

    def test_matches_reachability_oracle_exhaustively(self):
        for n in range(6):
            for e in enumerate_bijections(fin(n), fin(n)):
                assert is_single_orbit(e) == reaches_everything(n, e)

    def test_cycle_counts(self):
        # exactly (n-1)! of the n! self-bijections are single cycles
        for n in range(6):
            perms = enumerate_bijections(fin(n), fin(n))
            hits = sum(map(is_single_orbit, perms))
            assert hits == (math.factorial(n - 1) if n else 0)


class TestCycleDecompose:
    def test_frozen_example(self):
        dec = cycle_decompose(permutation((1, 0, 2, 4, 5, 3)))
        assert dec.cycles == ((0, 1), (2,), (3, 4, 5))
        assert dec.carrier == fin(6)
        # 1 -> 3 -> 2 -> 1: listed from the minimum, in step order
        assert cycle_decompose(permutation((0, 3, 1, 2))).cycles == ((0,), (1, 3, 2))

    def test_requires_endo(self):
        with pytest.raises(DomainMismatch):
            cycle_decompose(Bijection(fin(2), LabeledSet.of([7, 8]), (7, 8)))

    def test_hand_built_recomposes(self):
        # labels {3, 4, 5}: the swap of 3 and 4, and 5 fixed
        swap, rest = (3, 4), (5,)
        dec = CycleDecomposition((rest, swap))
        X = LabeledSet.of([3, 4, 5])
        assert dec.carrier == X
        assert recompose(dec) == Bijection(X, X, (4, 3, 5))
        assert cycle_decompose(recompose(dec)) == CycleDecomposition((swap, rest))

    def test_overlapping_cycles_rejected(self):
        with pytest.raises(MalformedDecomposition, match="duplicate labels"):
            CycleDecomposition(((0,), (0,)))

    def test_roundtrip_exhaustive(self):
        for n in range(6):
            for e in enumerate_bijections(fin(n), fin(n)):
                assert recompose(cycle_decompose(e)) == e

    def test_canonical_forms_distinct(self):
        for n in range(6):
            forms = {
                cycle_decompose(e)
                for e in enumerate_bijections(fin(n), fin(n))
            }
            assert len(forms) == math.factorial(n)

    @given(endo_bijections(max_size=7))
    def test_roundtrip_random_labels(self, e):
        dec = cycle_decompose(e)
        assert recompose(dec) == e
        assert cycle_decompose(recompose(dec)) == dec

    def test_partition_times_steps_covers_group(self):
        # every (orbit partition, cyclic order per block) pair arises from
        # exactly one self-bijection: block B has (|B| - 1)! orbit tuples
        # (min(B),) + p, one per ordering p of the rest of B
        for n in range(1, 5):
            X = fin(n)
            rebuilt = set()
            count = 0
            for raw in all_partitions(list(X.elements)):
                blocks = sorted(tuple(sorted(B)) for B in raw)
                orbit_menus = [
                    [(B[0],) + rest for rest in itertools.permutations(B[1:])]
                    for B in blocks
                ]
                for cycles in itertools.product(*orbit_menus):
                    rebuilt.add(recompose(CycleDecomposition(cycles)))
                    count += 1
            assert count == math.factorial(n)
            assert len(rebuilt) == math.factorial(n)


class TestEndofunctions:
    def test_frozen_example(self):
        table = {0: 1, 1: 2, 2: 0, 3: 0, 4: 3, 5: 2}
        cycles, transient = dec = decompose_endofunction(fin(6), table)
        assert cycles == ((0, 1, 2),)
        assert list(transient.items()) == [(3, 0), (4, 3), (5, 2)]  # ascending
        assert recompose_endofunction(dec) == table

    def test_permutation_has_no_transient_labels(self):
        dec = decompose_endofunction(fin(3), {0: 1, 1: 2, 2: 0})
        assert dec == (((0, 1, 2),), {})

    def test_roundtrip_exhaustive(self):
        for n in range(4):
            forms = set()
            for X, table in all_endofunctions(n):
                dec = decompose_endofunction(X, table)
                assert recompose_endofunction(dec) == table
                assert decompose_endofunction(X, recompose_endofunction(dec)) == dec
                cycles, transient = dec
                forms.add((cycles, tuple(transient.items())))
            assert len(forms) == n**n

    def test_deep_chain_roundtrips(self):
        # A 20000-point chain hangs 19999 transient labels deep off its one
        # fixed point: peeling its core, and checking that every transient
        # label reaches it, must stay linear and must not recurse.
        n = 20_000
        table = {i: min(i + 1, n - 1) for i in range(n)}
        dec = decompose_endofunction(fin(n), table)
        assert dec == (((n - 1,),), {i: i + 1 for i in range(n - 1)})
        assert recompose_endofunction(dec) == table
        assert decompose_endofunction(fin(n), recompose_endofunction(dec)) == dec
        # Listed from the far end, each walk stops where the last one began.
        descending = {i: i + 1 for i in reversed(range(n - 1))}
        assert recompose_endofunction((((n - 1,),), descending)) == table

    def test_escaping_image_rejected(self):
        with pytest.raises(NotMember):
            decompose_endofunction(fin(2), {0: 1, 1: 9})

    def test_partial_mapping_rejected(self):
        with pytest.raises(NotMember):
            decompose_endofunction(fin(2), {0: 1})

    def test_transient_labels_feed_the_core(self):
        # core 0 -> 2 -> 1 -> 0; 3 feeds 2 and 4 feeds 1
        table = {0: 2, 1: 0, 2: 1, 3: 2, 4: 1}
        cycles, transient = dec = decompose_endofunction(fin(5), table)
        assert cycles == ((0, 2, 1),)
        assert transient == {3: 2, 4: 1}
        assert recompose_endofunction(dec) == table


class TestRecomposeEndofunctionChecks:
    """recompose_endofunction takes plain data, and checks each of its four
    rules itself (the cycles' own rules are TestDecompositionContracts')."""

    @pytest.mark.parametrize(
        "dec",
        [((), []), ((), {}, 1), 5, (((0,),), 5), ((5,), {})],
        ids=["list-transient", "triple", "int", "int-transient", "int-orbit"],
    )
    def test_rejects_what_is_no_pair_of_orbits_and_a_mapping(self, dec):
        with pytest.raises(MalformedDecomposition):
            recompose_endofunction(dec)

    @pytest.mark.parametrize(
        "cycles, message",
        [
            (((2, 0),), "not listed from its minimum"),
            (((),), "not listed from its minimum"),
            (((0,), (0,)), "duplicate labels"),
            (((0, 2, 0),), "duplicate labels"),
        ],
    )
    def test_rejects_malformed_cycles(self, cycles, message):
        with pytest.raises(MalformedDecomposition, match=message):
            recompose_endofunction((cycles, {1: 0}))

    def test_rejects_a_set_as_an_orbit(self):
        with pytest.raises(MalformedDecomposition, match="an orbit must be ordered"):
            recompose_endofunction(([{0, 1, 2}], {}))

    @pytest.mark.parametrize("label", [True, 0.0, "0"])
    def test_rejects_a_non_int_cycle_label(self, label):
        with pytest.raises(ContractError, match="label must be an integer"):
            recompose_endofunction((((label,),), {}))

    @pytest.mark.parametrize(
        "dec, on_cycle",
        [
            ((((0, 1),), {2: 0, 1: 0}), r"\[1\]"),
            ((((0,),), {0: 0}), r"\[0\]"),
        ],
    )
    def test_rejects_a_transient_label_on_a_cycle(self, dec, on_cycle):
        with pytest.raises(MalformedDecomposition, match=on_cycle + " lie on a cycle"):
            recompose_endofunction(dec)

    @pytest.mark.parametrize("label", [True, 1.0, "1", None])
    def test_rejects_a_non_int_transient_label(self, label):
        with pytest.raises(ContractError, match="label must be an integer"):
            recompose_endofunction((((0,),), {label: 0}))

    @pytest.mark.parametrize("image", [False, 0.0, "0", None, [0]])
    def test_rejects_a_non_int_image(self, image):
        # False and 0.0 equal the label 0, which a plain dict cannot tell.
        with pytest.raises(ContractError, match="image must be an integer"):
            recompose_endofunction((((0,),), {1: image}))

    @pytest.mark.parametrize(
        "dec, message",
        [
            ((((0,),), {1: 5}), "image 5 of 1 is not a label"),
            (((), {1: 0}), "image 0 of 1 is not a label"),
        ],
    )
    def test_rejects_an_image_that_is_no_label(self, dec, message):
        with pytest.raises(MalformedDecomposition, match=message):
            recompose_endofunction(dec)

    # A parent map, unlike a forest, can close a loop off the core.
    @pytest.mark.parametrize(
        "dec, stuck",
        [
            ((((0,),), {1: 1}), r"\[1\]"),
            ((((0,),), {3: 1, 1: 2, 2: 1}), r"\[1, 2, 3\]"),
            (((), {1: 2, 2: 1}), r"\[1, 2\]"),
            # the first walk reaches the core; the second loops
            ((((0,),), {1: 0, 2: 3, 3: 2}), r"\[2, 3\]"),
        ],
    )
    def test_rejects_transient_labels_that_never_reach_the_core(self, dec, stuck):
        with pytest.raises(MalformedDecomposition, match=stuck + " never reach the core"):
            recompose_endofunction(dec)

    @pytest.mark.parametrize("n", range(5))
    def test_accepts_exactly_the_decompositions(self, n):
        # Every pair over fin(n): a permutation of a subset as the cycles, and
        # any map from the other labels into fin(n) as transient.  Its images
        # are all labels, so only the reach rule can reject; it must reject
        # exactly the pairs whose walks loop off the core, in either listing
        # order, and accept one pair per self-map of fin(n).
        X = fin(n).elements
        tables = set()
        for k in range(n + 1):
            for core in itertools.combinations(X, k):
                rest = [x for x in X if x not in core]
                for perm in itertools.permutations(core):
                    cycles = orbits_by_hand(dict(zip(core, perm)))
                    for images in itertools.product(X, repeat=len(rest)):
                        transient = dict(zip(rest, images))
                        backwards = dict(reversed(transient.items()))
                        if not reaches_core(core, transient):
                            for t in (transient, backwards):
                                with pytest.raises(MalformedDecomposition):
                                    recompose_endofunction((cycles, t))
                            continue
                        table = recompose_endofunction((cycles, transient))
                        assert recompose_endofunction((cycles, backwards)) == table
                        assert decompose_endofunction(fin(n), table) == (cycles, transient)
                        tables.add(tuple(table[x] for x in X))
        assert len(tables) == n**n

    def test_leaves_its_input_as_it_was(self):
        cycles, transient = dec = (((0, 2),), {1: 2, 3: 1})
        table = recompose_endofunction(dec)
        assert table == {0: 2, 2: 0, 1: 2, 3: 1}
        table[1] = 0
        assert dec == (((0, 2),), {1: 2, 3: 1}) and dec[1] is transient


def orbits_by_hand(step):
    """The canonical cycles of a permutation given as a dict, found without
    the module's own orbit scan."""
    seen, cycles = set(), []
    for x in sorted(step):
        if x not in seen:
            orbit = [x]
            while step[orbit[-1]] != x:
                orbit.append(step[orbit[-1]])
            seen.update(orbit)
            cycles.append(tuple(orbit))
    return tuple(cycles)


def reaches_core(core, transient):
    """Whether every transient label's images reach core within len(transient) steps."""
    for x in transient:
        for _ in range(len(transient)):
            if x in core:
                break
            x = transient[x]
        if x not in core:
            return False
    return True
