"""Likelihood orderings: induced relation, axiom checkers, witnesses."""
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from born_kernel import (
    EventRef,
    LikelihoodOrdering,
    MeasurementFamily,
    WeightedMeasurement,
    check_dominance,
    check_equivalence,
    check_separation,
    check_totality,
    check_transitivity,
    generate_rich_family,
    induced_ordering,
    null_events,
    outcome_count_ordering,
    replay_witness,
    run_all_checks,
)
from born_kernel import ordering as ordering_module
from born_kernel.ordering import dense_ranks, subset_sum_ranks, weight_ranks, weight_vector
from conftest import own_weights, random_family


def coin_family():
    return MeasurementFamily(
        (WeightedMeasurement("coin", ("h", "t"), (Fraction(1, 2), Fraction(1, 2))),)
    )


def skewed_family():
    return MeasurementFamily(
        (WeightedMeasurement("m", ("o1", "o2"), (Fraction(1, 4), Fraction(3, 4))),)
    )


def count_trap_family():
    """Two equal-weight events with different outcome counts."""
    return MeasurementFamily(
        (
            WeightedMeasurement("a", ("o1", "o2"), (Fraction(1, 2), Fraction(1, 2))),
            WeightedMeasurement(
                "b", ("o1", "o2", "o3"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
            ),
        )
    )


class TestInducedOrdering:
    def test_coin_heads_tails_equal(self):
        ordering = induced_ordering(coin_family())
        h = ordering.index[EventRef("coin", frozenset({"h"}))]
        t = ordering.index[EventRef("coin", frozenset({"t"}))]
        assert ordering.matrix[h, t] and ordering.matrix[t, h]

    def test_everything_beats_empty(self):
        family = skewed_family()
        ordering = induced_ordering(family)
        empty = ordering.index[EventRef("m", frozenset())]
        for ref in ordering.refs:
            assert ordering.matrix[ordering.index[ref], empty]

    def test_strict_by_rational_oracle(self):
        family = skewed_family()
        ordering = induced_ordering(family)
        o1 = ordering.index[EventRef("m", frozenset({"o1"}))]
        o2 = ordering.index[EventRef("m", frozenset({"o2"}))]
        assert Fraction(3, 4) > Fraction(1, 4)
        assert ordering.matrix[o2, o1] and not ordering.matrix[o1, o2]

    def test_total_relation(self):
        ordering = induced_ordering(count_trap_family())
        m = ordering.matrix
        assert np.all(m | m.T)

    def test_induced_ordering_builds_one_matrix(self):
        """The ordering keeps the read-only matrix it is handed: one n x n
        array at peak, not a second copy of it."""
        family = generate_rich_family(7, 7)
        family.refs, weight_vector(family)  # warm the caches
        n = family.event_count()
        tracemalloc.start()
        try:
            induced_ordering(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * n * n, (peak, n * n)

    def test_matrix_its_owner_can_still_write_is_copied(self):
        family = coin_family()
        n = family.event_count()
        writable = np.ones((n, n), dtype=bool)
        view = writable.view()
        view.setflags(write=False)
        for given in (writable, view):
            ordering = LikelihoodOrdering(family, family.refs, given)
            writable[0, 1] = False
            assert ordering.matrix[0, 1] and not ordering.matrix.flags.writeable
            writable[0, 1] = True

    @pytest.mark.parametrize("attribute", ["matrix", "ranks", "family", "extra"])
    def test_setting_an_attribute_is_refused_by_name(self, attribute):
        """A matrix ordering and a rank ordering alike are read-only."""
        family = coin_family()
        matrix = LikelihoodOrdering(family, family.refs, np.ones((4, 4), dtype=bool))
        for ordering in (matrix, induced_ordering(family)):
            with pytest.raises(AttributeError, match=f"cannot set '{attribute}'"):
                setattr(ordering, attribute, None)
            assert ordering.family is family and ordering.ranks is not None

    def test_weights_stay_on_each_measurement_denominator(self):
        """500 two-outcome measurements on nearly coprime 200-bit
        denominators: over their common denominator (about 10^5 bits)
        the 2,000 weight numerators took about 25 MB."""
        dens = [2**200 + 2 * i + 1 for i in range(500)]
        family = MeasurementFamily(tuple(
            WeightedMeasurement(f"m{i:03}", ("a", "b"), (Fraction(1, d), Fraction(d - 1, d)))
            for i, d in enumerate(dens)
        ))
        tracemalloc.start()
        try:
            ordering = induced_ordering(family)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 10**6, peak
        weights = weight_vector(family)
        for i in (0, 1, 2, 1001, 1998, 1999):
            for j in (0, 1, 2, 1001, 1998, 1999):
                assert ordering.matrix[i, j] == (weights[i] >= weights[j])


@given(st.lists(
    st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=50), max_size=4),
    min_size=1, max_size=4,
))
def test_subset_sum_ranks_rank_the_rational_sums(rows):
    """Rows on their own denominators rank as the concatenated sums do."""
    sums = [
        sum((v for i, v in enumerate(row) if mask >> i & 1), Fraction(0))
        for row in rows
        for mask in range(2 ** len(row))
    ]
    assert subset_sum_ranks(rows).tolist() == dense_ranks(sums).tolist()


class TestTransitivity:
    def test_induced_satisfied(self):
        report = check_transitivity(induced_ordering(count_trap_family()))
        assert report.satisfied and not report.witnesses

    def test_hand_violation_witnessed(self):
        family = MeasurementFamily(
            (WeightedMeasurement("m", ("a", "b"), (Fraction(1, 2), Fraction(1, 2))),)
        )
        refs = family.refs
        index = {r: i for i, r in enumerate(refs)}
        a = EventRef("m", frozenset({"a"}))
        b = EventRef("m", frozenset({"b"}))
        c = EventRef("m", frozenset({"a", "b"}))
        matrix = np.eye(len(refs), dtype=bool)
        matrix[index[a], index[b]] = True
        matrix[index[b], index[c]] = True
        # a >= b, b >= c, but not a >= c
        ordering = LikelihoodOrdering(family, refs, matrix)
        report = check_transitivity(ordering)
        assert not report.satisfied
        assert (a, b, c) in report.witnesses
        for witness in report.witnesses:
            assert replay_witness(ordering, "Transitivity", witness)

    def test_count_ordering_transitive_by_exhaustive_triples(self):
        """Independent oracle: raw triple loops over the full relation."""
        rng = np.random.default_rng(3)
        family = random_family(rng, max_measurements=3, max_outcomes=3)
        ordering = outcome_count_ordering(family)
        report = check_transitivity(ordering)
        n = len(ordering.refs)
        h = ordering.matrix
        brute_ok = all(
            (not (h[i, j] and h[j, k])) or h[i, k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )
        assert brute_ok
        assert report.satisfied == brute_ok


class TestSeparation:
    def test_coin_satisfied_with_evidence(self):
        report = check_separation(induced_ordering(coin_family()))
        assert report.satisfied and not report.witnesses
        assert report.evidence is not None
        assert own_weights(coin_family()).value(report.evidence) > 0

    def test_everywhere_equal_relation_violated(self):
        family = coin_family()
        refs = family.refs
        matrix = np.ones((len(refs), len(refs)), dtype=bool)
        ordering = LikelihoodOrdering(family, refs, matrix)
        report = check_separation(ordering)
        assert not report.satisfied
        # Every event replays as null.
        assert len(report.witnesses) == len(refs)
        for witness in report.witnesses:
            assert replay_witness(ordering, "Separation", witness)

    def test_single_certain_outcome(self):
        family = MeasurementFamily(
            (WeightedMeasurement("m", ("o1",), (Fraction(1),)),)
        )
        assert own_weights(family).value(EventRef("m", frozenset({"o1"}))) == 1 > 0
        report = check_separation(induced_ordering(family))
        assert report.satisfied
        assert report.evidence == EventRef("m", frozenset({"o1"}))


class TestDominance:
    def test_induced_satisfied(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            family = random_family(rng, max_measurements=3, max_outcomes=5)
            report = check_dominance(induced_ordering(family))
            assert report.satisfied, report.witnesses[:3]

    def test_shrinking_event_ranked_higher_is_witnessed(self):
        family = MeasurementFamily(
            (WeightedMeasurement("m", ("a", "b"), (Fraction(1, 2), Fraction(1, 2))),)
        )
        ordering = induced_ordering(family)
        matrix = np.array(ordering.matrix)
        a = EventRef("m", frozenset({"a"}))
        ab = EventRef("m", frozenset({"a", "b"}))
        i, j = ordering.index[a], ordering.index[ab]
        matrix[i, j] = True
        matrix[j, i] = False  # {a} strictly above {a,b} despite w(b) > 0
        broken = LikelihoodOrdering(family, ordering.refs, matrix)
        report = check_dominance(broken)
        assert not report.satisfied
        assert (a, ab) in report.witnesses
        for witness in report.witnesses:
            assert replay_witness(broken, "Dominance", witness)

    def test_zero_weight_outcome_forces_equality(self):
        family = MeasurementFamily(
            (
                WeightedMeasurement(
                    "m", ("o1", "o2", "o3"), (Fraction(1, 2), Fraction(1, 2), Fraction(0))
                ),
            )
        )
        ordering = induced_ordering(family)
        o1 = EventRef("m", frozenset({"o1"}))
        o13 = EventRef("m", frozenset({"o1", "o3"}))
        # Rational additivity oracle: w({o1, o3}) = 1/2 + 0 = w({o1}).
        weights = own_weights(family)
        assert weights.value(o13) == weights.value(o1) == Fraction(1, 2)
        i, j = ordering.index[o13], ordering.index[o1]
        assert ordering.matrix[i, j] and ordering.matrix[j, i]
        assert check_dominance(ordering).satisfied

        # Breaking that tie must trip the dominance check.
        matrix = np.array(ordering.matrix)
        matrix[j, i] = False
        broken = LikelihoodOrdering(family, ordering.refs, matrix)
        assert not check_dominance(broken).satisfied

    def test_pair_across_two_measurements_does_not_replay(self):
        """E subset-of F relates events of one measurement: a pair from two
        measurements is no Dominance witness, whatever its outcome labels."""
        family = MeasurementFamily((
            WeightedMeasurement("m1", ("o1", "o2"), (Fraction(1, 2), Fraction(1, 2))),
            WeightedMeasurement("m2", ("o1", "o2"), (Fraction(1, 4), Fraction(3, 4))),
        ))
        ordering = induced_ordering(family)
        assert all(report.satisfied for report in run_all_checks(ordering))
        pair = (EventRef("m1", frozenset({"o1"})), EventRef("m2", frozenset({"o1"})))
        assert not replay_witness(ordering, "Dominance", pair)


def test_families_equal_up_to_measurement_order_hash_alike():
    """Equal families are one dict key, whatever order their measurements
    were given in."""
    a, b = count_trap_family().measurements
    first, second = MeasurementFamily((a, b)), MeasurementFamily((b, a))
    assert first == second and first.measurements != second.measurements
    assert hash(first) == hash(second)
    assert {first: "first"}[second] == "first" and {second: "second"}[first] == "second"


class TestWeightRanks:
    def test_ranked_once_per_family(self, monkeypatch):
        """The induced ordering and the Equivalence checks of it and of
        the outcome-count control share one ranking of the weights."""
        calls = []
        rank = ordering_module.subset_sum_ranks
        monkeypatch.setattr(
            ordering_module, "subset_sum_ranks", lambda rows: calls.append(1) or rank(rows)
        )
        family = generate_rich_family(5, 5)
        induced = induced_ordering(family)
        assert check_equivalence(induced).satisfied
        assert not check_equivalence(outcome_count_ordering(family)).satisfied
        assert len(calls) == 1

    def test_cached_ranks_are_read_only(self):
        ranks = weight_ranks(skewed_family())
        assert ranks.tolist() == [0, 1, 2, 3]
        with pytest.raises(ValueError):
            ranks[0] = 3


class TestEquivalence:
    def test_induced_satisfied(self):
        report = check_equivalence(induced_ordering(count_trap_family()))
        assert report.satisfied

    def test_count_ordering_violates_and_witness_replays(self):
        family = count_trap_family()
        ordering = outcome_count_ordering(family)
        report = check_equivalence(ordering)
        assert not report.satisfied
        weights = own_weights(family)
        for witness in report.witnesses:
            a, b = witness
            assert weights.value(a) == weights.value(b)
            i, j = ordering.index[a], ordering.index[b]
            assert not (ordering.matrix[i, j] and ordering.matrix[j, i])
            assert replay_witness(ordering, "Equivalence", witness)
        # The advertised trap pair is among the witnesses in some order.
        pair = {
            EventRef("b", frozenset({"o2", "o3"})),
            EventRef("b", frozenset({"o1"})),
        }
        assert any(set(w) == pair for w in report.witnesses)

    def test_many_witnesses_stay_positions(self):
        """The K=7 control's 91,276 witnesses are held as a position array,
        not as ref tuples: the check peaked at 12.5 MB when it built them."""
        ordering = outcome_count_ordering(generate_rich_family(7, 7))
        ordering.family.refs  # warm the cache
        tracemalloc.start()
        try:
            report = check_equivalence(ordering)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.witnesses) == 91276
        assert peak < 8 * 10**6, peak

    def test_vacuous_when_no_equal_weights(self):
        family = MeasurementFamily(
            (WeightedMeasurement("m", ("a", "b"), (Fraction(1, 3), Fraction(2, 3))),)
        )
        # All eight event weights distinct: 0, 1/3, 2/3, 1 -- plus nothing
        # else; the count rule cannot disagree on equal weights that are
        # only ever reflexive.
        ordering = outcome_count_ordering(family)
        assert check_equivalence(ordering).satisfied

    def test_missing_diagonal_of_a_lone_weight_is_witnessed(self):
        """An event whose a >= a is missing is a witness (a, a) even when
        no other event shares its weight; the check skipped such events."""
        family = MeasurementFamily((WeightedMeasurement("m", ("o",), (Fraction(1),)),))
        matrix = np.array(induced_ordering(family).matrix)
        matrix[0, 0] = False
        cut = LikelihoodOrdering(family, family.refs, matrix)
        empty = EventRef("m", frozenset())
        assert check_equivalence(cut).witnesses == ((empty, empty),)
        assert replay_witness(cut, "Equivalence", (empty, empty))


class TestTotality:
    def test_induced_satisfied(self):
        assert check_totality(induced_ordering(count_trap_family())).satisfied

    def test_pair_cleared_both_ways_is_witnessed(self):
        family = MeasurementFamily((
            WeightedMeasurement("a", ("x", "y"), (Fraction(1, 3), Fraction(2, 3))),
            WeightedMeasurement("b", ("p", "q"), (Fraction(1, 5), Fraction(4, 5))),
        ))
        induced = induced_ordering(family)
        x, p = EventRef("a", frozenset({"x"})), EventRef("b", frozenset({"p"}))
        matrix = np.array(induced.matrix)
        matrix[induced.index[x], induced.index[p]] = False
        matrix[induced.index[p], induced.index[x]] = False
        cut = LikelihoodOrdering(family, induced.refs, matrix)
        report = check_totality(cut)
        assert not report.satisfied and report.witnesses == ((x, p),)
        assert replay_witness(cut, "Totality", (x, p))
        assert not replay_witness(induced, "Totality", (x, p))

    def test_block_scan_matches_the_whole_matrix_formula(self):
        family = generate_rich_family(6, 6)  # 486 events: more than one block
        n = family.event_count()
        matrix = np.random.default_rng(5).random((n, n)) < 0.9
        ordering = LikelihoodOrdering(family, family.refs, matrix)
        rows, cols = np.nonzero(np.triu(~(matrix | matrix.T)))
        refs = ordering.refs
        expected = tuple((refs[i], refs[j]) for i, j in zip(rows, cols))
        assert len(expected) > 1000
        assert check_totality(ordering).witnesses == expected

    def test_missing_reflexive_pair_is_a_diagonal_witness(self):
        induced = induced_ordering(coin_family())
        matrix = np.array(induced.matrix)
        matrix[0, 0] = False
        cut = LikelihoodOrdering(coin_family(), induced.refs, matrix)
        empty = EventRef("coin", frozenset())
        assert check_totality(cut).witnesses == ((empty, empty),)


class TestNullEvents:
    def test_null_iff_zero_weight_for_induced(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            family = random_family(rng, max_measurements=4, max_outcomes=5)
            ordering = induced_ordering(family)
            weights = own_weights(family)
            expected = {r for r in ordering.refs if weights.value(r) == 0}
            assert null_events(ordering) == expected

    def test_empty_event_always_null(self):
        ordering = induced_ordering(coin_family())
        assert EventRef("coin", frozenset()) in null_events(ordering)

    def test_zero_weight_outcome_null(self):
        family = MeasurementFamily(
            (
                WeightedMeasurement(
                    "m", ("o1", "o2", "o3"), (Fraction(1, 2), Fraction(1, 2), Fraction(0))
                ),
            )
        )
        assert EventRef("m", frozenset({"o3"})) in null_events(
            induced_ordering(family)
        )


class TestOutcomeCountOrdering:
    def test_single_outcome_events_equal_within_uniform(self):
        family = MeasurementFamily(
            (
                WeightedMeasurement(
                    "u",
                    ("a", "b", "c"),
                    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
                ),
            )
        )
        ordering = outcome_count_ordering(family)
        singles = [ordering.index[EventRef("u", frozenset({o}))] for o in ("a", "b", "c")]
        for x in singles:
            for y in singles:
                assert ordering.matrix[x, y] and ordering.matrix[y, x]

    def test_transitive(self):
        assert check_transitivity(
            outcome_count_ordering(count_trap_family())
        ).satisfied

    def test_zero_weight_outcomes_do_not_count(self):
        family = MeasurementFamily(
            (
                WeightedMeasurement(
                    "m", ("o1", "o2"), (Fraction(1), Fraction(0))
                ),
            )
        )
        ordering = outcome_count_ordering(family)
        o2 = ordering.index[EventRef("m", frozenset({"o2"}))]
        empty = ordering.index[EventRef("m", frozenset())]
        assert ordering.matrix[o2, empty] and ordering.matrix[empty, o2]


class TestInducedPassesEverything:
    def test_all_axioms_on_random_families(self):
        rng = np.random.default_rng(21)
        for _ in range(10):
            family = random_family(rng, max_measurements=4, max_outcomes=6)
            for report in run_all_checks(induced_ordering(family)):
                assert report.satisfied, (report.axiom, report.witnesses[:3])

    def test_every_single_flip_trips_a_check_on_a_rich_family(self):
        """On a rich family the axioms pin the relation entry by entry.

        Each weight value is realized by several events, so corrupting
        any one relation entry is caught: diagonal flips break the
        E = F case of dominance, flips between equal-weight events break
        equivalence, and flips across a strict weight gap break
        transitivity through an equal-weight partner.
        """
        family = generate_rich_family(3, 3)
        ordering = induced_ordering(family)
        n = len(ordering.refs)
        for i in range(n):
            for j in range(n):
                matrix = np.array(ordering.matrix)
                matrix[i, j] = not matrix[i, j]
                mutated = LikelihoodOrdering(family, ordering.refs, matrix)
                reports = run_all_checks(mutated)
                assert any(not r.satisfied for r in reports), (
                    ordering.refs[i].label(),
                    ordering.refs[j].label(),
                )
