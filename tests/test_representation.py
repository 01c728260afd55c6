"""Representing measures: rich families, derivation, verification, search."""
import itertools
import math
import re
import sys
import time
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from born_kernel import (
    EventRef,
    LikelihoodOrdering,
    MeasurementFamily,
    MissingUniformMeasurement,
    NonconformingDenominator,
    PreconditionViolated,
    ProbabilityAssignment,
    RefinementSpec,
    SearchSpaceTooLarge,
    SizeLimitExceeded,
    WeightedMeasurement,
    coarse_event_probability_invariance,
    derive_representation,
    generate_rich_family,
    induced_ordering,
    make_rich_measurement,
    outcome_count_ordering,
    rational_weight,
    replay_witness,
    run_all_checks,
    uniform_measurement,
    uniqueness_search,
    verify_representation,
)
from born_kernel import ordering as ordering_module
from born_kernel import representation as representation_module
from born_kernel.formats import assignment_to_json
from born_kernel.ordering import (
    ALL_CHECKS,
    MAX_EXTENSIONAL_EVENTS,
    _from_relation,
    _PairRows,
    dense_ranks,
)
from born_kernel.representation import MAX_SEARCH_STEPS, compositions
from conftest import (
    grid_measurement,
    lcm_of_denominators,
    order_matrix,
    own_weights,
    random_family,
    whole_matrix_verify,
)


def brute_compositions(total, parts):
    """Oracle: every tuple of ``parts`` positive integers summing to
    ``total``, in lexicographic order."""
    splits = itertools.product(range(1, total + 1), repeat=parts)
    return [c for c in splits if sum(c) == total]


@pytest.mark.parametrize("total", range(1, 6))
def test_compositions_are_every_positive_split_in_lexicographic_order(total):
    for parts in range(1, total + 2):
        assert list(compositions(total, parts)) == brute_compositions(total, parts)


RICH_2 = generate_rich_family(2, 2)
# Every call where a count enters, as (id, name of the count, call).
COUNT_CALLS = [
    ("generate-K", "K", lambda v: generate_rich_family(v, 2)),
    ("generate-max-outcomes", "max_outcomes", lambda v: generate_rich_family(2, v)),
    ("uniform-K", "K", uniform_measurement),
    ("derive-K", "K", lambda v: derive_representation(induced_ordering(RICH_2), v)),
    ("search-K", "K", lambda v: uniqueness_search(induced_ordering(RICH_2), v)),
    ("coarse-K", "K", lambda v: coarse_event_probability_invariance(
        MeasurementFamily((uniform_measurement(2),)), RefinementSpec("uniform-2", "u1", 2), v)),
    ("rational-max-den", "max_den", lambda v: rational_weight(
        make_rich_measurement((Fraction(1, 2), Fraction(1, 2))), {"o1"}, v)),
]
NOT_COUNTS = [(True, "True"), (2.0, "2.0"), ("2", "string"), (None, "None"), (0, "0"),
              (-1, "negative")]


@pytest.mark.parametrize(
    "call, name, value",
    [pytest.param(call, name, value, id=f"{cid}-{vid}")
     for cid, name, call in COUNT_CALLS for value, vid in NOT_COUNTS],
)
def test_a_nonpositive_grid_constant_is_refused(call, name, value):
    """A grid constant, bound or index is an int or NumPy integer of at
    least 1, never a bool: anything else gets the one count rule's
    ValueError, which names the count and the value."""
    with pytest.raises(ValueError) as info:
        call(value)
    assert type(info.value) is ValueError
    assert str(info.value) == f"{name} must be an integer of at least 1, got {value!r}"


def test_a_numpy_integer_grid_constant_gives_what_the_int_gives():
    family = generate_rich_family(np.int64(3), np.uint8(3))
    assert family == generate_rich_family(3, 3)
    assert uniform_measurement(np.int32(3)) == uniform_measurement(3)
    ordering = induced_ordering(family)
    derived = derive_representation(ordering, np.int64(3))
    assert derived == derive_representation(ordering, 3)
    assert assignment_to_json(derived) == assignment_to_json(derive_representation(ordering, 3))
    assert uniqueness_search(ordering, np.int64(3)) == uniqueness_search(ordering, 3) == [derived]
    model = make_rich_measurement((Fraction(1, 3), Fraction(2, 3)))
    assert rational_weight(model, {"o1"}, np.int64(4)) == rational_weight(model, {"o1"}, 4)


class TestGenerateRichFamily:
    def test_k2_max2(self):
        family = generate_rich_family(2, 2)
        got = {m.weights for m in family.measurements}
        assert got == {(Fraction(1),), (Fraction(1, 2), Fraction(1, 2))}

    def test_k4_max2_matches_composition_oracle(self):
        family = generate_rich_family(4, 2)
        got = {m.weights for m in family.measurements}
        expected = set()
        for n in (1, 2):
            for parts in brute_compositions(4, n):
                expected.add(tuple(Fraction(p, 4) for p in parts))
        assert got == expected
        assert (Fraction(1, 4), Fraction(3, 4)) in got
        assert (Fraction(1, 2), Fraction(1, 2)) in got
        assert (Fraction(3, 4), Fraction(1, 4)) in got

    def test_k1_single_certain(self):
        family = generate_rich_family(1, 3)
        assert len(family.measurements) == 1
        assert family.measurements[0].weights == (Fraction(1),)

    def test_size_formula_matches_enumeration(self):
        for K, mx in [(2, 2), (4, 3), (5, 5), (6, 4)]:
            family = generate_rich_family(K, mx)
            events = sum(math.comb(K - 1, n - 1) * 2**n for n in range(1, mx + 1))
            assert family.event_count() == events
            brute = sum(len(brute_compositions(K, n)) for n in range(1, mx + 1))
            assert len(family.measurements) == brute

    @pytest.mark.parametrize(
        "K, mx, at_least",
        [
            (4, 3, None),  # within the cap
            (10, 10, False),  # closed form
            (6000, 2, False),  # passes the cap only at its last term
            (100, 5, True),
            (100, 99, True),
            (20000, 10000, True),  # at least 79,998; summed to the end it took 45 s
        ],
    )
    def test_cap_refusal_says_at_least_only_for_a_stopped_sum(self, K, mx, at_least):
        terms = (math.comb(K - 1, n - 1) * 2**n for n in range(1, min(K, mx) + 1))
        if at_least is None:
            exact = sum(terms)
            assert exact <= MAX_EXTENSIONAL_EVENTS
            assert generate_rich_family(K, mx).event_count() == exact
            return
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded) as info:
            generate_rich_family(K, mx)
        assert time.perf_counter() - start < 0.5
        found = re.search(r"family has (at least )?([\d,]+) events", str(info.value))
        count = int(found[2].replace(",", ""))
        assert bool(found[1]) is at_least
        if at_least:
            # The first partial sum past the cap, with terms left over.
            partial = 0
            while partial <= MAX_EXTENSIONAL_EVENTS:
                partial += next(terms)
            assert count == partial and next(terms, None) is not None
        else:
            assert count == sum(terms)

    @pytest.mark.parametrize("cap, count", [(18, "66"), (17, "at least 18")])
    def test_partial_sum_stops_only_past_the_cap(self, monkeypatch, cap, count):
        """K = 5 with up to 3 outcomes sums 2, 18, 66.  At a cap of 18 the
        sum of 18 is not past it, so the sum runs to its last term and the
        refusal names the exact count; at 17 it stops there."""
        for module in (ordering_module, representation_module):
            monkeypatch.setattr(module, "MAX_EXTENSIONAL_EVENTS", cap)
        with pytest.raises(SizeLimitExceeded, match=f"family has {count} events"):
            generate_rich_family(5, 3)

    @pytest.mark.parametrize("K", [6308, 6309, 6310, 10_001, 100_000])
    def test_closed_form_refusal_names_the_count_or_its_bit_length(self, K):
        """2 * 3**(K - 1) prints exactly up to 10,000 bits (to K = 6309), and
        past that as 2**b, b the count's bit length less one."""
        n = 2 * 3 ** (K - 1)
        count = f"{n:,}" if n.bit_length() <= 10_000 else f"at least 2**{n.bit_length() - 1:,}"
        with pytest.raises(SizeLimitExceeded) as info:
            generate_rich_family(K, K)
        assert f"family has {count} events;" in str(info.value)

    @pytest.mark.parametrize("K", [10**6, 10**9])
    def test_closed_form_refusal_builds_no_power_of_3(self, K):
        """3**(10**9 - 1) would take hundreds of MB and minutes."""
        start = time.perf_counter()
        with pytest.raises(SizeLimitExceeded) as info:
            generate_rich_family(K, K)
        assert time.perf_counter() - start < 0.5
        # (K - 1) log2 3 lies at least 0.08 from an integer at both K.
        b = 1 + int((K - 1) * math.log2(3))
        assert f"family has at least 2**{b:,} events;" in str(info.value)

    def test_cap_enforced(self):
        with pytest.raises(SizeLimitExceeded):
            generate_rich_family(64, 12)

    def test_uniform_present_when_max_allows(self):
        family = generate_rich_family(4, 4)
        uniform = [m for m in family.measurements if len(m.outcomes) == 4]
        assert any(
            all(w == Fraction(1, 4) for w in m.weights) for m in uniform
        )


def check_calls(fn, *args):
    """Names of the axiom checks entered, however bound, while fn runs."""
    codes = {check.__code__ for check in ALL_CHECKS}
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return calls


class TestDeriveRepresentation:
    def test_rich_4_4_exhaustive_conditions_oracle(self):
        """Derived values equal weights; conditions checked by raw loops."""
        family = generate_rich_family(4, 4)
        ordering = induced_ordering(family)
        pr = derive_representation(ordering, 4)
        weights = own_weights(family)
        for ref in ordering.refs:
            assert pr.value(ref) == weights.value(ref)

        # Condition 1: boundaries.
        for m in family.measurements:
            assert pr.value(EventRef(m.id, frozenset())) == 0
            assert pr.value(EventRef(m.id, frozenset(m.outcomes))) == 1
        # Condition 2: additivity over every disjoint pair.
        for m in family.measurements:
            outcome_sets = [
                frozenset(c)
                for r in range(len(m.outcomes) + 1)
                for c in itertools.combinations(m.outcomes, r)
            ]
            for e in outcome_sets:
                for f in outcome_sets:
                    if e & f:
                        continue
                    assert pr.value(EventRef(m.id, e | f)) == pr.value(
                        EventRef(m.id, e)
                    ) + pr.value(EventRef(m.id, f))
        # Condition 3: order agreement over every ordered pair.
        for a in ordering.refs:
            for b in ordering.refs:
                geq = ordering.matrix[ordering.index[a], ordering.index[b]]
                assert (pr.value(a) >= pr.value(b)) == geq

    def test_k1_certain(self):
        family = generate_rich_family(1, 1)
        pr = derive_representation(induced_ordering(family), 1)
        assert pr.value(EventRef("k1", frozenset({"o1"}))) == 1

    def test_missing_uniform(self):
        family = generate_rich_family(4, 3)
        with pytest.raises(MissingUniformMeasurement):
            derive_representation(induced_ordering(family), 4)

    def test_nonconforming_denominator(self):
        family = MeasurementFamily(
            (
                uniform_measurement(4),
                WeightedMeasurement(
                    "thirds", ("a", "b"), (Fraction(1, 3), Fraction(2, 3))
                ),
            )
        )
        with pytest.raises(NonconformingDenominator):
            derive_representation(induced_ordering(family), 4)

    def test_failing_axiom_named(self):
        family = MeasurementFamily(
            (
                uniform_measurement(4),
                WeightedMeasurement(
                    "m", ("a", "b"), (Fraction(1, 4), Fraction(3, 4))
                ),
            )
        )
        ordering = outcome_count_ordering(family)
        with pytest.raises(PreconditionViolated) as err:
            derive_representation(ordering, 4)
        assert err.value.axiom == "Equivalence"
        assert err.value.report is {r.axiom: r for r in ordering.reports}["Equivalence"]
        assert not err.value.report.satisfied and err.value.report.witnesses

    def test_derive_after_run_all_checks_runs_no_check(self):
        ordering = induced_ordering(generate_rich_family(4, 4))
        assert len(check_calls(run_all_checks, ordering)) == len(ALL_CHECKS)
        assert check_calls(derive_representation, ordering, 4) == []

    def test_always_verifies_when_preconditions_hold(self):
        rng = np.random.default_rng(17)
        for _ in range(8):
            K = int(rng.choice([2, 3, 4, 6]))
            measurements = [
                grid_measurement(rng, f"m{i}", K, max_outcomes=4)
                for i in range(int(rng.integers(1, 4)))
            ]
            family = MeasurementFamily(
                tuple(measurements) + (uniform_measurement(K),)
            )
            ordering = induced_ordering(family)
            pr = derive_representation(ordering, K)
            ok, witnesses = verify_representation(pr, ordering)
            assert ok and not witnesses


COIN = MeasurementFamily(
    (WeightedMeasurement("m", ("a", "b"), (Fraction(1, 2), Fraction(1, 2))),)
)

# Families with 1-3 measurements of 1-4 outcomes; each outcome gets a
# nonnegative numerator over its measurement's total, which is positive.
outcome_numerators = st.lists(
    st.lists(st.integers(0, 9), min_size=1, max_size=4).filter(any),
    min_size=1,
    max_size=3,
)


def uniformly_weighted(family):
    """The family with every measurement's outcomes weighted equally."""
    return MeasurementFamily(tuple(
        WeightedMeasurement(m.id, m.outcomes, (Fraction(1, len(m.outcomes)),) * len(m.outcomes))
        for m in family.measurements
    ))


class TestProbabilityAssignment:
    def test_signed_measure_rejected(self):
        # -1/2 and 3/2 sum to 1 and induce a consistent value order; only
        # nonnegativity tells this signed measure from a probability.
        with pytest.raises(ValueError, match="negative"):
            ProbabilityAssignment.from_singletons(
                COIN, {("m", "a"): Fraction(-1, 2), ("m", "b"): Fraction(3, 2)}
            )

    def test_values_not_summing_to_one_rejected(self):
        with pytest.raises(ValueError, match="9/10"):
            ProbabilityAssignment.from_singletons(
                COIN, {("m", "a"): Fraction(1, 2), ("m", "b"): Fraction(2, 5)}
            )

    def test_every_outcome_needs_exactly_one_value(self):
        with pytest.raises(ValueError, match="missing value"):
            ProbabilityAssignment.from_singletons(COIN, {("m", "a"): Fraction(1)})
        with pytest.raises(ValueError, match="not an outcome"):
            ProbabilityAssignment.from_singletons(
                COIN,
                {("m", "a"): Fraction(1), ("m", "b"): Fraction(0), ("m", "c"): 0},
            )

    def test_ref_outside_the_family_is_a_value_error(self):
        pr = own_weights(COIN)
        with pytest.raises(ValueError, match="unknown measurement 'x'"):
            pr.value(EventRef("x", frozenset()))
        with pytest.raises(ValueError, match="unknown outcome 'c'"):
            pr.value(EventRef("m", frozenset({"c"})))

    def test_equal_for_the_same_family_and_the_same_values(self):
        family = generate_rich_family(3, 2)
        pr = own_weights(family)
        reordered = MeasurementFamily(family.measurements[::-1])
        assert pr == own_weights(family)
        assert pr == ProbabilityAssignment(reordered, dict(pr.singletons))
        values = dict(pr.singletons)
        values[("k1-2", "o1")], values[("k1-2", "o2")] = values[("k1-2", "o2")], values[("k1-2", "o1")]
        assert pr != ProbabilityAssignment(family, values)

    def test_unequal_for_the_same_values_over_other_weights(self):
        family = generate_rich_family(3, 2)
        uniform = uniformly_weighted(family)
        values = dict(own_weights(family).singletons)
        assert uniform != family
        assert ProbabilityAssignment(uniform, values) != own_weights(family)

    def test_measure_is_the_family_reweighted(self):
        family = generate_rich_family(3, 3)
        assert own_weights(family).measure == family
        uniform = uniformly_weighted(family)
        assert ProbabilityAssignment(family, own_weights(uniform).singletons).measure == uniform

    @given(outcome_numerators)
    def test_vector_is_per_bit_sums_and_json_round_trips(self, numerators):
        from born_kernel.formats import assignment_from_json, assignment_to_json

        # The family's weights are uniform; the assignment is another measure.
        family = MeasurementFamily(tuple(
            WeightedMeasurement(f"m{k}", tuple(f"o{i}" for i in range(len(nums))),
                                (Fraction(1, len(nums)),) * len(nums))
            for k, nums in enumerate(numerators)
        ))
        singletons = {
            (f"m{k}", f"o{i}"): Fraction(n, sum(nums))
            for k, nums in enumerate(numerators)
            for i, n in enumerate(nums)
        }
        pr = ProbabilityAssignment(family, singletons)
        for mid, sl in family.slices.items():
            outcomes = family.by_id[mid].outcomes
            for mask in range(sl.stop - sl.start):
                raw = sum(
                    (singletons[(mid, o)] for i, o in enumerate(outcomes) if mask >> i & 1),
                    Fraction(0),
                )
                assert pr.vector[sl.start + mask] == raw
        assert assignment_from_json(assignment_to_json(pr), family) == pr


class TestVerifyRepresentation:
    def test_weights_are_a_representation(self):
        family = generate_rich_family(3, 3)
        ordering = induced_ordering(family)
        pr = own_weights(family)
        ok, witnesses = verify_representation(pr, ordering)
        assert ok and not witnesses

    def test_perturbed_value_caught_with_order_witness(self):
        K = 4
        family = generate_rich_family(K, 2)
        ordering = induced_ordering(family)
        values = dict(own_weights(family).singletons)
        # 1/4, 3/4 -> 1/2, 1/2: still a probability measure, a wrong one.
        values[("k1-3", "o1")] = values[("k1-3", "o2")] = Fraction(1, 2)
        pr = ProbabilityAssignment(family, values)
        ok, witnesses = verify_representation(pr, ordering)
        assert not ok and witnesses
        assert witnesses == whole_matrix_verify(pr, ordering)[1]

    def test_family_mismatch(self):
        fam_a = generate_rich_family(2, 2)
        fam_b = generate_rich_family(3, 2)
        pr = own_weights(fam_a)
        from born_kernel import FamilyMismatch

        with pytest.raises(FamilyMismatch):
            verify_representation(pr, induced_ordering(fam_b))

    def test_single_certain_measurement_forced(self):
        family = generate_rich_family(1, 1)
        ordering = induced_ordering(family)
        pr = ProbabilityAssignment.from_singletons(
            family, {("k1", "o1"): Fraction(1)}
        )
        ok, _ = verify_representation(pr, ordering)
        assert ok

    def test_values_are_ranked_as_integers(self, monkeypatch):
        """On a 14-outcome measurement, 16,384 distinct values, the values
        are ranked with no Fraction comparison: sorting the Fractions was
        182,511 calls to Fraction.__lt__."""
        K = 2**14 - 1
        bits = WeightedMeasurement(
            "bits", tuple(f"b{i}" for i in range(14)), tuple(Fraction(2**i, K) for i in range(14))
        )
        family = MeasurementFamily((bits,))
        ordering = induced_ordering(family)
        pr = own_weights(family)
        calls = []
        less = Fraction.__lt__
        monkeypatch.setattr(Fraction, "__lt__", lambda a, b: calls.append(1) or less(a, b))
        assert verify_representation(pr, ordering) == (True, ())
        assert not calls

    def test_non_total_relation_fails_order_condition(self):
        """Value comparisons are total, so a partial relation cannot agree."""
        family = generate_rich_family(2, 2)
        refs = family.refs
        partial = LikelihoodOrdering(
            family, refs, np.eye(len(refs), dtype=bool)
        )
        pr = own_weights(family)
        ok, witnesses = verify_representation(pr, partial)
        assert not ok and witnesses
        assert witnesses == whole_matrix_verify(pr, partial)[1]

    def test_failing_verify_holds_only_its_witnesses(self):
        """At K=8 (4,374 events, 18 row blocks) a wrong assignment's
        46,458 witnesses are listed a block of rows at a time: the whole
        n x n comparison held three 19 MB arrays at once, a 57.5 MB peak."""
        family = generate_rich_family(8, 8)
        ordering = induced_ordering(family)
        values = dict(own_weights(family).singletons)
        m = next(m for m in family.canonical if m.weights[0] != m.weights[1])
        for o in m.outcomes[:2]:
            values[(m.id, o)] = (m.weights[0] + m.weights[1]) / 2
        wrong = ProbabilityAssignment(family, values)
        tracemalloc.start()
        try:
            ok, witnesses = verify_representation(wrong, ordering)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not ok and len(witnesses) == 46458
        assert peak < 16 * 2**20
        assert witnesses == whole_matrix_verify(wrong, ordering)[1]

    def test_failing_verify_at_k9_counts_its_witnesses_without_listing_them(self):
        """At K=9 (13,122 events) a wrong assignment's 262,962 witnesses
        are counted by one scan of the relation and held as a row source,
        not an array; rows are built only when read."""
        family = generate_rich_family(9, 9)
        ordering = induced_ordering(family)
        values = dict(own_weights(family).singletons)
        m = next(m for m in family.canonical if m.weights[0] != m.weights[1])
        for o in m.outcomes[:2]:
            values[(m.id, o)] = (m.weights[0] + m.weights[1]) / 2
        wrong = ProbabilityAssignment(family, values)
        tracemalloc.start()
        try:
            ok, witnesses = verify_representation(wrong, ordering)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not ok and len(witnesses) == 262962
        assert isinstance(witnesses._rows, _PairRows)
        assert peak < 16 * 2**20
        weights = own_weights(family)
        for e, f in witnesses[:3] + witnesses[-3:]:
            assert (wrong.value(e) >= wrong.value(f)) != (weights.value(e) >= weights.value(f))


@st.composite
def mixed_denominator_assignments(draw):
    """(assignment, ordering): 2-3 measurements of 2-4 outcomes, each on
    its own denominator with a 1/den weight, so the rows' denominators
    differ and the values are ranked as integer numerators over their
    common denominator.  The ordering is induced by the weights; the
    assignment is the weights themselves, or them with one measurement's
    values drawn afresh."""
    dens = draw(st.lists(st.integers(2, 9), min_size=2, max_size=3, unique=True))

    def split(den, n):
        cuts = sorted(draw(st.lists(st.integers(0, den - 1), min_size=n - 2, max_size=n - 2)))
        parts = [1] + [b - a for a, b in zip([0] + cuts, cuts + [den - 1])]
        return tuple(Fraction(p, den) for p in parts)

    measurements = []
    for i, den in enumerate(dens):
        n = draw(st.integers(2, 4))
        measurements.append(WeightedMeasurement(f"m{i}", tuple(f"o{j}" for j in range(n)),
                                                split(den, n)))
    family = MeasurementFamily(tuple(measurements))
    values = dict(own_weights(family).singletons)
    if draw(st.booleans()):
        m = draw(st.sampled_from(measurements))
        fresh = split(draw(st.integers(2, 9)), len(m.outcomes))
        values.update(zip([(m.id, o) for o in m.outcomes], draw(st.permutations(fresh))))
    return ProbabilityAssignment(family, values), induced_ordering(family)


@settings(max_examples=150, deadline=None)
@given(mixed_denominator_assignments())
def test_verify_matches_the_whole_matrix_comparison(drawn):
    assignment, ordering = drawn
    assert verify_representation(assignment, ordering) == whole_matrix_verify(assignment, ordering)


def test_verify_matches_the_whole_matrix_comparison_past_64_bits():
    """Measurements on two 33-bit primes: the family's common denominator
    passes 64 bits, so its weights, and the assignments' values, are
    ranked as Fractions."""
    half = Fraction(1, 2)
    measurements = [WeightedMeasurement("a", ("x", "y"), (half, half))]
    for prime in (4294967311, 4294967357):
        weights = (Fraction(1, prime), half - Fraction(1, prime), half)
        measurements.append(WeightedMeasurement(f"p{prime}", ("x", "y", "z"), weights))
    family = MeasurementFamily(tuple(measurements))
    assert lcm_of_denominators(family).bit_length() > 64
    own = own_weights(family)
    values = dict(own.singletons)
    m = measurements[1]
    values.update(zip([(m.id, o) for o in m.outcomes], m.weights[::-1]))
    swapped = ProbabilityAssignment(family, values)
    induced = induced_ordering(family)
    assert verify_representation(own, induced)[0] and not verify_representation(swapped, induced)[0]
    for assignment in (own, swapped):
        for ordering in (induced, outcome_count_ordering(family)):
            expected = whole_matrix_verify(assignment, ordering)
            assert verify_representation(assignment, ordering) == expected


def naive_uniqueness_oracle(family, ordering, K):
    """Dumb independent search: filter compositions per measurement with

    raw Fraction loops over the full event space, then join across
    measurements checking every cross pair.  No shared code with the
    library's search.
    """
    per_measurement = []
    mids = sorted(m.id for m in family.measurements)
    for mid in mids:
        m = family.by_id[mid]
        n = len(m.outcomes)
        survivors = []
        all_vectors = [
            v
            for v in itertools.product(range(K + 1), repeat=n)
            if sum(v) == K
        ]
        subsets = [
            frozenset(c)
            for r in range(n + 1)
            for c in itertools.combinations(m.outcomes, r)
        ]
        for v in all_vectors:
            val = {
                s: sum(
                    Fraction(v[m.outcomes.index(o)], K) for o in s
                )
                for s in subsets
            }
            good = all(
                (val[a] >= val[b])
                == ordering.matrix[family.position(mid, a), family.position(mid, b)]
                for a in subsets
                for b in subsets
            )
            if good:
                survivors.append(v)
        per_measurement.append((mid, subsets, survivors))

    results = []
    for combo in itertools.product(*[s for _, _, s in per_measurement]):
        values = {}
        for (mid, subsets, _), v in zip(per_measurement, combo):
            m = family.by_id[mid]
            for s in subsets:
                values[EventRef(mid, s)] = sum(
                    (Fraction(v[m.outcomes.index(o)], K) for o in s),
                    Fraction(0),
                )
        good = all(
            (values[a] >= values[b]) == ordering.matrix[ordering.index[a], ordering.index[b]]
            for a in values
            for b in values
        )
        if good:
            results.append(values)
    return results


class TestUniquenessSearch:
    def test_rich_2_2_exactly_one(self):
        family = generate_rich_family(2, 2)
        ordering = induced_ordering(family)
        found = uniqueness_search(ordering, 2)
        assert len(found) == 1
        weights = own_weights(family)
        assert all(found[0].value(r) == weights.value(r) for r in ordering.refs)

    def test_count_ordering_has_no_representation(self):
        family = MeasurementFamily(
            (
                WeightedMeasurement(
                    "a", ("o1", "o2"), (Fraction(1, 2), Fraction(1, 2))
                ),
                WeightedMeasurement(
                    "b",
                    ("o1", "o2", "o3"),
                    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                ),
            )
        )
        assert uniqueness_search(outcome_count_ordering(family), 4) == []

    def test_k1_trivial(self):
        family = generate_rich_family(1, 1)
        found = uniqueness_search(induced_ordering(family), 1)
        assert len(found) == 1
        assert found[0].value(EventRef("k1", frozenset({"o1"}))) == 1

    def test_caps(self):
        """(1/2, 1/2) at K = 4 * 10**6 would try every value of its middle
        tier; the one step cap refuses it quickly, by name."""
        half = MeasurementFamily(
            (WeightedMeasurement("h", ("a", "b"), (Fraction(1, 2), Fraction(1, 2))),)
        )
        ordering = induced_ordering(half)
        start = time.perf_counter()
        with pytest.raises(SearchSpaceTooLarge, match=f"{MAX_SEARCH_STEPS:,}.*MAX_SEARCH_STEPS"):
            uniqueness_search(ordering, 4 * 10**6)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("cap", [19, 18])
    def test_step_cap_boundary(self, monkeypatch, cap):
        """(1/2, 1/2) at K = 10 tries exactly 19 values: 0 for the empty
        event's tier, then each of 1..9 for the singletons' tier, each
        followed by 10 for the full event's tier.  A cap of 19 passes."""
        monkeypatch.setattr(representation_module, "MAX_SEARCH_STEPS", cap)
        half = MeasurementFamily(
            (WeightedMeasurement("h", ("a", "b"), (Fraction(1, 2), Fraction(1, 2))),)
        )
        ordering = induced_ordering(half)
        if cap == 19:
            assert uniqueness_search(ordering, 10) == [own_weights(half)]
        else:
            with pytest.raises(SearchSpaceTooLarge, match="more than 18 values"):
                uniqueness_search(ordering, 10)

    @pytest.mark.parametrize("K", range(2, 9))
    def test_full_rich_family_has_exactly_its_own_weights(self, K):
        family = generate_rich_family(K, K)
        assert uniqueness_search(induced_ordering(family), K) == [own_weights(family)]

    def test_16384_tiers_need_no_recursion(self):
        """Every subset of 14 bits has its own weight: one tier per event."""
        K = 2**14 - 1
        bits = WeightedMeasurement(
            "bits", tuple(f"b{i}" for i in range(14)), tuple(Fraction(2**i, K) for i in range(14))
        )
        family = MeasurementFamily((bits,))
        assert uniqueness_search(induced_ordering(family), K) == [own_weights(family)]

    def test_denominator_check(self):
        family = MeasurementFamily(
            (WeightedMeasurement("m", ("a", "b"), (Fraction(1, 3), Fraction(2, 3))),)
        )
        with pytest.raises(NonconformingDenominator):
            uniqueness_search(induced_ordering(family), 4)

    def test_quarter_quarter_half_against_naive_oracle(self):
        """Search result matches the dumb brute-force oracle exactly."""
        target = WeightedMeasurement(
            "m", ("x", "y", "z"), (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        )
        family = MeasurementFamily(
            generate_rich_family(4, 4).measurements + (target,)
        )
        ordering = induced_ordering(family)

        oracle = naive_uniqueness_oracle(family, ordering, 4)
        assert len(oracle) == 1
        found = uniqueness_search(ordering, 4)
        assert len(found) == 1
        assert [found[0].value(r) for r in ordering.refs] == [
            oracle[0][r] for r in ordering.refs
        ]
        assert found[0].value(EventRef("m", frozenset({"x"}))) == Fraction(1, 4)
        assert found[0].value(EventRef("m", frozenset({"y"}))) == Fraction(1, 4)
        assert found[0].value(EventRef("m", frozenset({"z"}))) == Fraction(1, 2)

        # The derivation lands on the same assignment.
        derived = derive_representation(ordering, 4)
        assert derived == found[0]

    def test_non_rich_family_can_have_many_representations(self):
        """Without the uniform grid witness, uniqueness genuinely fails."""
        family = MeasurementFamily(
            (WeightedMeasurement("m", ("a", "b"), (Fraction(1, 8), Fraction(7, 8))),)
        )
        found = uniqueness_search(induced_ordering(family), 8)
        # (1,7), (2,6), (3,5): all reproduce the strict order a < b.
        assert len(found) == 3
        rich = MeasurementFamily(family.measurements + (uniform_measurement(8),))
        found_rich = uniqueness_search(induced_ordering(rich), 8)
        assert len(found_rich) == 1


@st.composite
def grid_orderings(draw):
    """(ordering, K): at most 3 measurements of at most 4 outcomes on the
    1/K grid, K <= 6, ordered by their weights with or without the uniform
    K-outcome measurement, by outcome count, by integer scores, or by
    their weights with one entry flipped."""
    kind = draw(st.sampled_from(["induced", "uniform", "count", "scores", "flipped"]))
    uniform = kind == "uniform"
    K = draw(st.integers(1, 4 if uniform else 6))
    measurements = []
    for i in range(draw(st.integers(1, 3)) - uniform):
        n = draw(st.integers(1, 4))
        cuts = sorted(draw(st.lists(st.integers(0, K), min_size=n - 1, max_size=n - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [K])]
        measurements.append(WeightedMeasurement(
            f"m{i}", tuple(f"o{j}" for j in range(n)), tuple(Fraction(p, K) for p in parts)
        ))
    if uniform:
        measurements.append(uniform_measurement(K))
    family = MeasurementFamily(tuple(measurements))
    if kind == "count":
        return outcome_count_ordering(family), K
    n = family.event_count()
    if kind == "scores":
        scores = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        return LikelihoodOrdering(family, family.refs, order_matrix(scores)), K
    ordering = induced_ordering(family)
    if kind == "flipped":
        matrix = ordering.matrix.copy()
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrix[i, j] = not matrix[i, j]
        ordering = LikelihoodOrdering(family, family.refs, matrix)
    return ordering, K


@settings(max_examples=150, deadline=None)
@given(grid_orderings())
def test_search_matches_the_naive_oracle(drawn):
    """The same assignments as the brute-force definition, in its order."""
    ordering, K = drawn
    found = uniqueness_search(ordering, K)
    oracle = naive_uniqueness_oracle(ordering.family, ordering, K)
    assert [{r: a.value(r) for r in ordering.refs} for a in found] == oracle


@st.composite
def grid_families(draw):
    """(family, K): at most 2 measurements of at most 4 outcomes on the
    1/K grid, K <= 4, with the uniform K-outcome measurement."""
    K = draw(st.integers(1, 4))
    measurements = [uniform_measurement(K)]
    for i in range(draw(st.integers(0, 2))):
        n = draw(st.integers(1, 4))
        cuts = sorted(draw(st.lists(st.integers(0, K), min_size=n - 1, max_size=n - 1)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [K])]
        measurements.append(WeightedMeasurement(
            f"m{i}", tuple(f"o{j}" for j in range(n)), tuple(Fraction(p, K) for p in parts)
        ))
    return MeasurementFamily(tuple(measurements)), K


@st.composite
def renamed_grid_families(draw):
    """(family, renamed, rename, K): a `grid_families` family, and the
    same family with its ids renamed so that their canonical order
    reverses, each measurement's outcomes permuted under fresh labels.
    ``rename`` maps each (id, outcome) to its new name."""
    family, K = draw(grid_families())
    renamed, rename = [], {}
    for j, m in enumerate(reversed(family.canonical)):
        order = draw(st.permutations(range(len(m.outcomes))))
        labels = tuple(f"q{i}" for i in range(len(order)))
        renamed.append(WeightedMeasurement(
            f"x{j}", labels, tuple(m.weights[i] for i in order)
        ))
        rename.update({(m.id, m.outcomes[i]): (f"x{j}", q) for q, i in zip(labels, order)})
    return family, MeasurementFamily(tuple(renamed)), rename, K


@settings(max_examples=100, deadline=None)
@given(renamed_grid_families())
def test_derive_and_search_map_across_a_renaming(drawn):
    """Neither the measurement ids' order nor the outcomes' order or
    labels change a derived value or the one representing measure."""
    family, renamed, rename, K = drawn
    ids = {old[0]: new[0] for old, new in rename.items()}
    assert [ids[m.id] for m in family.canonical] == [m.id for m in reversed(renamed.canonical)]
    ordering, other = induced_ordering(family), induced_ordering(renamed)
    derived = derive_representation(ordering, K).singletons
    mapped = {rename[k]: v for k, v in derived.items()}
    assert derive_representation(other, K).singletons == mapped
    [found], [found_renamed] = uniqueness_search(ordering, K), uniqueness_search(other, K)
    assert found.singletons == derived
    assert found_renamed.singletons == mapped


@settings(max_examples=100, deadline=None)
@given(grid_families(), st.data())
def test_a_copied_measurement_changes_no_old_value(drawn, data):
    """Padding: a copy of one measurement under a fresh id leaves every
    check of the induced ordering passing, every old event's derived
    value as it was, and gives the copy the values of its original."""
    family, K = drawn
    m = data.draw(st.sampled_from(family.canonical))
    padded = MeasurementFamily(family.measurements + (replace(m, id="copy"),))
    ordering = induced_ordering(padded)
    assert all(report.satisfied for report in run_all_checks(ordering))
    old = derive_representation(induced_ordering(family), K)
    new = derive_representation(ordering, K)
    assert all(new.value(ref) == old.value(ref) for ref in family.refs)
    assert all(new.singletons[("copy", o)] == old.singletons[(m.id, o)] for o in m.outcomes)


@st.composite
def renamed_relations(draw):
    """(ordering, renamed ordering, mapref): on a `renamed_grid_families`
    pair, the outcome-count control, a rank ordering of random scores, or
    those scores' matrix with one entry flipped, and the same relation on
    the renamed family; ``mapref`` renames an event."""
    family, renamed, rename, _ = draw(renamed_grid_families())
    ids = {old[0]: new[0] for old, new in rename.items()}

    def mapref(ref):
        mid = ref.measurement_id
        return EventRef(ids[mid], frozenset(rename[(mid, o)][1] for o in ref.event))

    n = family.event_count()
    moved = (mapref(family.ref_at(p)) for p in range(n))
    # The old position of each renamed one.
    back = np.argsort([renamed.position(ref.measurement_id, ref.event) for ref in moved])
    kind = draw(st.sampled_from(["control", "scores", "flipped"]))
    if kind == "control":
        ordering, other = outcome_count_ordering(family), outcome_count_ordering(renamed)
        assert np.array_equal(other.ranks, ordering.ranks[back])
        return ordering, other, mapref
    ranks = dense_ranks(draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    if kind == "scores":
        ordering = _from_relation(family, ranks)
        return ordering, _from_relation(renamed, ranks[back]), mapref
    matrix = ranks[:, None] >= ranks
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    matrix[i, j] = not matrix[i, j]
    return (LikelihoodOrdering(family, family.refs, matrix),
            LikelihoodOrdering(renamed, renamed.refs, matrix[np.ix_(back, back)]), mapref)


# Totality orients a pair by canonical order and Transitivity names the
# first middle event in it; both orders change under a renaming.
_RENAMING_KEYS = {"Totality": frozenset, "Transitivity": lambda w: (w[0], w[2])}


@settings(max_examples=100, deadline=None)
@given(renamed_relations())
def test_checks_map_across_a_renaming(drawn):
    """Each check's verdict, witness count and witness set map across a
    renaming of measurement ids and outcome labels, Totality's pairs
    compared unordered and Transitivity's by (a, c); Separation's
    evidence maps to an event that is not null."""
    ordering, other, mapref = drawn
    for check in ALL_CHECKS:
        report, renamed_report = check(ordering), check(other)
        key = _RENAMING_KEYS.get(report.axiom, tuple)
        assert report.satisfied == renamed_report.satisfied, report.axiom
        assert len(report.witnesses) == len(renamed_report.witnesses), report.axiom
        mapped = {key(tuple(map(mapref, w))) for w in report.witnesses}
        assert mapped == {key(w) for w in renamed_report.witnesses}, report.axiom
        if report.evidence is not None:
            assert not replay_witness(other, "Separation", (mapref(report.evidence),))


class TestWeightAgreementBothDirections:
    def test_ordering_iff_weights(self):
        rng = np.random.default_rng(29)
        for _ in range(6):
            family = random_family(rng, max_measurements=3, max_outcomes=5)
            ordering = induced_ordering(family)
            weights = own_weights(family)
            for a in ordering.refs:
                for b in ordering.refs:
                    geq = ordering.matrix[ordering.index[a], ordering.index[b]]
                    assert geq == (weights.value(a) >= weights.value(b))

    def test_strict_monotonicity_across_denominator_64(self):
        """Every grid value with denominator <= 64 ranks strictly by value."""
        fractions = sorted(
            {Fraction(n, d) for d in range(1, 65) for n in range(0, d + 1)}
        )
        interior = [p for p in fractions if 0 < p < 1]
        family = MeasurementFamily(
            tuple(
                WeightedMeasurement(
                    f"p{p.numerator}_{p.denominator}", ("hit", "miss"), (p, 1 - p)
                )
                for p in interior
            )
        )
        ordering = induced_ordering(family)
        refs = [
            EventRef(f"p{p.numerator}_{p.denominator}", frozenset({"hit"}))
            for p in interior
        ]
        ranks = np.array([ordering.index[r] for r in refs])
        matrix = ordering.matrix
        # Vectorized: p < q everywhere means strictly-above one way only.
        idx = ranks
        forward = matrix[np.ix_(idx, idx)]
        upper = np.triu(np.ones(len(idx), dtype=bool), k=1)
        assert not forward[upper].any()  # no p >= q for p < q
        assert forward.T[upper].all()  # every q >= p
        # Spot-check the derived strict relation on sampled pairs.
        rng = np.random.default_rng(41)
        for _ in range(500):
            i, j = sorted(rng.integers(0, len(interior), size=2))
            if i == j:
                continue
            assert matrix[idx[j], idx[i]] and not matrix[idx[i], idx[j]]
