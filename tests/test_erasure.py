"""Erasure games, reachable sets, refinement, and coarse invariance."""
import itertools
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from born_kernel import (
    BranchCollision,
    BranchLabel,
    BranchState,
    GameSpec,
    IndexOutOfRange,
    MeasurementFamily,
    ReachableSet,
    RefinementSpec,
    UnknownOutcome,
    WeightOutOfRange,
    WeightedMeasurement,
    WeightsDontSumToOne,
    ZeroWeightRefinement,
    coarse_event_probability_invariance,
    derive_representation,
    erase,
    induced_ordering,
    play_game,
    reachable_set,
    refine,
    refine_family,
    sets_equal,
    suboutcome_image,
    three_outcome_game,
    uniform_measurement,
)
from born_kernel.erasure import THREE_OUTCOME_RESULTS, _with_uniform
from born_kernel.ordering import EventRef
from conftest import subprocess_env

GAME1 = GameSpec(frozenset({"up"}))
GAME2 = GameSpec(frozenset({"down"}))
HALF = [("up", Fraction(1, 2)), ("down", Fraction(1, 2))]


class TestPlayGame:
    def test_game1_state(self):
        state = play_game(HALF, GAME1)
        assert state.branches == (
            (BranchLabel("up", True), Fraction(1, 2)),
            (BranchLabel("down", False), Fraction(1, 2)),
        )

    def test_game2_swaps_rewards(self):
        state = play_game(HALF, GAME2)
        flags = {label.result: label.reward for label, _ in state.branches}
        assert flags == {"up": False, "down": True}

    def test_certain_single_branch(self):
        state = play_game([("up", Fraction(1))], GAME1)
        assert len(state.branches) == 1
        label, w = state.branches[0]
        assert label.reward and w == 1

    def test_weights_must_sum_to_one(self):
        with pytest.raises(WeightsDontSumToOne):
            play_game([("up", Fraction(1, 2)), ("down", Fraction(1, 4))], GAME1)

    def test_weights_must_be_positive(self):
        with pytest.raises(ValueError):
            play_game([("up", Fraction(0)), ("down", Fraction(1))], GAME1)


class TestErase:
    def test_relabels_results(self):
        state = play_game(HALF, GAME1)
        up, down = (label for label, _ in state.branches)
        erased = erase(state, {up: 1, down: 2}, index_range=2)
        labels = {label for label, _ in erased.branches}
        assert labels == {
            BranchLabel("erased", True, 1),
            BranchLabel("erased", False, 2),
        }

    def test_single_branch(self):
        state = play_game([("up", Fraction(1))], GAME1)
        (label, _), = state.branches
        erased = erase(state, {label: 1}, index_range=1)
        assert erased.branches == ((BranchLabel("erased", True, 1), Fraction(1)),)

    def test_game2_reaches_the_same_state_as_game1(self):
        """Canonical-equality oracle: the two games meet after erasure."""
        s1 = play_game(HALF, GAME1)
        s2 = play_game(HALF, GAME2)
        up1, down1 = (label for label, _ in s1.branches)
        up2, down2 = (label for label, _ in s2.branches)
        i, j = 1, 2
        e1 = erase(s1, {up1: i, down1: j}, index_range=2)
        e2 = erase(s2, {down2: i, up2: j}, index_range=2)
        assert e1.canonical_key() == e2.canonical_key()

    def test_index_out_of_range(self):
        state = play_game(HALF, GAME1)
        up, down = (label for label, _ in state.branches)
        with pytest.raises(IndexOutOfRange):
            erase(state, {up: 3, down: 1}, index_range=2)

    @pytest.mark.parametrize("index", [True, 2.0, 1.5, "1", None])
    def test_non_integer_index_is_refused_naming_value_and_branch(self, index):
        state = play_game(HALF, GAME1)
        up, down = (label for label, _ in state.branches)
        with pytest.raises(ValueError) as info:
            erase(state, {up: 1, down: index}, index_range=2)
        assert not isinstance(info.value, IndexOutOfRange)
        assert f"got {index!r}" in str(info.value) and "down;no reward" in str(info.value)


class TestReachableSets:
    def test_half_gives_four_states_each_and_equal(self):
        s1 = reachable_set(HALF, GAME1, index_range=2)
        s2 = reachable_set(HALF, GAME2, index_range=2)
        assert len(s1) == len(s2) == 4
        assert sets_equal(s1, s2)

    def test_quarter_sets_disjoint(self):
        prep = [("up", Fraction(1, 4)), ("down", Fraction(3, 4))]
        s1 = reachable_set(prep, GAME1, index_range=2)
        s2 = reachable_set(prep, GAME2, index_range=2)
        assert not sets_equal(s1, s2)
        assert not (s1.states & s2.states)

    def test_equal_iff_half_across_denominator_32(self):
        values = sorted(
            {Fraction(n, d) for d in range(2, 33) for n in range(1, d)}
        )
        for p in values:
            prep = [("up", p), ("down", 1 - p)]
            for index_range in range(1, 5):
                s1 = reachable_set(prep, GAME1, index_range)
                s2 = reachable_set(prep, GAME2, index_range)
                assert sets_equal(s1, s2) == (p == Fraction(1, 2))

    def test_empty_sets_equal(self):
        """Two no-reward branches at R = 1, or three at R = 2, reach nothing."""
        at_one = ReachableSet(1, (), ((1, 2), (1, 2)))
        at_two = ReachableSet(2, ((1, 6),), ((1, 6), (1, 3), (1, 3)))
        assert len(at_one) == len(at_two) == 0
        assert at_one.states == at_two.states == frozenset()
        assert sets_equal(at_one, at_two) and at_one == at_two
        assert hash(at_one) == hash(at_two)
        assert at_one != ReachableSet(2, (), ((1, 2), (1, 2)))

    def test_constructor_sorts_each_flag(self):
        a = ReachableSet(3, (), ((2, 3), (1, 3)))
        assert a.unrewarded == ((1, 3), (2, 3))
        assert a == ReachableSet(3, (), ((1, 3), (2, 3)))


def per_choice_reachable_set(prep, game, index_range):
    """The oracle: erase the played state for every microstate choice,
    skip the choices that collide, and key each erased state by its
    `canonical_key`; returns the frozenset of keys."""
    state = play_game(prep, game)
    labels = [label for label, _ in state.branches]
    keys = set()
    for assignment in itertools.product(range(1, index_range + 1), repeat=len(labels)):
        try:
            erased = erase(state, dict(zip(labels, assignment)), index_range)
        except BranchCollision:
            continue
        keys.add(erased.canonical_key())
    return frozenset(keys)


# Below 5e-13, so the squared amplitude rounds to 0 in a float key.
TINY = Fraction(1, 10**13)


@st.composite
def erasure_games(draw):
    """1-4 branches with random rational weights, one of them TINY at
    times, a random reward subset, and an index range of 1-5."""
    n = draw(st.integers(1, 4))
    tiny = n > 1 and draw(st.booleans())
    parts = draw(st.lists(st.integers(1, 12), min_size=n - tiny, max_size=n - tiny))
    weights = [Fraction(p, sum(parts)) * (1 - TINY if tiny else 1) for p in parts]
    results = [f"r{i}" for i in range(n)]
    prep = list(zip(results, weights + [TINY] * tiny))
    rewarded = draw(st.sets(st.sampled_from(results)))
    return prep, GameSpec(frozenset(rewarded)), draw(st.integers(1, 5))


@settings(max_examples=150, deadline=None)
@given(erasure_games())
# Two no-reward branches collide on every shared index.
@example(([("a", Fraction(1, 3)), ("b", Fraction(1, 3)), ("c", Fraction(1, 3))],
          GameSpec(frozenset({"a"})), 2))
# The TINY branch keeps its exact weight in every key, and collides.
@example(([("a", 1 - TINY), ("b", TINY)], GameSpec(frozenset()), 2))
def test_reachable_set_matches_the_per_choice_oracle(game):
    prep, spec, index_range = game
    reached = reachable_set(prep, spec, index_range)
    keys = per_choice_reachable_set(prep, spec, index_range)
    assert len(reached) == len(keys)
    assert "states" not in vars(reached)
    assert reached.states == keys


@st.composite
def pairs_of_erasure_games(draw):
    """Two games: the first, then one with another index range, another
    reward subset, or all of it drawn afresh."""
    prep, spec, index_range = draw(erasure_games())
    results = [r for r, _ in prep]
    other = draw(st.sampled_from(["range", "rewards", "fresh"]))
    if other == "range":
        second = prep, spec, draw(st.integers(1, 5))
    elif other == "rewards":
        second = prep, GameSpec(frozenset(draw(st.sets(st.sampled_from(results))))), index_range
    else:
        second = draw(erasure_games())
    return (prep, spec, index_range), second


@settings(max_examples=150, deadline=None)
@given(pairs_of_erasure_games())
# Two empty sets at different index ranges.
@example(((HALF, GameSpec(frozenset()), 1),
          ([("a", Fraction(1, 3)), ("b", Fraction(1, 3)), ("c", Fraction(1, 3))],
           GameSpec(frozenset()), 2)))
# The reward on the other branch of equal weight reaches the same states.
@example(((HALF, GAME1, 3), (HALF, GAME2, 3)))
def test_verdicts_match_the_per_choice_oracle(pair):
    (a, b), (keys_a, keys_b) = ([reachable_set(*g) for g in pair],
                                [per_choice_reachable_set(*g) for g in pair])
    assert sets_equal(a, b) == (a == b) == (b == a) == (keys_a == keys_b)
    if a == b:
        assert hash(a) == hash(b)
    assert (len(a), len(b)) == (len(keys_a), len(keys_b))
    assert (a.states, b.states) == (keys_a, keys_b)


def test_verdicts_at_a_million_indices_list_no_states():
    """At R = 10**6 the listing would hold about 10**18 states; the
    count is P(R, 1) * P(R, 2) / 2!, since the no-reward branches weigh
    the same."""
    R = 10**6
    prep = [("a", Fraction(1, 2)), ("b", Fraction(1, 4)), ("c", Fraction(1, 4))]
    a = reachable_set(prep, GameSpec(frozenset({"a"})), R)
    b = reachable_set(prep, GameSpec(frozenset({"b"})), R)
    assert len(a) == R * (R * (R - 1) // 2)
    assert len(b) == R * R * (R - 1)
    assert not sets_equal(a, b)
    assert sets_equal(a, reachable_set(prep[::-1], GameSpec(frozenset({"a"})), R))
    assert "states" not in vars(a) and "states" not in vars(b)


def test_tiny_branch_keeps_its_exact_weight_and_still_collides():
    """A float key would round TINY to 0 and drop its branch; the exact
    key keeps it, and the two no-reward branches never share an index."""
    keys = reachable_set([("a", 1 - TINY), ("b", TINY)], GameSpec(frozenset()), 2).states
    big, tiny = (10**13 - 1, 10**13), (1, 10**13)
    assert keys == {
        (("erased", False, 1, False, big), ("erased", False, 2, False, tiny)),
        (("erased", False, 1, False, tiny), ("erased", False, 2, False, big)),
    }


# p = 1/2 + 10**-15: both reward weights round to 0.5 at 12 places.
NEAR_HALF = Fraction(500000000000001, 10**15)


def test_weights_equal_to_12_places_give_different_sets():
    """The reward branches weigh 1/2 + 10**-15 and 1/2 - 10**-15, so the
    two games reach different states; a float key rounded to 12 places
    would call them equal."""
    prep = [("up", NEAR_HALF), ("down", 1 - NEAR_HALF)]
    s1, s2 = (reachable_set(prep, game, 2) for game in (GAME1, GAME2))
    assert len(s1) == len(s2) == 4
    assert not sets_equal(s1, s2)
    assert not (s1.states & s2.states)



def test_single_states_with_weights_equal_to_12_places_have_different_keys():
    """The erased reward-up state of game 1 and the erased reward-down
    state of game 2 with the indices swapped share labels, but their
    reward branches weigh 1/2 + 10**-15 and 1/2 - 10**-15."""
    prep = [("up", NEAR_HALF), ("down", 1 - NEAR_HALF)]
    up, down = BranchLabel("up", True), BranchLabel("down", False)
    e1 = erase(play_game(prep, GAME1), {up: 1, down: 2}, index_range=2)
    up, down = BranchLabel("up", False), BranchLabel("down", True)
    e2 = erase(play_game(prep, GAME2), {down: 1, up: 2}, index_range=2)
    assert e1.canonical_key() != e2.canonical_key()
    assert e1.canonical_key() == (
        ("erased", False, 1, True, NEAR_HALF.as_integer_ratio()),
        ("erased", False, 2, False, (1 - NEAR_HALF).as_integer_ratio()),
    )


def test_tiny_branch_stays_in_a_single_state_key():
    state = play_game([("a", 1 - TINY), ("b", TINY)], GameSpec(frozenset()))
    assert state.canonical_key() == (
        ("a", True, 0, False, (10**13 - 1, 10**13)),
        ("b", True, 0, False, (1, 10**13)),
    )

class TestThreeOutcomeGame:
    g1 = GameSpec(frozenset({THREE_OUTCOME_RESULTS[0]}))
    g2 = GameSpec(frozenset({THREE_OUTCOME_RESULTS[1]}))

    def test_half_degenerates_to_two_branches(self):
        prep_equiv = [
            (THREE_OUTCOME_RESULTS[0], Fraction(1, 2)),
            (THREE_OUTCOME_RESULTS[1], Fraction(1, 2)),
        ]
        assert sets_equal(
            three_outcome_game(Fraction(1, 2), self.g1, 2),
            reachable_set(prep_equiv, self.g1, 2),
        )

    def test_quarter_equal_sets(self):
        a = three_outcome_game(Fraction(1, 4), self.g1, 2)
        b = three_outcome_game(Fraction(1, 4), self.g2, 2)
        assert sets_equal(a, b)

    def test_third_equal_sets_enumeration_oracle(self):
        a = three_outcome_game(Fraction(1, 3), self.g1, 2)
        b = three_outcome_game(Fraction(1, 3), self.g2, 2)
        assert sets_equal(a, b)
        # Oracle: expected keys built by hand.  Branch weights all exactly
        # 1/3; the two no-reward indices must differ; reward index is
        # free.  Keys sort their items.
        w = (1, 3)
        expected = set()
        for i in (1, 2):
            for j, k in [(1, 2), (2, 1)]:
                items = [
                    ("erased", False, i, True, w),
                    ("erased", False, j, False, w),
                    ("erased", False, k, False, w),
                ]
                expected.add(tuple(sorted(items)))
        assert a.states == expected

    def test_weight_bounds(self):
        with pytest.raises(WeightOutOfRange):
            three_outcome_game(Fraction(0), self.g1, 2)
        with pytest.raises(WeightOutOfRange):
            three_outcome_game(Fraction(2, 3), self.g1, 2)


class TestRefine:
    def test_coin_heads_into_four(self):
        coin = WeightedMeasurement(
            "coin", ("heads", "tails"), (Fraction(1, 2), Fraction(1, 2))
        )
        refined = refine(coin, "heads", 4)
        assert refined.outcomes == (
            "heads_1", "heads_2", "heads_3", "heads_4", "tails"
        )
        # Exact rational division oracle.
        assert Fraction(1, 2) / 4 == Fraction(1, 8)
        assert refined.weights == (Fraction(1, 8),) * 4 + (Fraction(1, 2),)

    def test_merge_event_recovers_coarse_weight(self):
        coin = WeightedMeasurement(
            "coin", ("heads", "tails"), (Fraction(1, 2), Fraction(1, 2))
        )
        refined = refine(coin, "heads", 2)
        assert refined.event_weight({"heads_1", "heads_2"}) == Fraction(1, 2)

    def test_million_fold_exact(self):
        coin = WeightedMeasurement(
            "coin", ("heads", "tails"), (Fraction(1, 2), Fraction(1, 2))
        )
        big = refine(coin, "heads", 10**6)
        assert len(big.outcomes) == 10**6 + 1
        assert big.weights[0] == Fraction(1, 2 * 10**6)
        coarse = big.event_weight(o for o in big.outcomes if o != "tails")
        assert coarse == Fraction(1, 2)

    def test_every_preexisting_event_weight_preserved(self):
        m = WeightedMeasurement(
            "m",
            ("a", "b", "c"),
            (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
        )
        refined = refine(m, "b", 3)
        assert refined.event_weight({"a"}) == Fraction(1, 6)
        assert refined.event_weight({"c"}) == Fraction(1, 2)
        assert refined.event_weight({"b_1", "b_2", "b_3"}) == Fraction(1, 3)
        assert refined.event_weight(
            {"a", "b_1", "b_2", "b_3"}
        ) == m.event_weight({"a", "b"})

    def test_errors(self):
        m = WeightedMeasurement(
            "m", ("a", "b", "z"), (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        )
        with pytest.raises(UnknownOutcome):
            refine(m, "nope", 2)
        with pytest.raises(ZeroWeightRefinement):
            refine(m, "z", 2)
        with pytest.raises(ValueError):
            refine(m, "a", 0)


class TestCoarseInvariance:
    def test_coin_refined_three_ways(self):
        coin = WeightedMeasurement(
            "coin", ("heads", "tails"), (Fraction(1, 2), Fraction(1, 2))
        )
        family = MeasurementFamily((coin,))
        spec = RefinementSpec("coin", "heads", 3)
        assert coarse_event_probability_invariance(family, spec, 2)
        # And the refined image really carries probability 1/2.
        refined = refine_family(family, spec)
        padded = MeasurementFamily(
            refined.measurements + (uniform_measurement(6),)
        )
        pr = derive_representation(induced_ordering(padded), 6)
        image = suboutcome_image(
            family, spec, EventRef("coin", frozenset({"heads"}))
        )
        assert pr.value(image) == Fraction(1, 2)

    def test_parts_one_noop(self):
        family = MeasurementFamily(
            (
                WeightedMeasurement(
                    "m", ("a", "b"), (Fraction(1, 4), Fraction(3, 4))
                ),
            )
        )
        assert coarse_event_probability_invariance(
            family, RefinementSpec("m", "a", 1), 4
        )

    def test_quarter_outcome_split_in_two(self):
        family = MeasurementFamily(
            (
                WeightedMeasurement(
                    "m", ("a", "b"), (Fraction(1, 4), Fraction(3, 4))
                ),
            )
        )
        spec = RefinementSpec("m", "a", 2)
        assert coarse_event_probability_invariance(family, spec, 4)
        refined = refine_family(family, spec)
        padded = MeasurementFamily(
            refined.measurements + (uniform_measurement(8),)
        )
        pr = derive_representation(induced_ordering(padded), 8)
        image = suboutcome_image(family, spec, EventRef("m", frozenset({"a"})))
        assert pr.value(image) == Fraction(1, 4)

    def test_padding_takes_a_fresh_id(self):
        # uniform-4 and uniform-extra-4 name non-uniform measurements, so
        # the uniform 4-outcome gadget needs a third id.
        taken = ("uniform-4", "uniform-extra-4")
        family = MeasurementFamily(tuple(
            WeightedMeasurement(mid, ("a", "b"), (Fraction(1, 4), Fraction(3, 4)))
            for mid in taken
        ))
        padded = _with_uniform(family, 4)
        assert padded.measurements[:2] == family.measurements
        (gadget,) = padded.measurements[2:]
        assert gadget.id not in taken
        assert gadget.weights == (Fraction(1, 4),) * 4
        spec = RefinementSpec("uniform-4", "a", 2)
        assert coarse_event_probability_invariance(family, spec, 4)


class TestCanonicalEquality:
    def test_invariant_under_branch_reordering(self):
        state = play_game(HALF, GAME1)
        reordered = BranchState(tuple(reversed(state.branches)))
        assert reordered.canonical_key() == state.canonical_key()

    def test_zero_weight_branches_dropped(self):
        a = BranchState(
            (
                (BranchLabel("up", True), Fraction(1)),
                (BranchLabel("down", False), Fraction(0)),
            )
        )
        b = BranchState(((BranchLabel("up", True), Fraction(1)),))
        assert a.canonical_key() == b.canonical_key()


class TestBranchStateValidation:
    def test_duplicate_labels_rejected(self):
        label = BranchLabel("up", True)
        with pytest.raises(ValueError):
            BranchState(((label, Fraction(16, 25)), (label, Fraction(9, 25))))

    def test_weights_must_sum_to_exactly_one(self):
        with pytest.raises(WeightsDontSumToOne, match="branch weights sum to 1/4, not 1"):
            BranchState(((BranchLabel("up", True), Fraction(1, 4)),))
        with pytest.raises(WeightsDontSumToOne, match="sum to 9999999999999999/10"):
            BranchState(((BranchLabel("up", True), 1 - Fraction(1, 10**16)),))

    @pytest.mark.parametrize("weight", [1.0, 1, Fraction(-1)])
    def test_weight_is_checked(self, weight):
        """A weight is an exact Fraction of at least 0 (the second branch
        brings the sum back to 1)."""
        up, down = BranchLabel("up", True), BranchLabel("down", False)
        with pytest.raises(ValueError, match=re.escape(f"up;reward needs a Fraction weight >= 0, "
                                                       f"got {weight!r}")):
            BranchState(((up, weight), (down, 1 - weight)))

    def test_erased_label_needs_detail(self):
        with pytest.raises(ValueError):
            BranchLabel("erased", True)
        with pytest.raises(ValueError):
            BranchLabel("up", True, detail=2)

    @pytest.mark.parametrize("detail", ["x", True, 0, -3, 1.0])
    def test_erased_label_index_is_an_integer_of_at_least_1(self, detail):
        """A string index beside an integer one would otherwise reach
        `canonical_key`'s sort and raise a TypeError there."""
        with pytest.raises(ValueError, match=re.escape(
                f"microstate index must be an integer of at least 1, got {detail!r}")):
            BranchLabel("erased", True, detail)

    def test_total_weight_preserved_through_pipeline(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            n = int(rng.integers(1, 5))
            parts = rng.multinomial(16, [1.0 / n] * n)
            while any(p == 0 for p in parts):
                parts = rng.multinomial(16, [1.0 / n] * n)
            prep = [(f"r{i}", Fraction(int(p), 16)) for i, p in enumerate(parts)]
            game = GameSpec(frozenset({"r0"}))
            state = play_game(prep, game)
            labels = [label for label, _ in state.branches]
            erased = erase(
                state,
                {l: i + 1 for i, l in enumerate(labels)},
                index_range=4,
            )
            assert [w for _, w in erased.branches] == [w for _, w in prep]
            assert sum(w for _, w in erased.branches) == 1


class TestRefusalsNameTheirInput:
    @pytest.mark.parametrize("index_range", [True, False, 2.0, "2", None, 0])
    def test_index_range_must_be_an_integer(self, index_range):
        with pytest.raises(ValueError, match=re.escape(f"got {index_range!r}")):
            reachable_set(HALF, GAME1, index_range)

    @pytest.mark.parametrize("index_range", [True, 2.5, 2.0, 0])
    def test_erase_index_range_must_be_an_integer(self, index_range):
        state = play_game(HALF, GAME1)
        choice = {BranchLabel("up", True): 1, BranchLabel("down", False): 2}
        with pytest.raises(ValueError, match=re.escape(
                f"index_range must be an integer of at least 1, got {index_range!r}")):
            erase(state, choice, index_range)

    @pytest.mark.parametrize("parts", [True, 2.0, 0, -1])
    def test_refine_parts_must_be_an_integer(self, parts):
        m = WeightedMeasurement("m", ("a", "b"), (Fraction(1, 2),) * 2)
        message = re.escape(f"parts must be an integer of at least 1, got {parts!r}")
        with pytest.raises(ValueError, match=message):
            refine(m, "a", parts)
        with pytest.raises(ValueError, match=message):
            refine_family(MeasurementFamily((m,)), RefinementSpec("m", "a", parts))

    @pytest.mark.parametrize("parts", [True, 0])
    def test_suboutcome_image_reads_a_checked_part_count(self, parts):
        """The spec is refused when built, so no image of heads into
        {heads_1} or into the empty event is returned."""
        family = MeasurementFamily((WeightedMeasurement("coin", ("heads", "tails"),
                                                        (Fraction(1, 2),) * 2),))
        with pytest.raises(ValueError, match=re.escape(
                f"parts must be an integer of at least 1, got {parts!r}")):
            suboutcome_image(family, RefinementSpec("coin", "heads", parts),
                             EventRef("coin", {"heads"}))

    def test_erased_is_a_reserved_result_id(self):
        prep = [("erased", Fraction(1, 2)), ("down", Fraction(1, 2))]
        with pytest.raises(ValueError, match="'erased' is reserved"):
            play_game(prep, GAME2)

    @pytest.mark.parametrize(
        "build, error, fragment",
        [
            (lambda: play_game([], GAME1), ValueError, "at least one result"),
            (lambda: play_game([("up", Fraction(1, 2))] * 2, GAME1), ValueError,
             "result ids must be unique"),
            (lambda: play_game(HALF, GameSpec(frozenset({"sideways"}))), ValueError,
             "game rewards unknown results ['sideways']"),
            (lambda: GameSpec("up"), ValueError,
             "reward results are a collection of result ids, not the string 'up'"),
            (lambda: erase(play_game(HALF, GAME1), {BranchLabel("up", True): 1}, 2),
             ValueError, "microstate choice misses branch down;no reward"),
            (lambda: erase(play_game(HALF, GAME1), {
                BranchLabel("up", True): 1, BranchLabel("down", False): 1,
                BranchLabel("sideways", True): 7}, 2),
             ValueError, "microstate choice names unknown branches ['sideways;reward']"),
            (lambda: erase(play_game(HALF, GAME1), {
                BranchLabel("up", True): 1, BranchLabel("down", False): 1, "up": 2}, 2),
             ValueError, "microstate choice names unknown branches ['up']"),
            (lambda: refine(WeightedMeasurement("m", ("a", "a_2"), (Fraction(1, 2),) * 2),
                            "a", 2), ValueError, "suboutcome name 'a_2' collides"),
            (lambda: refine_family(MeasurementFamily((uniform_measurement(2),)),
                                   RefinementSpec("nope", "u1", 2)),
             UnknownOutcome, "no measurement 'nope' in family"),
        ],
        ids=["no-result", "repeated-result", "unknown-reward", "string-rewards",
             "missing-branch", "unknown-branch", "key-not-a-label",
             "colliding-suboutcome", "unknown-measurement"],
    )
    def test_refusal(self, build, error, fragment):
        with pytest.raises(error) as info:
            build()
        assert fragment in str(info.value)


def test_demo_erasure_loads_no_quantum_layer():
    """In a new interpreter, `demo-erasure` loads `erasure` and the exact
    layers beside `cli` and `formats`: neither `quantum` nor `neutrality`."""
    script = (
        "import sys\n"
        "from born_kernel import cli\n"
        "rc = cli.main(['demo-erasure', '--p-num', '1', '--p-den', '2', '--index-range', '2'])\n"
        "print(rc, sorted(m for m in sys.modules if m.startswith('born_kernel.')), file=sys.stderr)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], text=True, capture_output=True,
                          check=False, env=subprocess_env())
    modules = ["cli", "erasure", "formats", "numeric", "ordering", "representation"]
    assert proc.stderr.splitlines()[-1:] == [f"0 {[f'born_kernel.{m}' for m in modules]}"]
