"""Erasure games, reachable-state sets, and branching-indifference checks.

Models the two payoff games on a branching measurement (reward on one
result versus reward on the other), the erasure step that destroys the
result record while keeping the reward, and the sets of global states
reachable by erasure, each held as the description that decides it.
A single state and a reachable set are keyed by one rule on exact
branch weights.  The reachable sets of the two games coincide exactly
when the reward branches carry equal weight, which is the executable
core of the equal-weight indifference argument.  Refinement splits one
outcome into equally weighted suboutcomes and the derived probability
of every coarse event must not move.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

from .numeric import DEFAULT_INDEX_RANGE
from .ordering import (
    EventRef,
    MeasurementFamily,
    WeightedMeasurement,
    induced_ordering,
)
from .quantum import WeightsDontSumToOne
from .representation import (
    derive_representation,
    uniform_measurement,
    _find_uniform,
)


class IndexOutOfRange(ValueError):
    """Erasure microstate index falls outside the configured range."""


class BranchCollision(ValueError):
    """A microstate choice would merge two distinct branches."""


class WeightOutOfRange(ValueError):
    """Three-outcome construction needs 0 < w <= 1/2."""


class UnknownOutcome(ValueError):
    """Refinement target is not an outcome of the measurement."""


class ZeroWeightRefinement(ValueError):
    """Refinement target has zero weight."""


def _count(name: str, value) -> int:
    """``value``, refused unless it is an integer (not a bool) of at least 1."""
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    return value


@dataclass(frozen=True)
class BranchLabel:
    """Result record of one branch: result id, reward flag, microstate.

    Erased branches carry a microstate index in ``detail``; live results
    carry none.
    """

    result: str
    reward: bool
    detail: int | None = None

    def __post_init__(self) -> None:
        if self.result == "erased" and self.detail is None:
            raise ValueError("erased labels need a microstate index")
        if self.result != "erased" and self.detail is not None:
            raise ValueError("only erased labels carry a microstate index")

    def label(self) -> str:
        core = f"erased({self.detail})" if self.result == "erased" else self.result
        return f"{core};{'reward' if self.reward else 'no reward'}"


@dataclass(frozen=True)
class BranchState:
    """Superposition over distinct branch labels.  Each branch is
    ``(label, weight, phase)``: an exact ``Fraction`` weight w >= 0 and a
    finite float phase theta, for the amplitude sqrt(w) * exp(i * theta).
    The weights sum to exactly 1."""

    branches: tuple[tuple[BranchLabel, Fraction, float], ...]

    def __post_init__(self) -> None:
        labels = [label for label, _, _ in self.branches]
        if len(set(labels)) != len(labels):
            raise BranchCollision("branch labels must be pairwise distinct")
        for label, w, theta in self.branches:
            if not (isinstance(w, Fraction) and w >= 0 and math.isfinite(theta)):
                raise ValueError(f"branch {label.label()} needs a Fraction weight >= 0 and "
                                 f"a finite phase, got {w!r} and {theta!r}")
        if (total := sum(w for _, w, _ in self.branches)) != 1:
            raise WeightsDontSumToOne(f"branch weights sum to {total}, not 1")

    def canonical_key(self) -> tuple:
        """Phase-free fingerprint: each branch of nonzero weight as its
        :func:`_key_item`, exact weight included, sorted, the rule of
        :attr:`ReachableSet.states`.  Phase is discarded, so physically
        indistinguishable states compare equal."""
        return tuple(sorted(
            _key_item(label.result, label.detail, label.reward, w.as_integer_ratio())
            for label, w, _ in self.branches if w
        ))


def _key_item(result: str, detail: int | None, reward: bool, w) -> tuple:
    """A branch's item in a key: (result, detail is None, detail or 0,
    reward, w), w its weight."""
    return (result, detail is None, detail or 0, reward, w)


@dataclass(frozen=True)
class GameSpec:
    """Which measurement results pay the reward."""

    reward_results: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "reward_results", frozenset(self.reward_results))


@dataclass(frozen=True)
class ReachableSet:
    """Erased states held as their description: the index range R and each
    reward flag's sorted exact branch weights, as reduced (numerator,
    denominator) pairs.  A flag's branches take distinct indices, so
    ``len`` is the product over the flags of P(R, m) / prod c_w! (m
    branches, c_w of weight w), and two sets are equal when both are empty
    or the descriptions are.  ``states`` lists the keys on first read."""

    index_range: int = field(compare=False)
    rewarded: tuple[tuple[int, int], ...] = field(compare=False)
    unrewarded: tuple[tuple[int, int], ...] = field(compare=False)
    # All that == and hash read: None for an empty set, else the description.
    _identity: tuple | None = field(init=False, repr=False)

    def __post_init__(self) -> None:
        R = _count("index_range", self.index_range)
        flags = tuple(sorted(self.rewarded)), tuple(sorted(self.unrewarded))
        object.__setattr__(self, "rewarded", flags[0])
        object.__setattr__(self, "unrewarded", flags[1])
        object.__setattr__(self, "_identity", None if max(map(len, flags)) > R else (R, *flags))

    def __len__(self) -> int:
        return math.prod(math.perm(self.index_range, len(flag)) // math.prod(
            math.factorial(len(list(run))) for _, run in itertools.groupby(flag))
            for flag in (self.rewarded, self.unrewarded))

    @cached_property
    def states(self) -> frozenset[tuple]:
        """Each state's key: its branches' sorted items (:func:`_key_item`)."""
        indices = range(1, self.index_range + 1)
        per_flag = [[[_key_item("erased", i, reward, w) for i, w in zip(choice, flag)]
                     for choice in itertools.permutations(indices, len(flag))]
                    for reward, flag in ((True, self.rewarded), (False, self.unrewarded))]
        return frozenset(tuple(sorted(a + b)) for a, b in itertools.product(*per_flag))


def play_game(
    prep_weights: Sequence[tuple[str, Fraction]], game: GameSpec
) -> BranchState:
    """Run one game: one branch per result, its exact weight, phase 0.

    Weights must be strictly positive and sum exactly to 1 (checked by
    :class:`BranchState`); the reward flag on each branch comes from the
    game's payoff rule.
    """
    if not prep_weights:
        raise ValueError("preparation needs at least one result")
    results = [r for r, _ in prep_weights]
    if len(set(results)) != len(results):
        raise ValueError("result ids must be unique")
    if "erased" in results:
        raise ValueError("result id 'erased' is reserved for erased branches")
    weights = [Fraction(w) for _, w in prep_weights]
    if any(w <= 0 for w in weights):
        raise ValueError("preparation weights must be strictly positive")
    unknown = game.reward_results - set(results)
    if unknown:
        raise ValueError(f"game rewards unknown results {sorted(unknown)}")
    return BranchState(tuple(
        (BranchLabel(r, reward=r in game.reward_results), w, 0.0)
        for r, w in zip(results, weights)
    ))


def erase(
    state: BranchState,
    microstate_choice: Mapping[BranchLabel, int],
    index_range: int = DEFAULT_INDEX_RANGE,
) -> BranchState:
    """Destroy result records: every branch becomes erased(i).

    The choice assigns one integer microstate index (1..index_range, not
    a bool) to every branch; reward flags, weights and phases are kept.
    A choice that would merge two branches into one label is rejected,
    since the erasure step is a unitary process and cannot fuse branches.
    """
    _count("index_range", index_range)
    new_branches = []
    for label, w, theta in state.branches:
        if label not in microstate_choice:
            raise ValueError(f"microstate choice misses branch {label.label()}")
        i = microstate_choice[label]
        if isinstance(i, bool) or not isinstance(i, int):
            raise ValueError(
                f"microstate index of branch {label.label()} must be an integer, got {i!r}"
            )
        if not (1 <= i <= index_range):
            raise IndexOutOfRange(
                f"microstate index {i} outside 1..{index_range}"
            )
        new_branches.append((BranchLabel("erased", label.reward, i), w, theta))
    return BranchState(tuple(new_branches))


def reachable_set(
    prep_weights: Sequence[tuple[str, Fraction]],
    game: GameSpec,
    index_range: int = DEFAULT_INDEX_RANGE,
) -> ReachableSet:
    """The erased states over every admissible choice, as their
    description (:class:`ReachableSet`), each branch with the exact weight
    :func:`play_game` checks; no choice is enumerated.  A choice giving
    two branches one (index, reward) would merge them, which :func:`erase`
    refuses, so it reaches nothing."""
    flags: tuple[list, list] = ([], [])
    for label, w, _ in play_game(prep_weights, game).branches:
        flags[label.reward].append(w.as_integer_ratio())
    return ReachableSet(index_range, tuple(flags[True]), tuple(flags[False]))


def sets_equal(a: ReachableSet, b: ReachableSet) -> bool:
    """Whether two sets hold the same erased states, each keyed by its
    branches' labels and exact weights: both empty, or one description."""
    return a == b


# Result ids of the symmetric three-branch construction.
THREE_OUTCOME_RESULTS = ("plus_z", "minus_z", "zero_z")


def three_outcome_game(
    w: Fraction,
    game: GameSpec,
    index_range: int = DEFAULT_INDEX_RANGE,
) -> ReachableSet:
    """Reachable set for the symmetric three-branch construction.

    Preparation weights (w, w, 1-2w) on results plus_z/minus_z/zero_z,
    reward on plus_z or minus_z depending on the game.  The zero_z
    branch is dropped when 1-2w vanishes, so w = 1/2 degenerates to the
    two-branch game.  Both games reach the same set for every
    admissible w: one reward branch of weight w, no-reward branches of
    weights w and 1-2w.
    """
    w = Fraction(w)
    if not (0 < w <= Fraction(1, 2)):
        raise WeightOutOfRange(f"need 0 < w <= 1/2, got {w}")
    plus, minus, zero = THREE_OUTCOME_RESULTS
    prep = [(plus, w), (minus, w)]
    rest = 1 - 2 * w
    if rest > 0:
        prep.append((zero, rest))
    return reachable_set(prep, game, index_range)


def apply_branch_phase(
    state: BranchState, phases: Mapping[BranchLabel, float]
) -> BranchState:
    """Add theta to each branch's phase: its amplitude gains exp(i * theta).

    Canonical comparison treats per-branch phase as identity, so this
    never changes a reachable-set verdict.
    """
    return BranchState(tuple(
        (label, w, theta + phases.get(label, 0.0)) for label, w, theta in state.branches
    ))


def refine(
    measurement: WeightedMeasurement, outcome: str, parts: int
) -> WeightedMeasurement:
    """Split one outcome into equally weighted suboutcomes.

    The target outcome of weight w is replaced by `parts` suboutcomes of
    exact weight w/parts each; everything else is untouched.  parts = 1
    is the admissible no-op split (single suboutcome, full weight).
    """
    _count("parts", parts)
    if outcome not in measurement.outcomes:
        raise UnknownOutcome(
            f"{outcome!r} is not an outcome of measurement {measurement.id!r}"
        )
    w = measurement.event_weight([outcome])
    if w == 0:
        raise ZeroWeightRefinement(f"outcome {outcome!r} has zero weight")
    sub_weight = w / parts
    existing = set(measurement.outcomes)
    new_outcomes: list[str] = []
    new_weights: list[Fraction] = []
    for o, wt in zip(measurement.outcomes, measurement.weights):
        if o != outcome:
            new_outcomes.append(o)
            new_weights.append(wt)
            continue
        for i in range(1, parts + 1):
            sub = f"{o}_{i}"
            if sub in existing:
                raise ValueError(f"suboutcome name {sub!r} collides")
            new_outcomes.append(sub)
            new_weights.append(sub_weight)
    return WeightedMeasurement(measurement.id, tuple(new_outcomes), tuple(new_weights))


@dataclass(frozen=True)
class RefinementSpec:
    """Which outcome of which measurement splits into how many parts."""

    measurement_id: str
    outcome: str
    parts: int


def refine_family(
    family: MeasurementFamily, spec: RefinementSpec
) -> MeasurementFamily:
    """Apply a refinement to the named measurement inside a family."""
    if spec.measurement_id not in family.by_id:
        raise UnknownOutcome(f"no measurement {spec.measurement_id!r} in family")
    new_measurements = tuple(
        refine(m, spec.outcome, spec.parts) if m.id == spec.measurement_id else m
        for m in family.measurements
    )
    return MeasurementFamily(new_measurements)


def suboutcome_image(
    family: MeasurementFamily, spec: RefinementSpec, ref: EventRef
) -> EventRef:
    """Map a pre-refinement event to its union-of-suboutcomes image."""
    if ref.measurement_id != spec.measurement_id or spec.outcome not in ref.event:
        return ref
    expanded = set(ref.event) - {spec.outcome}
    expanded.update(f"{spec.outcome}_{i}" for i in range(1, spec.parts + 1))
    return EventRef(ref.measurement_id, frozenset(expanded))


def _with_uniform(family: MeasurementFamily, K: int) -> MeasurementFamily:
    if _find_uniform(family, K) is not None:
        return family
    gadget = uniform_measurement(K)
    for i in itertools.count(1):
        if gadget.id not in family.by_id:
            break
        gadget = replace(gadget, id=f"uniform-{K}-{i}")
    return MeasurementFamily(family.measurements + (gadget,))


def coarse_event_probability_invariance(
    family: MeasurementFamily, spec: RefinementSpec, K: int
) -> bool:
    """Whether refinement leaves every coarse event's probability fixed.

    Derives the representing measure before and after the split (grid
    constant scaled from K to K * parts) and compares, exactly, the
    value of every pre-refinement event against the value of its
    suboutcome image.  Families are padded with the uniform grid
    measurement the derivation requires, if absent.
    """
    base = _with_uniform(family, K)
    pr_before = derive_representation(induced_ordering(base), K)

    refined = refine_family(family, spec)
    k_after = K * spec.parts
    after = _with_uniform(refined, k_after)
    pr_after = derive_representation(induced_ordering(after), k_after)

    return all(
        pr_before.value(ref) == pr_after.value(suboutcome_image(family, spec, ref))
        for ref in map(family.ref_at, range(family.event_count()))
    )
