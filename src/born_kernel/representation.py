"""Representing probability measures for likelihood orderings.

A probability assignment is a probability measure on each measurement's
outcomes: nonnegative exact rationals summing to 1, extended additively
to every event.  It represents an ordering when its values agree with
the ordering on every pair of events.  The constructive derivation
reproduces the uniqueness argument: the uniform K-outcome measurement
pins 1/K on each of its outcomes, blocks of uniform outcomes pin k/K,
and an outcome judged equally likely to a block of k uniform outcomes
is worth k/K.  Every outcome's value is read off the uniform blocks'
ranks in the ordering, never off its weight.  The exhaustive search
then confirms, one value per tier of equally likely events, that no
other assignment on the 1/K grid represents the ordering.

Everything in this module is exact rational arithmetic.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from .ordering import (
    MAX_EXTENSIONAL_EVENTS,
    AxiomReport,
    EventRef,
    LikelihoodOrdering,
    MeasurementFamily,
    SizeLimitExceeded,
    WeightedMeasurement,
    Witnesses,
    _PairRows,
    _ge,
    event_cap_error,
    require_event_count,
    weight_ranks,
    weight_vector,
)


class PreconditionViolated(ValueError):
    """An axiom check failed before the derivation could start.

    ``report`` is the failing check's report, witnesses included, and
    ``axiom`` its name.
    """

    def __init__(self, report: AxiomReport):
        self.report = report
        self.axiom = report.axiom
        super().__init__(f"ordering violates {report.axiom}")


class MissingUniformMeasurement(ValueError):
    """No uniform K-outcome measurement is present in the family."""


class NonconformingDenominator(ValueError):
    """Some weight's denominator does not divide the grid constant K."""


class FamilyMismatch(ValueError):
    """Assignment and ordering refer to different families."""


class SearchSpaceTooLarge(ValueError):
    """The uniqueness search would try more than ``MAX_SEARCH_STEPS`` values."""


# Values the uniqueness search may try, over all tiers, before it refuses.
MAX_SEARCH_STEPS = 100_000


@dataclass(frozen=True, eq=False)
class ProbabilityAssignment:
    """Probability measure on a family's events, held as outcome values.

    ``singletons[(measurement id, outcome)]`` is an exact rational; the
    values of each measurement are nonnegative and sum to exactly 1.  An
    event's value is the sum of its outcomes' values, so the empty event
    is 0, every full outcome set is 1, and additivity holds by
    construction.  ``measure`` is the family re-weighted: the same
    measurements and outcomes, the values as their weights, so an
    event's value is its weight there.
    """

    family: MeasurementFamily
    singletons: dict[tuple[str, str], Fraction]
    measure: MeasurementFamily = field(init=False, repr=False)

    def __post_init__(self) -> None:
        given, own, measure = dict(self.singletons), {}, []
        for m in self.family.canonical:
            keys = [(m.id, o) for o in m.outcomes]
            missing = [o for o in m.outcomes if (m.id, o) not in given]
            if missing:
                raise ValueError(f"missing value for outcome {missing[0]!r} of {m.id!r}")
            # The measurement checks the values are >= 0 and sum to 1.
            measure.append(WeightedMeasurement(m.id, m.outcomes, tuple(given.pop(k) for k in keys)))
            own.update(zip(keys, measure[-1].weights))
        if given:
            raise ValueError(f"value for {next(iter(given))!r}, not an outcome of the family")
        object.__setattr__(self, "singletons", own)
        object.__setattr__(self, "measure", MeasurementFamily(tuple(measure)))

    @classmethod
    def from_singletons(
        cls, family: MeasurementFamily, singleton_values: dict[tuple[str, str], Fraction]
    ) -> "ProbabilityAssignment":
        """The assignment with the given per-outcome values: the
        constructor under a second name, kept for its caller in
        ``perfbench/workloads.py`` until ROADMAP item R folds it in."""
        return cls(family, singleton_values)

    @cached_property
    def vector(self) -> list[Fraction]:
        """Value of every event, in canonical position order."""
        return weight_vector(self.measure)

    def value(self, ref: EventRef) -> Fraction:
        return self.vector[self.family.position(ref.measurement_id, ref.event)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ProbabilityAssignment):
            return NotImplemented
        return self.family == other.family and self.singletons == other.singletons


def compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All ordered tuples of `parts` positive integers summing to `total`."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0, *cuts, total)
        yield tuple(b - a for a, b in zip(bounds, bounds[1:]))


def generate_rich_family(K: int, max_outcomes: int) -> MeasurementFamily:
    """Every measurement with weights (k1/K, ..., kn/K), n <= max_outcomes.

    One measurement per composition of K into n positive parts, for each
    n up to max_outcomes.  The uniform K-outcome measurement is included
    whenever max_outcomes >= K.

    Raises :class:`SizeLimitExceeded`, before any measurement is built
    and in time that does not grow with K, when the family has more than
    ``MAX_EXTENSIONAL_EVENTS`` events, the cap on the ordering every use
    of it builds.  The family has C(K - 1, n - 1) measurements of 2**n
    events each; over every n up to K that sums to 2 * 3**(K - 1).  A
    partial sum takes one big-integer step per n, so it stops once its
    running total passes the cap; only then is the count a lower bound,
    and the message says "at least".
    """
    if K < 1 or max_outcomes < 1:
        raise ValueError("K and max_outcomes must be positive")
    if max_outcomes >= K:
        require_event_count(2 * 3 ** (K - 1))
    else:
        total, term = 0, 2  # term for n = 1; each next one is exact in integers
        for n in range(1, max_outcomes + 1):
            total += term
            if total > MAX_EXTENSIONAL_EVENTS and n < max_outcomes:
                raise event_cap_error(f"at least {total:,}")
            term = term * 2 * (K - n) // n
        require_event_count(total)
    measurements = []
    for n in range(1, min(K, max_outcomes) + 1):
        for parts in compositions(K, n):
            mid = "k" + "-".join(str(p) for p in parts)
            outcomes = tuple(f"o{i + 1}" for i in range(n))
            weights = tuple(Fraction(p, K) for p in parts)
            measurements.append(WeightedMeasurement(mid, outcomes, weights))
    return MeasurementFamily(tuple(measurements))


def uniform_measurement(K: int) -> WeightedMeasurement:
    """The K-outcome measurement with every weight equal to 1/K."""
    return WeightedMeasurement(
        f"uniform-{K}",
        tuple(f"u{i + 1}" for i in range(K)),
        tuple(Fraction(1, K) for _ in range(K)),
    )


def _require_grid(family: MeasurementFamily, K: int) -> None:
    """K >= 1 and every weight's denominator divides K."""
    if K < 1:
        raise ValueError("K must be positive")
    for m in family.measurements:
        for w in m.weights:
            if K % w.denominator != 0:
                raise NonconformingDenominator(
                    f"weight {w} of measurement {m.id!r} does not live on the "
                    f"1/{K} grid"
                )


def _find_uniform(family: MeasurementFamily, K: int) -> WeightedMeasurement | None:
    target = Fraction(1, K)
    for m in family.measurements:
        if len(m.outcomes) == K and all(w == target for w in m.weights):
            return m
    return None


def derive_representation(
    ordering: LikelihoodOrdering, K: int
) -> ProbabilityAssignment:
    """Constructively derive the representing measure on the 1/K grid.

    Preconditions, checked in this order: every weight's denominator
    divides K, the ordering passes all five axiom checks, and its family
    contains a uniform K-outcome measurement.  Its outcomes are judged
    equally likely and must sum to 1, so each is worth 1/K and the block
    of its first k outcomes k/K.  Those K + 1 blocks' ranks strictly
    increase, as every uniform outcome is non-null, and an outcome judged
    equally likely to the block of k outcomes is worth k/K: its value is
    read off the blocks' ranks alone, one search for every outcome.
    """
    family = ordering.family
    _require_grid(family, K)
    for report in ordering.reports:
        if not report.satisfied:
            raise PreconditionViolated(report)
    uniform = _find_uniform(family, K)
    if uniform is None:
        raise MissingUniformMeasurement(
            f"family has no uniform {K}-outcome measurement"
        )

    ranks = ordering.ranks  # a total preorder: Transitivity and Totality passed
    blocks = ranks[family.slices[uniform.id].start + (1 << np.arange(K + 1)) - 1]
    singles = family._singletons
    k = np.searchsorted(blocks, ranks[list(singles.values())]).tolist()
    return ProbabilityAssignment(family, {o: Fraction(v, K) for o, v in zip(singles, k)})


def verify_representation(
    assignment: ProbabilityAssignment, ordering: LikelihoodOrdering
) -> tuple[bool, Witnesses]:
    """Check that the assignment's values agree with the ordering.

    value(E) >= value(F) must hold exactly when the ordering judges E at
    least as likely as F, over every ordered pair.  The assignment is a
    probability measure by construction, so this is the only condition
    left to check.  Returns (ok, witnesses): every violating (E, F) pair,
    in canonical order.

    The values are the weights of ``assignment.measure``, compared by
    their dense ranks (:func:`weight_ranks`), so they agree with the
    ordering exactly when those equal ``ordering.ranks``.  Only when they
    do not is the relation scanned to count each row's witnesses, which
    are listed only where read (:class:`_PairRows`).
    """
    if assignment.family != ordering.family:
        raise FamilyMismatch("assignment and ordering have different families")
    ranks = weight_ranks(assignment.measure)

    def mask(s, e):
        return (ranks[s:e, None] >= ranks) != _ge(ordering, slice(s, e), slice(None))

    same = np.array_equal(ranks, ordering.ranks)
    rows = np.empty((0, 2), np.int64) if same else _PairRows.scan(len(ranks), mask)
    return (not len(rows), Witnesses(rows, ordering.family))


def uniqueness_search(ordering: LikelihoodOrdering, K: int) -> list[ProbabilityAssignment]:
    """Every additive assignment on the 1/K grid representing the ordering.

    Grid values order events as a total preorder, and they represent one
    exactly when they are a strictly increasing map f from its tiers
    (``ordering.ranks``) into {0, ..., K} that is additive on each
    measurement.  f is chosen one tier at a time, least likely first.  Empty events pin their tier to 0 and full events
    theirs to K; an event whose lowest outcome and remainder lie in lower
    tiers forces its tier to their sum; any other tier tries f(t - 1) + 1
    up to K minus the number of tiers above it.  Each constraint v(E) =
    v(lowest outcome of E) + v(E minus it) is checked at its highest
    tier.  Results are sorted by their singleton values in canonical
    order and re-verified with :func:`verify_representation`.  Past
    ``MAX_SEARCH_STEPS`` values tried, it raises :class:`SearchSpaceTooLarge`.
    """
    family = ordering.family
    _require_grid(family, K)
    if ordering.ranks is None:
        return []
    rank = ordering.ranks.tolist()
    tiers = max(rank) + 1
    pinned: dict[int, int] = {}
    forced: dict[int, tuple[int, int]] = {}
    checks: list[set[tuple[int, int, int]]] = [set() for _ in range(tiers)]
    for sl in family.slices.values():
        for t, v in ((rank[sl.start], 0), (rank[sl.stop - 1], K)):
            if pinned.setdefault(t, v) != v:
                return []
        for mask in range(1, sl.stop - sl.start):
            low = mask & -mask
            e, s, r = rank[sl.start + mask], rank[sl.start + low], rank[sl.start + mask - low]
            if s < e and r < e:
                forced.setdefault(e, (s, r))
            checks[max(e, s, r)].add((e, s, r))

    f: list[int] = []  # f[t] for the tiers below the one being tried

    def candidates(t: int) -> range:
        lo, hi = (f[-1] + 1 if f else 0), K - (tiers - 1 - t)
        v = pinned.get(t)
        if v is None and t in forced:
            v = sum(f[u] for u in forced[t])
        return range(lo, hi + 1) if v is None else range(max(lo, v), min(hi, v) + 1)

    outcomes = family._singletons
    singles = [rank[p] for p in outcomes.values()]
    solutions = []
    stack, steps = [iter(candidates(0))], 0
    while stack:
        del f[len(stack) - 1:]
        v = next(stack[-1], None)
        if v is None:
            stack.pop()
            continue
        steps += 1
        if steps > MAX_SEARCH_STEPS:
            raise SearchSpaceTooLarge(
                f"search for K={K} over {tiers:,} tiers tried more than "
                f"{MAX_SEARCH_STEPS:,} values, the cap MAX_SEARCH_STEPS"
            )
        f.append(v)
        t = len(f) - 1
        if any(f[e] != f[s] + f[r] for e, s, r in checks[t]):
            continue
        if t + 1 < tiers:
            stack.append(iter(candidates(t + 1)))
        else:
            solutions.append(tuple(f[u] for u in singles))

    assignments = (
        ProbabilityAssignment(family, {k: Fraction(v, K) for k, v in zip(outcomes, values)})
        for values in sorted(solutions)
    )
    return [a for a in assignments if verify_representation(a, ordering)[0]]
