"""Likelihood orderings over quantum events and the rationality axioms.

A :class:`WeightedMeasurement` abstracts a measurement down to outcome
labels with exact rational weights.  A :class:`LikelihoodOrdering` is a
two-place relation over (event, measurement) pairs: a boolean matrix
given from outside, or the dense ranks of a total preorder, whose matrix
is built only when a caller reads it.  Every axiom verdict is
replayable.  An event's one address is its canonical position
(``MeasurementFamily.slices``); an :class:`EventRef` names it only in
reports and documents, built from its position
(``MeasurementFamily.ref_at``), one position at a time.  The checkers
make no assumption that the relation came from weights: they accept
arbitrary relations and report witnesses.

Axioms checked:

* Transitivity    -- a >= b and b >= c imply a >= c.
* Separation      -- some event is not null (null: judged equal to the
                     empty event of its own measurement).
* Dominance       -- growing an event never hurts it, and adding
                     outcomes matters exactly when the added part is
                     not null.
* Equivalence     -- events of exactly equal rational weight are judged
                     equally likely, whatever measurement they live in.
* Totality        -- any two events are comparable: a >= b or b >= a,
                     so a >= a for every a.

A total preorder is its dense ranks: a >= b iff rank(a) >= rank(b).
``LikelihoodOrdering.ranks`` holds them, or None for any other relation.
One private constructor, :func:`_from_relation`, builds every ordering
from its family and a matrix or ranks; ranks hold no n x n array, and a
matrix given from outside is ranked once by an O(n^2) test.  Every check,
replay and writer reads the relation through :func:`_ge`, a comparison
over the ranks when they exist and the matrix otherwise.  On ranks,
Transitivity and Totality are satisfied at once, Dominance's one pair
predicate reaches past the covering pairs only in measurements that fail
one, and Equivalence is counted by one sort.  Only Transitivity on a
relation that is no total preorder reads the matrix whole.

Exact weights follow one integer rule, numerators over their least
common denominator (:func:`_scale`), computed once per measurement and
kept as its ``_scaled``: a measurement is validated, and its event
weights summed, on them; ranks (:func:`weight_ranks`) compare them over
the family's common denominator while it fits in 64 bits, and
``Fraction``s past that.  Witnesses stay positions until a caller reads
them (:class:`Witnesses`): an array of canonical positions, sorted once,
or, for pairs, a row source that counts them and lists only the rows
read (:class:`_PairRows`).
"""
from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np


def _scale(values: Sequence[Fraction]) -> tuple[list[int], int]:
    """Exact rationals as integer numerators over their least common
    denominator: (numerators, denominator).  The numerators add and
    compare exactly as the rationals do."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


@dataclass(frozen=True)
class WeightedMeasurement:
    """Outcome labels with exact rational weights summing to 1, checked
    and summed as integer numerators over their lcm (``_scaled``)."""

    id: str
    outcomes: tuple[str, ...]
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        outcomes = tuple(self.outcomes)
        weights = tuple(
            w if isinstance(w, Fraction) else Fraction(w) for w in self.weights
        )
        if not outcomes:
            raise ValueError("measurement needs at least one outcome")
        if len(outcomes) != len(weights):
            raise ValueError("outcomes and weights must be parallel lists")
        if len(set(outcomes)) != len(outcomes):
            raise ValueError(f"duplicate outcome labels in measurement {self.id!r}")
        nums, den = _scale(weights)
        if min(nums) < 0:
            o, w = next((o, w) for o, w, n in zip(outcomes, weights, nums) if n < 0)
            raise ValueError(f"outcome {o!r} of {self.id!r} has negative weight {w}")
        if sum(nums) != den:
            total = Fraction(sum(nums), den)
            raise ValueError(f"weights of measurement {self.id!r} sum to {total}, not 1")
        object.__setattr__(self, "outcomes", outcomes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "_scaled", (nums, den))

    @cached_property
    def _position(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.outcomes)}

    def _index(self, outcome: str) -> int:
        i = self._position.get(outcome)
        if i is None:
            raise ValueError(f"unknown outcome {outcome!r} in measurement {self.id!r}")
        return i

    def event_weight(self, event: Iterable[str]) -> Fraction:
        nums, den = self._scaled
        return Fraction(sum(nums[self._index(o)] for o in set(event)), den)

    def event_mask(self, event: Iterable[str]) -> int:
        mask = 0
        for o in event:
            mask |= 1 << self._index(o)
        return mask

    def mask_event(self, mask: int) -> frozenset[str]:
        return frozenset(
            o for i, o in enumerate(self.outcomes) if mask & (1 << i)
        )


@dataclass(frozen=True, eq=False)
class MeasurementFamily:
    """Finite set of weighted measurements with unique ids."""

    measurements: tuple[WeightedMeasurement, ...]

    def __post_init__(self) -> None:
        ms = tuple(self.measurements)
        if not ms:
            raise ValueError("family must contain at least one measurement")
        ids = [m.id for m in ms]
        if len(set(ids)) != len(ids):
            raise ValueError("measurement ids must be unique")
        object.__setattr__(self, "measurements", ms)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, MeasurementFamily):
            return NotImplemented
        return frozenset(self.measurements) == frozenset(other.measurements)

    def __hash__(self) -> int:
        return hash(frozenset(self.measurements))

    @cached_property
    def by_id(self) -> dict[str, WeightedMeasurement]:
        return {m.id: m for m in self.measurements}

    @cached_property
    def canonical(self) -> tuple[WeightedMeasurement, ...]:
        """The measurements in id order, the order of their events' positions."""
        return tuple(sorted(self.measurements, key=operator.attrgetter("id")))

    @cached_property
    def refs(self) -> tuple[EventRef, ...]:
        """Every event's :meth:`ref_at`, in canonical position order.

        The kernel never builds this list: it names an event from its
        position alone.  It stays for callers that want every name at once.
        """
        return tuple(map(self.ref_at, range(self.event_count())))

    @cached_property
    def slices(self) -> dict[str, slice]:
        """Canonical positions of each measurement's events, in id order.

        Event ``mask`` of measurement ``mid`` sits at position
        ``slices[mid].start + mask``; this is the one internal address
        of an event.
        """
        b = self._bounds
        return {m.id: slice(b[i], b[i + 1]) for i, m in enumerate(self.canonical)}

    @cached_property
    def _singletons(self) -> dict[tuple[str, str], int]:
        """Each (measurement id, outcome), in canonical order, to the
        position of its singleton event: outcome i at ``start + (1 << i)``."""
        return {
            (m.id, o): sl.start + (1 << i)
            for m, sl in zip(self.canonical, self.slices.values())
            for i, o in enumerate(m.outcomes)
        }

    def position(self, measurement_id: str, event: Iterable[str]) -> int:
        """Canonical position of an event; ValueError if it is not in the family."""
        m = self.by_id.get(measurement_id)
        if m is None:
            raise ValueError(f"unknown measurement {measurement_id!r}")
        return self.slices[measurement_id].start + m.event_mask(event)

    @cached_property
    def _bounds(self) -> list[int]:
        """Each measurement's first position, in id order, then the event count."""
        return [0, *itertools.accumulate(2 ** len(m.outcomes) for m in self.canonical)]

    def ref_at(self, position: int) -> EventRef:
        """The event at a canonical position: the one rule that turns a
        position into a name.  IndexError outside the event space."""
        bounds = self._bounds
        if not 0 <= position < bounds[-1]:
            raise IndexError(f"position {position} is outside {bounds[-1]} events")
        i = bisect.bisect_right(bounds, position) - 1
        m = self.canonical[i]
        return EventRef(m.id, m.mask_event(position - bounds[i]))

    def event_count(self) -> int:
        return self._bounds[-1]

    @cached_property
    def _weight_ranks(self) -> np.ndarray:
        ranks = subset_sum_ranks(m._scaled for m in self.canonical)
        ranks.setflags(write=False)
        return ranks


@dataclass(frozen=True)
class EventRef:
    """An event tied to the measurement it belongs to."""

    measurement_id: str
    event: frozenset[str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "event", frozenset(self.event))

    def label(self) -> str:
        return "{" + ",".join(sorted(self.event)) + "}|" + self.measurement_id


def subset_sums(values: Sequence[int]) -> list[int]:
    """``out[mask]`` is the sum of ``values[i]`` over the set bits i of mask.

    Doubles the list one value at a time.  Plain Python ints: numerators
    on a common denominator may exceed any fixed-width type.
    """
    out = [0]
    for v in values:
        out += [s + v for s in out]
    return out


# Common denominators up to this many bits keep every numerator about
# one machine word wide.
_MAX_DENOMINATOR_BITS = 64


def subset_sum_ranks(rows: Iterable[tuple[Sequence[int], int]]) -> np.ndarray:
    """:func:`dense_ranks` of the :func:`subset_sums` of each row, concatenated.

    A row is exact rationals as integer numerators over their own
    denominator, (numerators, denominator), as a measurement's
    ``_scaled`` holds them.  While the rows' common denominator fits in
    64 bits the sums are ranked as integer numerators over it; past that,
    as ``Fraction``s, so no number grows with the count of rows.
    """
    scaled = [(subset_sums(nums), den) for nums, den in rows]
    common = 1
    for _, den in scaled:
        common = math.lcm(common, den)
        if common.bit_length() > _MAX_DENOMINATOR_BITS:
            return dense_ranks([Fraction(n, den) for nums, den in scaled for n in nums])
    return dense_ranks([n * (common // den) for nums, den in scaled for n in nums])


def weight_ranks(family: MeasurementFamily) -> np.ndarray:
    """Dense rank of every event's exact weight by position; cached, read-only."""
    return family._weight_ranks


def weight_vector(family: MeasurementFamily) -> list[Fraction]:
    """Exact weight of every event, in canonical position order."""
    out: list[Fraction] = []
    for m in family.canonical:
        nums, den = m._scaled
        out += [Fraction(n, den) for n in subset_sums(nums)]
    return out


def dense_ranks(scores: Sequence) -> np.ndarray:
    """Rank of each score among the distinct scores, 0 for the least.

    Two score lists order their positions alike exactly when their dense
    ranks are equal.
    """
    rank_of = {s: r for r, s in enumerate(sorted(set(scores)))}
    return np.array([rank_of[s] for s in scores], dtype=np.int64)


# Pairs per block of a scan over the relation: a block's temporaries stay
# in cache, and small enough that the allocator maps no fresh pages.
_BLOCK = 2**16


def _blocks(lo: int, hi: int, n: int) -> Iterable[tuple[int, int]]:
    """Rows lo to hi - 1 of a scan against n positions, as (s, e) blocks
    of about ``_BLOCK`` pairs each."""
    step = max(1, _BLOCK // n)
    return ((s, min(s + step, hi)) for s in range(lo, hi, step))


class LikelihoodOrdering:
    """Two-place relation over the family's event space.

    ``matrix[i, j]`` is True exactly when ``refs[i]`` is judged at least
    as likely as ``refs[j]``.  ``refs`` must be the family's ``refs``, so
    row and column i are the event at canonical position i (see
    ``MeasurementFamily.slices``).  Equal likelihood means both
    directions hold.  No axiom is assumed; conformance is what the
    checkers test.  The ordering and its matrix are read-only; a matrix
    is copied only when its owner could still write it: a writable
    array, or a view.

    After its checks this constructor stores through
    :func:`_from_relation`, as every ordering is built.  One built from
    ranks (:func:`induced_ordering`, the v2 reader) holds only ``family``
    and ``ranks``, and ``refs`` reads ``family.refs``.  The kernel reads
    it through :func:`_ge`, so its ``matrix`` is built, and kept, only
    when a caller reads it directly.
    """

    def __init__(self, family: MeasurementFamily, refs: Sequence[EventRef], matrix: np.ndarray):
        m = np.asarray(matrix, dtype=bool)
        n = len(refs)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match {n} event refs")
        if tuple(refs) != family.refs:
            raise ValueError("refs must be the family's refs, in canonical order")
        if m is matrix and (m.flags.writeable or m.base is not None):
            m = m.copy()
        _from_relation(family, m, self)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a LikelihoodOrdering is read-only; cannot set {name!r}")

    @property
    def refs(self) -> tuple[EventRef, ...]:
        return self.family.refs

    @cached_property
    def matrix(self) -> np.ndarray:
        """The relation of an ordering built from ranks, built on first read."""
        require_event_count(len(self.ranks))
        matrix = self.ranks[:, None] >= self.ranks
        matrix.setflags(write=False)
        return matrix

    @cached_property
    def index(self) -> dict[EventRef, int]:
        return {r: i for i, r in enumerate(self.refs)}

    @cached_property
    def reports(self) -> tuple[AxiomReport, ...]:
        """The reports of ``ALL_CHECKS``, run once per ordering.  Their
        witness sources hold the relation's arrays (:func:`_ge`), never
        the ordering, so caching them here forms no reference cycle."""
        return tuple(check(self) for check in ALL_CHECKS)

    @cached_property
    def ranks(self) -> np.ndarray | None:
        """Dense rank of each position when the relation is a total
        preorder (a >= b iff ranks[a] >= ranks[b]), else None.

        Read-only.  An ordering built from ranks keeps them.  Otherwise
        row i's sum counts the events that event i is at least as likely
        as; the relation is a total preorder exactly when comparing row
        sums gives it back, tested block by block so that no second
        n x n array exists.
        """
        h = self.matrix
        rowsums = np.count_nonzero(h, axis=1)
        for s, e in _blocks(0, len(h), len(h)):
            if not np.array_equal(rowsums[s:e, None] >= rowsums, h[s:e]):
                return None
        ranks = dense_ranks(rowsums.tolist())
        ranks.setflags(write=False)
        return ranks


class SizeLimitExceeded(ValueError):
    """Requested family would exceed a size cap."""


# Extensional relations are n x n boolean matrices over the total event
# space; refuse sizes where that stops being a desk-scale object.
MAX_EXTENSIONAL_EVENTS = 20_000


# Python prints no int past 4,300 digits: a larger count is named as a power of 2.
_MAX_PRINTED_BITS = 10_000


def require_event_count(n: int) -> None:
    """Raise :class:`SizeLimitExceeded` unless an extensional ordering
    over n events is within the cap."""
    if n > MAX_EXTENSIONAL_EVENTS:
        bits = n.bit_length()
        count = f"{n:,}" if bits <= _MAX_PRINTED_BITS else f"at least 2**{bits - 1:,}"
        raise event_cap_error(count)


def event_cap_error(count: str) -> SizeLimitExceeded:
    """The refusal of a family of ``count`` events, where ``count`` is a
    number or a lower bound on it ("at least ...")."""
    return SizeLimitExceeded(
        f"family has {count} events; extensional orderings are capped at "
        f"{MAX_EXTENSIONAL_EVENTS:,} (a measurement with k outcomes "
        f"contributes 2**k events)"
    )


def _from_relation(
    family: MeasurementFamily, relation: np.ndarray, ordering: LikelihoodOrdering | None = None
) -> LikelihoodOrdering:
    """The one constructor of an ordering: ``family`` and its relation,
    an n x n boolean matrix or the int64 dense ranks of a total preorder,
    handed over, made read-only and kept where ``matrix`` or ``ranks``
    caches it.  ``ordering`` is the one ``__init__`` fills, else a new one."""
    if ordering is None:
        ordering = LikelihoodOrdering.__new__(LikelihoodOrdering)
    relation.setflags(write=False)
    vars(ordering).update({"family": family, "ranks" if relation.ndim == 1 else "matrix": relation})
    return ordering


def induced_ordering(family: MeasurementFamily) -> LikelihoodOrdering:
    """The ordering the weight function induces: compare exact weights.

    By construction the result is total, transitive, and judges
    equal-weight events equally likely.
    """
    require_event_count(family.event_count())
    return _from_relation(family, weight_ranks(family))


def outcome_count_ordering(family: MeasurementFamily) -> LikelihoodOrdering:
    """Negative control: rank events by their count of positive-weight outcomes.

    A deliberately weight-blind rule.  It is total and transitive but
    generically violates the equivalence of equal-weight events.
    """
    require_event_count(family.event_count())
    counts: list[int] = []
    for m in family.canonical:
        counts += subset_sums([int(n > 0) for n in m._scaled[0]])
    return _from_relation(family, dense_ranks(counts))


# Rows per slice when a Witnesses sequence is iterated.
_CHUNK = 4096

# Rows a Witnesses repr shows before it stops.
_REPR_ROWS = 3


class Witnesses(Sequence):
    """Read-only sequence of witnesses, held as canonical positions.

    ``rows`` is any object with ``len`` and numpy-style int and slice
    indexing whose row i gives the positions of witness i: a sorted
    position array, or a row source that builds only the rows it is
    asked for (:class:`_PairRows`).  The sequence stands for the
    tuple of event-ref tuples those rows name: ``len``, iteration,
    indexing, slicing (to a tuple), ``in``, ``==`` and ``hash`` behave
    exactly as on that tuple, yet a ref tuple is built only when it is
    read, and a slice reads only its own rows.  Refs are built one
    position at a time (``MeasurementFamily.ref_at``), never the
    family's whole list; a slice builds each position it names once, and
    so does an iteration, reading slice by slice.  The repr shows the
    count and the first few witnesses only.
    """

    __slots__ = ("_rows", "_family")

    def __init__(self, rows, family: MeasurementFamily):
        self._rows = rows
        self._family = family

    def __len__(self) -> int:
        return len(self._rows)

    def __getitem__(self, i):
        if not isinstance(i, slice):
            return tuple(map(self._family.ref_at, self._rows[operator.index(i)].tolist()))
        return self._read(self._rows[i], {})

    def __iter__(self):
        ref: dict[int, EventRef] = {}  # each position's ref, built once per iteration
        for start in range(0, len(self), _CHUNK):
            yield from self._read(self._rows[start:start + _CHUNK], ref)

    def _read(self, rows: np.ndarray, ref: dict[int, EventRef]) -> tuple:
        new = set(rows.ravel().tolist()).difference(ref)
        ref.update(zip(new, map(self._family.ref_at, new)))
        return tuple(tuple(ref[p] for p in row) for row in rows.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (Witnesses, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        shown = [repr(w) for w in self[:_REPR_ROWS]]
        if len(self) > _REPR_ROWS:
            shown.append("...")
        return f"Witnesses({len(self)} rows" + (": " + ", ".join(shown) if shown else "") + ")"


class _PairRows:
    """Witness pairs (a, b) in canonical order, rows built when read.

    ``counts[a]`` is a's exact number of witnesses, and ``mask(s, e)``
    the witness mask of positions s to e - 1 against every position.  The
    counts' prefix sums give ``len`` and each a's first row, so a read of
    rows [lo, hi) scans only the a's it spans, a block at a time.  Indexed
    as the (m, 2) position array it stands for (see :class:`Witnesses`).
    """

    def __init__(self, counts: Sequence[int], mask):
        self._first = np.concatenate(([0], np.cumsum(counts)))
        self._mask = mask

    @classmethod
    def scan(cls, n: int, mask) -> _PairRows:
        """The source over n rows whose counts are one scan of ``mask``."""
        return cls([np.count_nonzero(r) for s, e in _blocks(0, n, n) for r in mask(s, e)], mask)

    def __len__(self) -> int:
        return int(self._first[-1])

    def __getitem__(self, i) -> np.ndarray:
        picked = range(len(self))[i]  # IndexError for an int out of range
        if not isinstance(i, slice):
            return self._span(picked, picked + 1)[0]
        if not picked:
            return np.empty((0, 2), np.int64)
        if picked.step < 0:
            return self[picked[-1]:picked[0] + 1:-picked.step][::-1]
        if picked.step == 1:
            return self._span(picked.start, picked.stop)
        # One span per run of picked rows whose a's are adjacent, so a
        # sparse slice scans only the a's it reads.
        want = np.arange(picked.start, picked.stop, picked.step)
        a = np.searchsorted(self._first, want, side="right")  # each row's a, plus 1
        runs = [0, *(np.flatnonzero(np.diff(a) > 1) + 1).tolist(), len(want)]
        return np.concatenate([self._span(int(want[s]), int(want[e - 1]) + 1)[want[s:e] - want[s]]
                               for s, e in zip(runs, runs[1:])])

    def _span(self, lo: int, hi: int) -> np.ndarray:
        """Rows lo to hi - 1, for 0 <= lo < hi <= len(self)."""
        first = self._first
        a = int(np.searchsorted(first, lo, side="right")) - 1
        blocks = _blocks(a, int(np.searchsorted(first, hi)), len(first) - 1)
        rows = np.concatenate([np.argwhere(self._mask(s, e)) + (s, 0) for s, e in blocks])
        skip = lo - int(first[a])
        return rows[skip:skip + hi - lo]


@dataclass(frozen=True)
class AxiomReport:
    """Verdict of one axiom check with replayable witnesses.

    ``witnesses`` holds violating tuples of event refs, in canonical
    order, and is empty exactly when the axiom is satisfied.  The checks
    return it as a :class:`Witnesses` sequence over positions, which
    builds a ref tuple only when one is read.  For the existential
    Separation axiom, ``evidence`` carries a non-null event when
    satisfied, and the witnesses on failure are the events (all of them)
    that replay as null.
    """

    axiom: str
    satisfied: bool
    witnesses: Sequence[tuple[EventRef, ...]]
    evidence: EventRef | None = None


def _report(ordering: LikelihoodOrdering, axiom: str, positions: np.ndarray) -> AxiomReport:
    """Report from witnesses given as an (m, arity) array of positions.

    Position order is (measurement id, event bitmask) order, so sorting
    the rows lexicographically sorts the witnesses canonically.  A row's
    flat index into the (n,) * arity cube has the same order, and one
    argsort of it is cheaper than a lexsort of the columns.  Only a matrix,
    under the event cap, lists Transitivity rows, so n**3 fits in int64.
    """
    cube = (ordering.family.event_count(),) * positions.shape[1]
    rows = positions[np.argsort(np.ravel_multi_index(positions.T, cube), kind="stable")]
    rows.setflags(write=False)
    return _listed(ordering, axiom, rows)


def _listed(ordering: LikelihoodOrdering, axiom: str, rows) -> AxiomReport:
    """Report from witness rows already in canonical order (see :class:`Witnesses`)."""
    return AxiomReport(axiom, satisfied=not len(rows), witnesses=Witnesses(rows, ordering.family))


def _ge(ordering: LikelihoodOrdering):
    """The relation as ``ge(a, b)``: whether a >= b, for canonical
    positions a and b broadcast together, or for the block of rows a and
    columns b, two basic slices.

    The one read of the relation: ranks compared on a total preorder,
    ``matrix[a, b]`` (for slices, a view) on any other relation.  ``ge``
    holds that array, not the ordering.
    """
    ranks = ordering.ranks
    if ranks is None:
        matrix = ordering.matrix
        return lambda a, b: matrix[a, b]

    def ge(a, b):
        return ranks[a, None] >= ranks[b] if isinstance(a, slice) else ranks[a] >= ranks[b]
    return ge


def _null_mask(ordering: LikelihoodOrdering) -> np.ndarray:
    """Per position: is the event judged equal to its measurement's empty event."""
    bounds = np.array(ordering.family._bounds)
    empty = np.repeat(bounds[:-1], bounds[1:] - bounds[:-1])
    events, ge = np.arange(bounds[-1]), _ge(ordering)
    return ge(events, empty) & ge(empty, events)


def check_transitivity(ordering: LikelihoodOrdering) -> AxiomReport:
    """Check a >= b and b >= c imply a >= c over all triples.

    A total preorder (``ordering.ranks`` is not None) is satisfied at
    once.  Any other relation runs the composition test as an exact
    boolean matrix product; for each (a, c) pair reached through some
    middle event but not related directly, one witnessing triple
    (a, b, c) is reported.
    """
    if ordering.ranks is not None:
        return _listed(ordering, "Transitivity", np.empty((0, 3), np.int64))
    h = ordering.matrix
    reach = (h.astype(np.float32) @ h.astype(np.float32)) > 0
    bad = reach & ~h
    witnesses = []
    for i, k in zip(*np.nonzero(bad)):
        j = np.nonzero(h[i, :] & h[:, k])[0][0]
        witnesses.append((i, j, k))
    return _report(ordering, "Transitivity", np.array(witnesses, np.int64).reshape(-1, 3))


def check_separation(ordering: LikelihoodOrdering) -> AxiomReport:
    """Check that some event is not null."""
    null = _null_mask(ordering)
    if not null.all():
        evidence = ordering.family.ref_at(int(np.argmin(null)))
        return AxiomReport("Separation", True, (), evidence=evidence)
    return _listed(ordering, "Separation", np.arange(len(null)).reshape(-1, 1))


def check_dominance(ordering: LikelihoodOrdering) -> AxiomReport:
    """Check E subset-of F implies F >= E, with equality iff F minus E is null.

    One predicate, ``fails``, decides a nested pair (E, F); a witness is
    a pair it fails.  It runs on the 3**k nested pairs of all
    measurements with k outcomes in one array operation.  A total
    preorder passes them exactly when it passes the covering pairs, F =
    E plus one outcome (add F minus E one outcome at a time), so there it
    first runs on those and keeps only the measurements that fail one.
    """
    null, ge = _null_mask(ordering), _ge(ordering)

    def fails(empty, e, f):
        # F minus E sits at empty + f - e, as E's mask is a submask of F's.
        return ~ge(f, e) | (ge(e, f) != null[empty + f - e])

    bounds = np.array(ordering.family._bounds)
    starts, sizes = bounds[:-1], bounds[1:] - bounds[:-1]
    witnesses = [np.empty((0, 2), np.int64)]
    for size in set(sizes.tolist()):
        bits = 1 << np.arange(size.bit_length() - 1)
        empty = starts[sizes == size, None]
        if ordering.ranks is not None:
            # Covering pairs: E is a mask without outcome o, F = E + o.
            o, mask = np.nonzero((np.arange(size) & bits[:, None]) == 0)
            e = empty + mask
            empty = empty[fails(empty, e, e + bits[o]).any(axis=1)]
            if not len(empty):
                continue
        # Each outcome, one at a time, is out of F, in F only, or in both.
        e = f = empty
        for bit in bits.tolist():
            e, f = np.hstack((e, e, e + bit)), np.hstack((f, f + bit, f + bit))
        bad = fails(empty, e, f)
        witnesses.append(np.stack((e[bad], f[bad]), axis=1))
    return _report(ordering, "Dominance", np.concatenate(witnesses))


def check_equivalence(ordering: LikelihoodOrdering) -> AxiomReport:
    """Check that events of exactly equal weight are judged equally likely.

    Positions are grouped by the dense ranks of their exact weights
    (:func:`weight_ranks`), and every pair in a group, an event with
    itself included, must be related both ways; a pair (a, b) fails
    where a >= b does not hold.  The witnesses (:class:`_PairRows`) of
    a total preorder, a's being the b of its group ranked above it, are
    counted by one sort by (group, rank); any other relation's by a scan.
    """
    group, ge = weight_ranks(ordering.family), _ge(ordering)

    def mask(s, e):
        return (group[s:e, None] == group) & ~ge(slice(s, e), slice(None))

    ranks = ordering.ranks
    if ranks is None:
        return _listed(ordering, "Equivalence", _PairRows.scan(len(group), mask))
    width = int(ranks.max()) + 1
    key = group * width + ranks
    by_key = np.sort(key)
    counts = np.searchsorted(by_key, (group + 1) * width) - np.searchsorted(by_key, key, "right")
    return _listed(ordering, "Equivalence", _PairRows(counts, mask))


def check_totality(ordering: LikelihoodOrdering) -> AxiomReport:
    """Check that every two events are related at least one way.

    A total preorder (``ordering.ranks`` is not None) is satisfied at
    once.  Any other relation is counted by one scan of its rows and
    columns (:class:`_PairRows`).  A witness is a pair (a, b), a at or
    before b in canonical order, with neither a >= b nor b >= a; a = b is
    one when a >= a fails.
    """
    if ordering.ranks is not None:
        return _listed(ordering, "Totality", np.empty((0, 2), np.int64))
    events, ge = np.arange(ordering.family.event_count()), _ge(ordering)

    def mask(s, e):
        rows, every = slice(s, e), slice(None)
        unrelated = ~(ge(rows, every) | ge(every, rows).T)
        return unrelated & (events >= events[s:e, None])

    return _listed(ordering, "Totality", _PairRows.scan(len(events), mask))


# Last, so derive still names the first of the earlier checks that fails.
ALL_CHECKS = (
    check_transitivity,
    check_separation,
    check_dominance,
    check_equivalence,
    check_totality,
)


def run_all_checks(ordering: LikelihoodOrdering) -> tuple[AxiomReport, ...]:
    """The reports of ``ALL_CHECKS``: ``ordering.reports`` under a second
    name, kept public for its callers."""
    return ordering.reports


def null_events(ordering: LikelihoodOrdering) -> set[EventRef]:
    """All events judged equal to the empty event of their measurement."""
    ref_at = ordering.family.ref_at
    return {ref_at(int(i)) for i in np.flatnonzero(_null_mask(ordering))}


def replay_witness(
    ordering: LikelihoodOrdering, axiom: str, witness: tuple[EventRef, ...]
) -> bool:
    """Re-verify that a reported witness is still a violation.

    Returns True when the witness replays as a genuine violation of the
    named axiom (for Separation: when the event replays as null).  Each
    ref is resolved once to its canonical position; a ref outside the
    family raises ValueError.
    """
    family, ge = ordering.family, _ge(ordering)
    pos, start = [], []
    for ref in witness:
        try:
            pos.append(family.position(ref.measurement_id, ref.event))
        except ValueError:
            raise ValueError(f"{ref.label()} is not in this ordering's event space") from None
        start.append(family.slices[ref.measurement_id].start)
    if axiom == "Transitivity":
        a, b, c = pos
        return bool(ge(a, b) and ge(b, c) and not ge(a, c))
    if axiom == "Separation":
        (a,), (s,) = pos, start
        return bool(ge(a, s) and ge(s, a))
    if axiom == "Dominance":
        (e, f), (s, t) = pos, start
        if s != t or (e - s) & ~(f - s):
            return False
        d = s + f - e  # F minus E, as E's mask is a submask of F's
        return bool(not ge(f, e) or ge(e, f) != (ge(d, s) and ge(s, d)))
    if axiom == "Equivalence":
        a, b = pos
        w = [family.by_id[r.measurement_id].event_weight(r.event) for r in witness]
        return w[0] == w[1] and not (ge(a, b) and ge(b, a))
    if axiom == "Totality":
        a, b = pos
        return bool(not ge(a, b) and not ge(b, a))
    raise ValueError(f"unknown axiom {axiom!r}")
