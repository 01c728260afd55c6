"""Expected results computed apart from the program.

Nothing here imports born_kernel.  Weights come straight from the
generator's integer specs (or its eigenbasis), and every expectation is
derived from them by the definitions in the paper's finite setting:

* an event's weight is the sum of its outcomes' weights;
* the induced ordering holds for (a, b) exactly when weight(a) >= weight(b);
* the outcome-count rule breaks Equivalence on exactly the ordered pairs
  of equal weight where the first event has fewer positive-weight
  outcomes than the second;
* erasure reachable sets of the two games agree exactly when p = 1/2;
* a quantum weight is the sum of |<v_j|psi>|^2 over the eigenbasis
  columns whose eigenvalue is in the event.
"""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

EventKey = tuple[str, frozenset]


def events(spec: dict):
    """(measurement id, outcome set, weight numerator, den, positive count)."""
    for m in spec["measurements"]:
        outcomes, nums = m["outcomes"], m["nums"]
        for size in range(len(outcomes) + 1):
            for pick in itertools.combinations(range(len(outcomes)), size):
                yield (m["id"], frozenset(outcomes[i] for i in pick),
                       sum(nums[i] for i in pick), m["den"],
                       sum(1 for i in pick if nums[i] > 0))


def event_table(spec: dict) -> dict[EventKey, tuple[int, int]]:
    """Event key -> (weight scaled to the family's common denominator,
    count of positive-weight outcomes)."""
    common = 1
    for m in spec["measurements"]:
        common = common * m["den"] // math.gcd(common, m["den"])
    if common >= 2**31:
        raise ValueError(f"common denominator {common} is too large for int64 weights")
    return {
        (mid, ev): (num * (common // den), positive)
        for mid, ev, num, den, positive in events(spec)
    }


def event_weights(spec: dict) -> dict[EventKey, Fraction]:
    return {(mid, ev): Fraction(num, den) for mid, ev, num, den, _ in events(spec)}


def expected_matrix(table: dict, keys) -> np.ndarray:
    """The induced relation over `keys`, in that order."""
    w = np.array([table[k][0] for k in keys], dtype=np.int64)
    return w[:, None] >= w[None, :]


def count_rule_witnesses(table: dict) -> int:
    """Equivalence witnesses of the outcome-count negative control."""
    values = np.array(list(table.values()), dtype=np.int64)
    w, c = values[:, 0], values[:, 1]
    order = np.lexsort((c, w))
    w, c = w[order], c[order]
    total = 0
    starts = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
    for lo, hi in zip(starts, np.r_[starts[1:], len(w)]):
        counts = np.bincount(c[lo:hi])
        below = np.cumsum(counts) - counts
        total += int(np.dot(counts, below))
    return total


def erasure_sets_equal(k: int, den: int) -> bool:
    return Fraction(k, den) == Fraction(1, 2)


def erasure_state_count(index_range: int) -> int:
    """Reward flags differ between the two branches, so no microstate
    choice collides: every one of R*R choices gives a distinct state."""
    return index_range * index_range


def quantum_weight(basis: np.ndarray, eigvals: np.ndarray, psi: np.ndarray,
                   levels) -> float:
    amplitudes = np.abs(basis.conj().T @ psi) ** 2
    mask = np.isin(eigvals, np.asarray(levels))
    return float(np.sum(amplitudes[mask]))
