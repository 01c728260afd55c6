"""What both halves share: the floating-point tolerance policy, the one
count rule (:func:`_count`), the exact-sum refusal, and the erasure games'
default index range, which the CLI reads without importing erasure.

All Hilbert-space computations (states, projectors, weights) run in
floating point against these tolerances.  The decision kernel never
consults them: everything at the theorem level is exact rational
arithmetic.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields

import numpy as np


@dataclass(frozen=True)
class NumericPolicy:
    """Tolerance record threaded through the floating-point operations.

    norm_tol        -- state normalization and amplitude bookkeeping
    projector_tol   -- projector algebra, unitarity checks, weight comparisons
    eigenvalue_tol  -- eigenvalue clustering and event/eigenvalue matching
    rational_tol    -- maximum gap tolerated when snapping a float weight to
                       a bounded-denominator rational

    Every tolerance must be a finite number > 0, not a bool or string: a
    NaN makes each ``> tol`` comparison false, switching validation off.
    """

    norm_tol: float = 1e-12
    projector_tol: float = 1e-10
    eigenvalue_tol: float = 1e-9
    rational_tol: float = 1e-9

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and 0 < value <= sys.float_info.max
            ):
                raise ValueError(f"{f.name} must be finite and positive, got {value!r}")


DEFAULT_POLICY = NumericPolicy()


class WeightsDontSumToOne(ValueError):
    """Exact rational weights do not sum to 1."""


# Erasure microstates per branch when a caller names no index range.
DEFAULT_INDEX_RANGE = 4


def _count(name: str, value) -> int:
    """``value`` as an ``int``; it must be an int or NumPy integer, not a bool, >= 1."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")
    return int(value)


def max_abs(m: np.ndarray) -> float:
    """Largest absolute entry; 0.0 for an empty array."""
    return float(np.max(np.abs(m))) if m.size else 0.0
