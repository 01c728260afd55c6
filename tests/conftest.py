"""Shared random-instance generators for the test suite.

Families are generated on exact rational grids: a measurement's weights
are a multinomial split of some denominator D, so every weight is k/D
and the decision kernel stays exact end to end.
"""
from __future__ import annotations

import math
import os
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from born_kernel import MeasurementFamily, ProbabilityAssignment, WeightedMeasurement
from born_kernel.formats import FormatError, _check_dim, _get, _reader
from born_kernel.numeric import DEFAULT_POLICY
from born_kernel.ordering import dense_ranks
from born_kernel.quantum import StateVector


SRC = Path(__file__).resolve().parents[1] / "src"


def subprocess_env() -> dict[str, str]:
    """This environment with ``src`` first on PYTHONPATH, so that a Python
    subprocess imports this checkout's ``born_kernel``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def random_measurement(
    rng: np.random.Generator,
    mid: str,
    max_outcomes: int = 8,
    max_denominator: int = 64,
    positive: bool = False,
) -> WeightedMeasurement:
    n = int(rng.integers(1, max_outcomes + 1))
    den = int(rng.integers(max(1, n if positive else 1), max_denominator + 1))
    while True:
        parts = rng.multinomial(den, [1.0 / n] * n)
        if not positive or all(p > 0 for p in parts):
            break
    weights = tuple(Fraction(int(p), den) for p in parts)
    outcomes = tuple(f"o{i + 1}" for i in range(n))
    return WeightedMeasurement(mid, outcomes, weights)


def random_family(
    rng: np.random.Generator,
    max_measurements: int = 5,
    max_outcomes: int = 8,
    max_denominator: int = 64,
    positive: bool = False,
) -> MeasurementFamily:
    n = int(rng.integers(1, max_measurements + 1))
    return MeasurementFamily(
        tuple(
            random_measurement(
                rng, f"m{i + 1}", max_outcomes, max_denominator, positive
            )
            for i in range(n)
        )
    )


def grid_measurement(
    rng: np.random.Generator, mid: str, K: int, max_outcomes: int = 6
) -> WeightedMeasurement:
    """Measurement whose weights all live exactly on the 1/K grid."""
    n = int(rng.integers(1, max_outcomes + 1))
    parts = rng.multinomial(K, [1.0 / n] * n)
    weights = tuple(Fraction(int(p), K) for p in parts)
    outcomes = tuple(f"o{i + 1}" for i in range(n))
    return WeightedMeasurement(mid, outcomes, weights)


def lcm_of_denominators(family: MeasurementFamily) -> int:
    out = 1
    for m in family.measurements:
        for w in m.weights:
            out = out * w.denominator // math.gcd(out, w.denominator)
    return out


def pooled_sum(values) -> Fraction:
    """Sum of exact rationals, pooling numerators per denominator: an
    oracle that shares no code with the kernel's scaling of weights to
    integer numerators over their lcm."""
    num_by_den: dict[int, int] = {}
    for v in values:
        num_by_den[v.denominator] = num_by_den.get(v.denominator, 0) + v.numerator
    return sum((Fraction(n, d) for d, n in num_by_den.items()), Fraction(0))


def measurement_refusal(mid: str, outcomes, weights) -> str | None:
    """The message `WeightedMeasurement` refuses these parallel outcomes
    and `Fraction` weights with, by the pooled-sum oracle, or None: the
    first negative weight, else a sum other than 1."""
    for o, w in zip(outcomes, weights):
        if w < 0:
            return f"outcome {o!r} of {mid!r} has negative weight {w}"
    total = pooled_sum(weights)
    if total != 1:
        return f"weights of measurement {mid!r} sum to {total}, not 1"
    return None


def own_weights(family: MeasurementFamily) -> ProbabilityAssignment:
    """The family's own weights, as a probability assignment."""
    return ProbabilityAssignment(family, {
        (m.id, o): w for m in family.measurements for o, w in zip(m.outcomes, m.weights)
    })


def order_matrix(scores) -> np.ndarray:
    """``out[i, j]`` is True exactly when ``scores[i] >= scores[j]``."""
    ranks = dense_ranks(scores)
    return ranks[:, None] >= ranks[None, :]


def whole_matrix_verify(assignment, ordering):
    """`verify_representation` as every pair of exact values compared:
    (ok, the (E, F) pairs whose comparison disagrees with the ordering).
    The values are compared as Python-int numerators over their least
    common denominator, which orders them as the `Fraction`s do."""
    vector = assignment.vector
    den = math.lcm(*(v.denominator for v in vector))
    values = np.array([v.numerator * (den // v.denominator) for v in vector], dtype=object)
    mismatch = (values[:, None] >= values[None, :]).astype(bool) != ordering.matrix
    refs = ordering.refs
    witnesses = tuple((refs[i], refs[j]) for i, j in zip(*np.nonzero(mismatch)))
    return (not witnesses, witnesses)


# -- per-entry complex readers ------------------------------------------
# `formats.matrix_from_json` and `formats.state_from_json` check a whole
# document in one array pass.  These read it one entry at a time and are
# the oracles for the arrays they return and the messages they raise.

def _entry(doc, context):
    """One [re, im] pair: a bool is not a number, an int is, every part finite."""
    if not (isinstance(doc, list) and len(doc) == 2 and all(
        (isinstance(x, float) or type(x) is int) and -sys.float_info.max <= x <= sys.float_info.max
        for x in doc
    )):
        raise FormatError(f"{context}: complex values are [re, im] pairs of finite numbers")
    return complex(*doc)


@_reader
def matrix_from_json(doc, context="matrix"):
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise FormatError(f"{context}: matrix must be a nonempty list of row lists")
    lengths = {len(row) for row in doc}
    if len(lengths) > 1:
        raise FormatError(f"{context}: rows have {min(lengths)} and {max(lengths)} entries; "
                          "a matrix is rectangular")
    rows = [[_entry(z, context) for z in row] for row in doc]
    return np.array(rows, dtype=np.complex128)


@_reader
def state_from_json(doc, policy=DEFAULT_POLICY, context="state"):
    components = _get(doc, "components", list, context)
    vec = np.array([_entry(z, context) for z in components], dtype=np.complex128)
    _check_dim(doc, len(vec), context)
    return StateVector(vec, policy=policy)
