"""Finite-dimensional quantum machinery.

States, discrete-spectrum self-adjoint observables (one orthonormal
eigenbasis, each column tagged with its eigenvalue), measurement models
with explicit outcome-label conventions, and the weight function

    W(E) = sum over x in C(E) of <psi| P(x) |psi>

where C maps outcome labels onto eigenvalues and P(x) projects onto the
x-eigenspace.  Everything here is floating point against an explicit
:class:`~born_kernel.numeric.NumericPolicy`; :func:`rational_weight`
bridges into the exact-rational decision kernel.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .numeric import DEFAULT_POLICY, NumericPolicy, max_abs


class NonHermitianInput(ValueError):
    """Input matrix fails the Hermitian symmetry check."""


class DegenerateClustering(ValueError):
    """Eigenvalue clusters are too smeared to separate reliably."""


class UnknownOutcomeLabel(ValueError):
    """Event contains a label outside the measurement's outcome set."""


class WeightsDontSumToOne(ValueError):
    """Exact rational weights do not sum to 1."""


class NonpositiveWeight(ValueError):
    """A weight that must be strictly positive is zero or negative."""


class NoRationalWithinTolerance(ValueError):
    """No rational with bounded denominator is close enough to the weight."""


def _frozen_array(a: np.ndarray) -> np.ndarray:
    out = np.array(a)
    out.setflags(write=False)
    return out


def match_value(values: Sequence[float], x: float, tol: float) -> int:
    """Position of the first value within tol of x; like ``list.index``,
    ValueError if there is none."""
    for i, v in enumerate(values):
        if abs(v - x) <= tol:
            return i
    raise ValueError(f"{x} is not an eigenvalue")


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized vector in a finite-dimensional complex Hilbert space."""

    components: np.ndarray
    policy: NumericPolicy = field(default=DEFAULT_POLICY, repr=False)

    # A huge finite component overflows |c|^2 to inf, which the norm check rejects.
    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self) -> None:
        c = np.asarray(self.components, dtype=np.complex128).reshape(-1)
        if not c.any():
            raise ValueError("state vector must be nonzero, of positive dimension")
        if not np.all(np.isfinite(c.view(np.float64))):
            raise ValueError("state vector components must be finite")
        norm_sq = float(np.sum(np.abs(c) ** 2))
        if abs(norm_sq - 1.0) > self.policy.norm_tol:
            raise ValueError(
                f"state vector squared norm {norm_sq!r} differs from 1 "
                f"by more than {self.policy.norm_tol}"
            )
        object.__setattr__(self, "components", _frozen_array(c))

    @property
    def dim(self) -> int:
        return int(self.components.shape[0])


@dataclass(frozen=True, eq=False)
class Observable:
    """Discrete-spectrum self-adjoint operator stored as one eigenbasis.

    Column j of the unitary ``basis`` V lies in the eigenspace of
    ``eigenvalues[cluster[j]]``, so the operator is V diag(λ[cluster]) V†
    and the projector onto the x-eigenspace is P(x) = V_x V_x†, V_x the
    columns of x.  An eigenvalue may own no column: its projector is zero.
    Validation: V is square and unitary within ``projector_tol``, every
    column names an eigenvalue, and eigenvalues are separated by more
    than ``eigenvalue_tol``.  Those make the projectors Hermitian,
    idempotent, pairwise orthogonal and complete by construction.
    """

    eigenvalues: tuple[float, ...]
    basis: np.ndarray
    cluster: np.ndarray
    policy: NumericPolicy = field(default=DEFAULT_POLICY, repr=False)

    def __post_init__(self) -> None:
        values = tuple(float(v) for v in self.eigenvalues)
        v = np.asarray(self.basis, dtype=np.complex128)
        cluster = np.asarray(self.cluster, dtype=np.int64)
        if not values:
            raise ValueError("observable needs at least one eigenvalue")
        if not (np.isfinite(values).all() and np.isfinite(v).all()):
            raise ValueError("eigenvalues and eigenbasis entries must be finite")
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("eigenbasis must be a square matrix")
        if cluster.shape != v.shape[1:] or np.any((cluster < 0) | (cluster >= len(values))):
            raise ValueError("every eigenbasis column must name one eigenvalue")
        ordered = sorted(values)  # Python floats: a gap past the range is inf, no warning
        for a, b in zip(ordered, ordered[1:]):
            if b - a <= self.policy.eigenvalue_tol:
                raise ValueError(f"eigenvalues {a} and {b} are not separated")
        residual = max_abs(v.conj().T @ v - np.eye(v.shape[0]))
        if not residual <= self.policy.projector_tol:
            raise ValueError(
                f"eigenbasis is not orthonormal: max |V^dag V - I| = {residual:.3e}"
            )
        object.__setattr__(self, "eigenvalues", values)
        object.__setattr__(self, "basis", _frozen_array(v))
        object.__setattr__(self, "cluster", _frozen_array(cluster))

    @classmethod
    # Huge finite entries overflow to inf or nan, which the checks reject.
    @np.errstate(over="ignore", invalid="ignore")
    def from_pairs(
        cls,
        pairs: Sequence[tuple[float, np.ndarray]],
        policy: NumericPolicy = DEFAULT_POLICY,
    ) -> "Observable":
        """Observable from (eigenvalue, projector) pairs P_0..P_{k-1}.

        Each P_i must be Hermitian within t = ``projector_tol``.  One
        ``eigh`` of Σ (i+1) P_i gives the basis V; its eigenvalues, rounded,
        say which P_i owns each column.  Each P_i must then equal
        V_i V_i† within t per entry.  The V_i V_i† are orthogonal
        projectors, pairwise orthogonal and complete, so a set that passes
        has P_i² − P_i and P_i P_j within 2√d·t + d·t² + t per entry and
        Σ P_i − I within k·t (d the dimension, k the number of pairs),
        where separate idempotence, orthogonality and completeness checks
        would bound each by t; a set passing those passes this one within
        about d·t.  Exact projectors, to rounding, pass both.
        """
        if not pairs:
            raise ValueError("observable needs at least one spectral pair")
        tol = policy.projector_tol
        values, projectors = [], []
        for value, proj in pairs:
            p = np.asarray(proj, dtype=np.complex128)
            if p.ndim != 2 or p.shape[0] != p.shape[1]:
                raise ValueError("projector must be a square matrix")
            if projectors and p.shape != projectors[0].shape:
                raise ValueError("all projectors must share one dimension")
            if max_abs(p - p.conj().T) > tol:
                raise ValueError(f"projector for eigenvalue {value} is not Hermitian")
            values.append(float(value))
            projectors.append(p)
        a = sum((i + 1) * p for i, p in enumerate(projectors))
        levels, basis = np.linalg.eigh((a + a.conj().T) / 2.0)
        cluster = np.rint(levels).astype(np.int64) - 1
        if np.any((cluster < 0) | (cluster >= len(values))):
            raise ValueError("projectors do not sum to the identity")
        obs = cls(tuple(values), basis, cluster, policy)
        for x, p in zip(values, projectors):
            if max_abs(p - obs.projector(x)) > tol:
                raise ValueError(
                    f"projector for eigenvalue {x} is not one of a set of orthogonal "
                    "projectors summing to the identity"
                )
        return obs

    @property
    def dim(self) -> int:
        return int(self.basis.shape[0])

    def index(self, x: float) -> int:
        """Position of the first eigenvalue within ``eigenvalue_tol`` of x."""
        return match_value(self.eigenvalues, x, self.policy.eigenvalue_tol)

    def projector(self, eigenvalue: float) -> np.ndarray:
        cols = self.basis[:, self.cluster == self.index(eigenvalue)]
        return cols @ cols.conj().T

    @cached_property
    def spectral_pairs(self) -> tuple[tuple[float, np.ndarray], ...]:
        """(eigenvalue, projector) pairs, built on first use."""
        return tuple((x, _frozen_array(self.projector(x))) for x in self.eigenvalues)

    def dense(self) -> np.ndarray:
        """Reassemble the operator as V diag(λ[cluster]) V†."""
        values = np.array(self.eigenvalues)[self.cluster]
        return (self.basis * values) @ self.basis.conj().T


@dataclass(frozen=True, eq=False)
class MeasurementModel:
    """Concrete measurement: state, observable, and outcome convention.

    ``convention`` maps every outcome label onto an eigenvalue of the
    observable, and must be surjective onto the spectrum.  The label set
    is kept distinct from the spectrum on purpose: relabeling arguments
    need the two layers to move independently.
    """

    label: str
    state: StateVector
    observable: Observable
    outcome_labels: tuple[str, ...]
    convention: Mapping[str, float]

    def __post_init__(self) -> None:
        if self.state.dim != self.observable.dim:
            raise ValueError("state and observable dimensions differ")
        labels = tuple(self.outcome_labels)
        if len(set(labels)) != len(labels):
            raise ValueError("outcome labels must be unique")
        conv = dict(self.convention)
        missing = [s for s in labels if s not in conv]
        if missing:
            raise ValueError(f"convention is not total: missing {missing}")
        extra = [s for s in conv if s not in labels]
        if extra:
            raise ValueError(f"convention maps unknown labels {extra}")
        spectrum = self.observable.eigenvalues
        snapped = {s: spectrum[self.observable.index(x)] for s, x in conv.items()}
        if len(set(snapped.values())) != len(spectrum):
            raise ValueError("convention is not surjective onto the spectrum")
        object.__setattr__(self, "outcome_labels", labels)
        object.__setattr__(self, "convention", snapped)

    def eigenvalue_image(self, event: Iterable[str]) -> set[float]:
        """C(E): the set of eigenvalues the event's labels map onto."""
        out = set()
        for s in event:
            if s not in self.convention:
                raise UnknownOutcomeLabel(f"unknown outcome label {s!r}")
            out.add(self.convention[s])
        return out


def spectral_decompose(
    matrix: np.ndarray, policy: NumericPolicy = DEFAULT_POLICY
) -> Observable:
    """Decompose a Hermitian matrix into clustered eigenvalues.

    Eigenvalues within ``tol`` = ``policy.eigenvalue_tol`` of each other
    are merged into a single eigenspace: their eigenvectors share one
    cluster, valued at their mean.  Raises :class:`NonHermitianInput` if
    the symmetry check fails and :class:`DegenerateClustering` if a merged
    cluster is smeared over more than ``tol`` (the spectrum is too
    ill-conditioned to call its eigenvalues either equal or distinct).
    The returned observable carries ``policy``.
    """
    tol = policy.eigenvalue_tol
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("input must be a square matrix")
    if not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite")
    # Entries near the float limit: a residual or eigenvalue gap past it
    # is inf, which still fails its test.  Halving before adding keeps the
    # symmetrized matrix finite and, being exact, bit for bit
    # (m + m^dag) / 2 wherever that did not overflow.
    with np.errstate(over="ignore"):
        residual = max_abs(m - m.conj().T)
        if not residual <= tol:
            raise NonHermitianInput(
                f"matrix is not Hermitian: max |M - M^dag| = {residual:.3e} > {tol:.3e}"
            )
        eigvals, eigvecs = np.linalg.eigh(m / 2.0 + m.conj().T / 2.0)
        groups = np.split(eigvals, np.flatnonzero(np.diff(eigvals) >= tol) + 1)
        means = [float(np.mean(g)) for g in groups]
    # A mean is past the float range only when its values are near it;
    # every value of a cluster is within tol of the first.
    means = tuple(
        mean if np.isfinite(mean) else float(g[0] + np.mean(g - g[0]))
        for g, mean in zip(groups, means)
    )
    for g, mean in zip(groups, means):
        spread = float(g[-1] - g[0])
        if not spread <= tol:
            raise DegenerateClustering(
                f"cluster around {mean:.6g} spans {spread:.3e} > {tol:.3e}"
            )
    cluster = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    return Observable(means, eigvecs, cluster, policy=policy)


def weight(model: MeasurementModel, event: Iterable[str]) -> float:
    """Quantum weight of an event: sum of <psi|P(x)|psi> over x in C(E).

    Labels mapping onto the same eigenvalue contribute that eigenspace
    once.  Returns exactly 0.0 for the empty event; otherwise the value
    is clamped to [0, 1].
    """
    return spectral_weight(
        model.state, model.observable, model.eigenvalue_image(event)
    )


def spectral_weight(
    state: StateVector, observable: Observable, eigenvalues: Iterable[float]
) -> float:
    """Sum of <psi|P(x)|psi> over the given eigenvalues, clamped to [0, 1]."""
    per_cluster = _cluster_weights(state, observable)
    total = sum((float(per_cluster[observable.index(x)]) for x in eigenvalues), 0.0)
    return min(1.0, max(0.0, total))


def _cluster_weights(state: StateVector, observable: Observable) -> np.ndarray:
    """<psi|P(x)|psi> for each eigenvalue x, in the order of ``eigenvalues``.

    <psi|P(x)|psi> is the squared norm of V_x† psi, so one transform
    V† psi serves every eigenvalue.
    """
    amplitudes = observable.basis.conj().T @ state.components
    return np.bincount(
        observable.cluster,
        weights=amplitudes.real**2 + amplitudes.imag**2,
        minlength=len(observable.eigenvalues),
    )


def make_rich_measurement(
    weights: Sequence[Fraction],
    label: str = "rich",
    policy: NumericPolicy = DEFAULT_POLICY,
) -> MeasurementModel:
    """Build an n-outcome measurement realizing the given positive weights.

    The state has components sqrt(w_i) on the computational basis, the
    observable is diag(1..n), outcome labels are o1..on with the identity
    convention o_i -> i.  Weights must be exact rationals, each strictly
    positive, summing exactly to 1.
    """
    ws = [Fraction(w) for w in weights]
    if not ws:
        raise ValueError("weights must be nonempty")
    for w in ws:
        if w <= 0:
            raise NonpositiveWeight(f"weight {w} is not strictly positive")
    total = sum(ws, Fraction(0))
    if total != 1:
        raise WeightsDontSumToOne(f"weights sum to {total}, not 1")
    n = len(ws)
    amplitudes = np.array([np.sqrt(float(w)) for w in ws], dtype=np.complex128)
    amplitudes /= np.sqrt(float(np.sum(np.abs(amplitudes) ** 2)))
    state = StateVector(amplitudes, policy=policy)
    observable = Observable(
        tuple(float(i + 1) for i in range(n)), np.eye(n), np.arange(n), policy=policy
    )
    labels = tuple(f"o{i + 1}" for i in range(n))
    convention = {labels[i]: float(i + 1) for i in range(n)}
    return MeasurementModel(label, state, observable, labels, convention)


def rational_weight(
    model: MeasurementModel, event: Iterable[str], max_den: int
) -> Fraction:
    """Closest rational p/q with q <= max_den to the event's weight.

    Bridges the floating-point layer into the exact kernel.  Raises
    :class:`NoRationalWithinTolerance` if the best bounded-denominator
    rational misses the computed weight by more than the observable's
    ``rational_tol``, which signals a genuinely irrational or noisy weight.
    """
    if max_den < 1:
        raise ValueError("max_den must be at least 1")
    w = weight(model, event)
    approx = Fraction(w).limit_denominator(max_den)
    gap = abs(float(approx) - w)
    if gap > model.observable.policy.rational_tol:
        raise NoRationalWithinTolerance(
            f"weight {w!r} is {gap:.3e} away from the nearest rational with "
            f"denominator <= {max_den}"
        )
    return approx
