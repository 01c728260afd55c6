"""Finite-dimensional quantum machinery.

States, discrete-spectrum self-adjoint observables (as spectral pairs),
measurement models with explicit outcome-label conventions, and the
weight function

    W(E) = sum over x in C(E) of <psi| P(x) |psi>

where C maps outcome labels onto eigenvalues and P(x) projects onto the
x-eigenspace.  Everything here is floating point against an explicit
:class:`~born_kernel.numeric.NumericPolicy`; :func:`rational_weight`
bridges into the exact-rational decision kernel.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
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


@dataclass(frozen=True, eq=False)
class StateVector:
    """Normalized vector in a finite-dimensional complex Hilbert space."""

    components: np.ndarray
    policy: NumericPolicy = field(default=DEFAULT_POLICY, repr=False)

    def __post_init__(self) -> None:
        c = np.asarray(self.components, dtype=np.complex128).reshape(-1)
        if c.size == 0:
            raise ValueError("state vector must have positive dimension")
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
    """Discrete-spectrum self-adjoint operator stored as spectral pairs.

    Each pair is (eigenvalue, projector onto that eigenspace).  Validation
    enforces distinct eigenvalues, Hermitian idempotent projectors,
    pairwise orthogonality, and completeness (projectors sum to identity).
    """

    spectral_pairs: tuple[tuple[float, np.ndarray], ...]
    policy: NumericPolicy = field(default=DEFAULT_POLICY, repr=False)

    def __post_init__(self) -> None:
        if not self.spectral_pairs:
            raise ValueError("observable needs at least one spectral pair")
        tol = self.policy.projector_tol
        pairs: list[tuple[float, np.ndarray]] = []
        dim = None
        for value, proj in self.spectral_pairs:
            p = np.asarray(proj, dtype=np.complex128)
            if p.ndim != 2 or p.shape[0] != p.shape[1]:
                raise ValueError("projector must be a square matrix")
            if dim is None:
                dim = p.shape[0]
            elif p.shape[0] != dim:
                raise ValueError("all projectors must share one dimension")
            if max_abs(p - p.conj().T) > tol:
                raise ValueError(f"projector for eigenvalue {value} is not Hermitian")
            if max_abs(p @ p - p) > tol:
                raise ValueError(f"projector for eigenvalue {value} is not idempotent")
            pairs.append((float(value), _frozen_array(p)))
        values = [v for v, _ in pairs]
        for i in range(len(values)):
            for j in range(i + 1, len(values)):
                if abs(values[i] - values[j]) <= self.policy.eigenvalue_tol:
                    raise ValueError(
                        f"eigenvalues {values[i]} and {values[j]} are not separated"
                    )
                if max_abs(pairs[i][1] @ pairs[j][1]) > tol:
                    raise ValueError(
                        f"projectors for {values[i]} and {values[j]} are not orthogonal"
                    )
        total = sum(p for _, p in pairs)
        if max_abs(total - np.eye(dim)) > tol:
            raise ValueError("projectors do not sum to the identity")
        object.__setattr__(self, "spectral_pairs", tuple(pairs))

    @property
    def dim(self) -> int:
        return int(self.spectral_pairs[0][1].shape[0])

    @property
    def eigenvalues(self) -> tuple[float, ...]:
        return tuple(v for v, _ in self.spectral_pairs)

    def projector(self, eigenvalue: float) -> np.ndarray:
        for v, p in self.spectral_pairs:
            if abs(v - eigenvalue) <= self.policy.eigenvalue_tol:
                return p
        raise KeyError(f"{eigenvalue} is not an eigenvalue of this observable")

    def dense(self) -> np.ndarray:
        """Reassemble the operator as sum of eigenvalue * projector."""
        return sum(v * p for v, p in self.spectral_pairs)


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
        tol = self.observable.policy.eigenvalue_tol
        snapped: dict[str, float] = {}
        for s, x in conv.items():
            matches = [v for v in self.observable.eigenvalues if abs(v - x) <= tol]
            if not matches:
                raise ValueError(f"convention value {x} for {s!r} is not an eigenvalue")
            snapped[s] = matches[0]
        hit = {v for v in snapped.values()}
        if len(hit) != len(self.observable.eigenvalues):
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
    matrix: np.ndarray,
    tol: float = DEFAULT_POLICY.eigenvalue_tol,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Observable:
    """Decompose a Hermitian matrix into clustered spectral pairs.

    Eigenvalues within ``tol`` of each other are merged into a single
    eigenspace (their projectors summed).  Raises
    :class:`NonHermitianInput` if the symmetry check fails and
    :class:`DegenerateClustering` if a merged cluster is smeared over more
    than ``tol`` (the spectrum is too ill-conditioned to call its
    eigenvalues either equal or distinct).
    """
    m = np.asarray(matrix, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("input must be a square matrix")
    residual = max_abs(m - m.conj().T)
    if residual > tol:
        raise NonHermitianInput(
            f"matrix is not Hermitian: max |M - M^dag| = {residual:.3e} > {tol:.3e}"
        )
    eigvals, eigvecs = np.linalg.eigh((m + m.conj().T) / 2.0)

    clusters: list[list[int]] = [[0]]
    for i in range(1, len(eigvals)):
        if eigvals[i] - eigvals[clusters[-1][-1]] < tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    pairs = []
    for idx in clusters:
        spread = float(eigvals[idx[-1]] - eigvals[idx[0]])
        if spread > tol:
            raise DegenerateClustering(
                f"cluster around {float(np.mean(eigvals[idx])):.6g} spans "
                f"{spread:.3e} > {tol:.3e}"
            )
        vecs = eigvecs[:, idx]
        proj = vecs @ vecs.conj().T
        proj = (proj + proj.conj().T) / 2.0
        pairs.append((float(np.mean(eigvals[idx])), proj))
    obs_policy = NumericPolicy(
        norm_tol=policy.norm_tol,
        projector_tol=policy.projector_tol,
        eigenvalue_tol=min(tol, policy.eigenvalue_tol),
        rational_tol=policy.rational_tol,
    )
    return Observable(tuple(pairs), policy=obs_policy)


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
    psi = state.components
    total = 0.0
    for x in eigenvalues:
        p = observable.projector(x)
        total += float(np.real(psi.conj() @ (p @ psi)))
    return min(1.0, max(0.0, total))


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
    basis = np.eye(n, dtype=np.complex128)
    pairs = tuple(
        (float(i + 1), np.outer(basis[:, i], basis[:, i].conj())) for i in range(n)
    )
    observable = Observable(pairs, policy=policy)
    labels = tuple(f"o{i + 1}" for i in range(n))
    convention = {labels[i]: float(i + 1) for i in range(n)}
    return MeasurementModel(label, state, observable, labels, convention)


def rational_weight(
    model: MeasurementModel,
    event: Iterable[str],
    max_den: int,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> Fraction:
    """Closest rational p/q with q <= max_den to the event's weight.

    Bridges the floating-point layer into the exact kernel.  Raises
    :class:`NoRationalWithinTolerance` if the best bounded-denominator
    rational misses the computed weight by more than the policy's
    rational gap, which signals a genuinely irrational or noisy weight.
    """
    if max_den < 1:
        raise ValueError("max_den must be at least 1")
    w = weight(model, event)
    approx = Fraction(w).limit_denominator(max_den)
    gap = abs(float(approx) - w)
    if gap > policy.rational_tol:
        raise NoRationalWithinTolerance(
            f"weight {w!r} is {gap:.3e} away from the nearest rational with "
            f"denominator <= {max_den}"
        )
    return approx
