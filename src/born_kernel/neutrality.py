"""Measurement-neutrality transforms and the two-dimensional normal form.

A bet on a quantum measurement is an ordered quadruple: an event (a set
of eigenvalues), a Hilbert-space dimension, a prepared state, and the
measured observable.  Two physically interchangeable descriptions arise
from (a) shifting a unitary between preparation and measurement
(intertwining transform) and (b) renaming the results (relabeling).
Chaining an indicator relabeling with an intertwiner maps any quadruple
onto a two-dimensional normal form c|0> + d|1> betting on eigenvalue 0,
with c^2 equal to the event weight, so the equivalence classes carved
out by the two transforms are characterized by weight alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .numeric import max_abs
from .quantum import Observable, StateVector, _cluster_weights, match_value, spectral_weight


class NotUnitary(ValueError):
    """Transform matrix fails the isometry check."""


class IntertwiningFails(ValueError):
    """Transform does not intertwine the two observables."""


@dataclass(frozen=True, eq=False)
class MeasurementQuadruple:
    """Event, dimension, state, observable: one bet on one measurement.

    The event is a subset of the observable's eigenvalues; members are
    snapped onto the spectrum at construction (within the eigenvalue
    tolerance) so later comparisons are exact.
    """

    state: StateVector
    observable: Observable
    event: frozenset[float]

    def __post_init__(self) -> None:
        if self.state.dim != self.observable.dim:
            raise ValueError("state and observable dimensions differ")
        spectrum = self.observable.eigenvalues
        snapped = frozenset(spectrum[self.observable.index(x)] for x in self.event)
        object.__setattr__(self, "event", snapped)

    @property
    def dim(self) -> int:
        return self.state.dim

    def event_weight(self) -> float:
        """Summed weight <psi|P(x)|psi> over the event's eigenvalues."""
        return spectral_weight(self.state, self.observable, self.event)


@dataclass(frozen=True)
class CanonicalForm:
    """Two-dimensional normal form of a quadruple: weight and (c, d).

    c and d are the nonnegative amplitudes of the normal-form state
    c|0> + d|1>, with c^2 equal to the event weight.
    """

    weight_value: float
    c: float
    d: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.weight_value <= 1.0):
            raise ValueError("weight must lie in [0, 1]")
        if self.c < 0 or self.d < 0:
            raise ValueError("canonical amplitudes are nonnegative")
        if abs(self.c**2 + self.d**2 - 1.0) > 1e-10:
            raise ValueError("canonical amplitudes must normalize")
        if abs(self.c**2 - self.weight_value) > 1e-10:
            raise ValueError("c^2 must equal the weight")


def unitary_transform(
    q: MeasurementQuadruple, U: np.ndarray, new_observable: Observable
) -> MeasurementQuadruple:
    """Move a unitary from the preparation side to the measurement side.

    U maps the quadruple's space into the new observable's space and
    must satisfy U X = X' U (operator composition order: X acts first)
    within ``q.observable``'s ``projector_tol``.  The returned quadruple
    keeps the same event, carries the transported state U|psi>, and has
    the same event weight within tolerance.
    """
    u = np.asarray(U, dtype=np.complex128)
    dim_out, dim_in = u.shape
    if dim_in != q.dim:
        raise ValueError(f"transform expects dimension {dim_in}, quadruple has {q.dim}")
    if dim_out != new_observable.dim:
        raise ValueError("transform output dimension does not match new observable")
    tol = q.observable.policy.projector_tol
    residual = max_abs(u.conj().T @ u - np.eye(dim_in))
    if residual > tol:
        raise NotUnitary(
            f"max |U^dag U - I| = {residual:.3e} exceeds {tol:.3e}"
        )
    lhs = u @ q.observable.dense()
    rhs = new_observable.dense() @ u
    residual = max_abs(lhs - rhs)
    if residual > tol:
        raise IntertwiningFails(
            f"max |U X - X' U| = {residual:.3e} exceeds {tol:.3e}"
        )
    new_state = StateVector(u @ q.state.components, policy=q.state.policy)
    return MeasurementQuadruple(new_state, new_observable, q.event)


def relabel(
    q: MeasurementQuadruple, f: Mapping[float, float] | Callable[[float], float]
) -> MeasurementQuadruple:
    """Rename results through f, merging eigenspaces that collide.

    The new observable's eigenspace for value z is spanned by the
    eigenvectors of every x with f(x) = z; the new event is the image
    f(E).  The image event's weight can only grow: it is unchanged
    exactly when f pulls f(E) back onto E (in particular whenever f is
    injective on the spectrum).
    """
    obs = q.observable
    if callable(f):
        mapping = {x: float(f(x)) for x in obs.eigenvalues}
    else:
        mapping = {x: float(f[x]) for x in obs.eigenvalues}
    # Near-identical relabeled values snap onto the first of them; each
    # old cluster is then renumbered to its image's place in sorted order.
    tol = obs.policy.eigenvalue_tol
    merged: list[float] = []
    for z in mapping.values():
        if all(abs(y - z) > tol for y in merged):
            merged.append(z)
    image = [match_value(merged, z, tol) for z in mapping.values()]
    rank = np.argsort(np.argsort(merged))
    new_observable = Observable(
        tuple(sorted(merged)), obs.basis, rank[image][obs.cluster], policy=obs.policy
    )
    new_event = frozenset(mapping[x] for x in q.event)
    return MeasurementQuadruple(q.state, new_observable, new_event)


def canonical_form(q: MeasurementQuadruple) -> CanonicalForm:
    """Collapse a quadruple to its two-dimensional normal form.

    The indicator relabeling (0 on the event, 1 off it) would merge the
    event's eigenspaces and the rest's; the state's norms in those two
    are the nonnegative amplitudes (c, d) the intertwiner onto the plane
    spanned by |0>, |1> would produce.  The output depends on the input
    only through the event weight; degenerate weights 0 and 1 are
    admitted with c or d equal to zero.  Raises ValueError when the
    observable's ``eigenvalue_tol`` is 1 or more: the indicator values 0
    and 1 would merge, and every event would weigh 1.
    """
    tol = q.observable.policy.eigenvalue_tol
    if tol >= 1:
        raise ValueError(
            f"the normal form needs eigenvalue_tol < 1 to tell the "
            f"indicator values 0 and 1 apart, got {tol}"
        )
    # c^2 and d^2: weights of the event and of its complement, so d = 0
    # exactly for the whole spectrum (1 - c^2 would leave rounding noise);
    # over their sum |psi|^2 for a loose norm_tol.
    per_cluster = _cluster_weights(q.state, q.observable)
    in_event = np.array([x in q.event for x in q.observable.eigenvalues])
    weights = np.array([per_cluster[in_event].sum(), per_cluster[~in_event].sum()])
    c, d = np.sqrt(weights / weights.sum()).tolist()
    return CanonicalForm(weight_value=c * c, c=c, d=d)


def canonical_quadruple(q: MeasurementQuadruple) -> MeasurementQuadruple:
    """The normal form as an actual two-dimensional quadruple.

    State c|0> + d|1>, observable with eigenvalue 0 on |0> and 1 on |1>,
    betting on eigenvalue 0, under the input quadruple's policies.
    """
    form = canonical_form(q)
    state = StateVector(
        np.array([form.c, form.d], dtype=np.complex128), policy=q.state.policy
    )
    observable = Observable(
        (0.0, 1.0), np.eye(2), (0, 1), policy=q.observable.policy
    )
    return MeasurementQuadruple(state, observable, frozenset({0.0}))


def same_equivalence_class(q1: MeasurementQuadruple, q2: MeasurementQuadruple) -> bool:
    """Whether two quadruples share a normal form.

    True exactly when their event weights agree within the larger of the
    two observables' ``projector_tol`` (so the relation is symmetric);
    the two transform families can turn one into the other precisely then.
    """
    tol = max(q1.observable.policy.projector_tol, q2.observable.policy.projector_tol)
    return abs(canonical_form(q1).weight_value - canonical_form(q2).weight_value) <= tol
