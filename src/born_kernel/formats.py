"""Versioned JSON wire formats.

Complex numbers serialize as [re, im] pairs, matrices row-major, and
rationals as {"num": ..., "den": ...} with decimal strings so arbitrary
precision survives the round trip.  Every top-level document carries a
"schema": "v1" marker.  Serialization is canonical (sorted keys, sorted
collections) so identical inputs always produce identical bytes; see
docs/formats.md for the field-by-field layout.
"""
from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from typing import Any

import numpy as np

from .numeric import DEFAULT_POLICY, NumericPolicy
from .neutrality import MeasurementQuadruple
from .ordering import (
    EventRef,
    LikelihoodOrdering,
    MeasurementFamily,
    WeightedMeasurement,
    _check_event_space_size,
    enumerate_event_refs,
    ref_sort_key,
)
from .quantum import MeasurementModel, Observable, StateVector
from .representation import ProbabilityAssignment

SCHEMA = "v1"


class FormatError(ValueError):
    """Document fails schema validation; message names the bad field."""


def canonical_dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def digest_bytes(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _expect(doc: Any, key: str, context: str) -> Any:
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"{context}: missing field {key!r}")
    return doc[key]


def _expect_list(doc: Any, key: str, context: str) -> list:
    """A field that must be a JSON list (a string or object is not read as one)."""
    value = _expect(doc, key, context)
    if not isinstance(value, list):
        raise FormatError(
            f"{context}: field {key!r} must be a list, got {type(value).__name__}"
        )
    return value


def _number(value: Any, kind: type, context: str) -> Any:
    """``kind(value)`` for kind float or int; FormatError where it fails."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise FormatError(f"{context}: {value!r} is not a number")


def _check_schema(doc: Any, context: str) -> None:
    if _expect(doc, "schema", context) != SCHEMA:
        raise FormatError(f"{context}: unsupported schema {doc.get('schema')!r}")


# -- rationals ----------------------------------------------------------

def rational_to_json(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


def rational_from_json(doc: Any, context: str = "rational") -> Fraction:
    num = _expect(doc, "num", context)
    den = _expect(doc, "den", context)
    try:
        return Fraction(int(str(num)), int(str(den)))
    except (ValueError, ZeroDivisionError) as exc:
        raise FormatError(f"{context}: bad rational {doc!r} ({exc})")


# -- complex vectors and matrices ---------------------------------------

def complex_to_json(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]

def complex_from_json(doc: Any, context: str = "complex") -> complex:
    if not isinstance(doc, (list, tuple)) or len(doc) != 2:
        raise FormatError(f"{context}: complex values are [re, im] pairs")
    return complex(_number(doc[0], float, context), _number(doc[1], float, context))


def matrix_to_json(m: np.ndarray) -> list:
    return [[complex_to_json(complex(z)) for z in row] for row in np.asarray(m)]


def matrix_from_json(doc: Any, context: str = "matrix") -> np.ndarray:
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise FormatError(f"{context}: matrix must be a nonempty list of row lists")
    rows = [[complex_from_json(z, context) for z in row] for row in doc]
    return np.array(rows, dtype=np.complex128)


# -- quantum layer ------------------------------------------------------

def state_to_json(state: StateVector) -> dict:
    return {
        "dim": state.dim,
        "components": [complex_to_json(complex(z)) for z in state.components],
    }


def state_from_json(
    doc: Any, policy: NumericPolicy = DEFAULT_POLICY, context: str = "state"
) -> StateVector:
    components = _expect(doc, "components", context)
    vec = np.array(
        [complex_from_json(z, context) for z in components], dtype=np.complex128
    )
    if "dim" in doc and _number(doc["dim"], int, f"{context}.dim") != vec.shape[0]:
        raise FormatError(f"{context}: dim does not match component count")
    try:
        return StateVector(vec, policy=policy)
    except ValueError as exc:
        raise FormatError(f"{context}: {exc}")


def observable_to_json(obs: Observable) -> dict:
    return {
        "dim": obs.dim,
        "spectral_pairs": [
            {"eigenvalue": v, "projector": matrix_to_json(p)}
            for v, p in obs.spectral_pairs
        ],
    }


def observable_from_json(
    doc: Any, policy: NumericPolicy = DEFAULT_POLICY, context: str = "observable"
) -> Observable:
    pairs = []
    for i, pair in enumerate(_expect_list(doc, "spectral_pairs", context)):
        ctx = f"{context}.spectral_pairs[{i}]"
        v = _number(_expect(pair, "eigenvalue", ctx), float, f"{ctx}.eigenvalue")
        p = matrix_from_json(_expect(pair, "projector", ctx), f"{ctx}.projector")
        pairs.append((v, p))
    try:
        return Observable.from_pairs(pairs, policy)
    except ValueError as exc:
        raise FormatError(f"{context}: {exc}")


def model_to_json(model: MeasurementModel) -> dict:
    return {
        "schema": SCHEMA,
        "label": model.label,
        "state": state_to_json(model.state),
        "observable": observable_to_json(model.observable),
        "outcome_labels": list(model.outcome_labels),
        "convention": {s: model.convention[s] for s in model.outcome_labels},
    }


def model_from_json(
    doc: Any, policy: NumericPolicy = DEFAULT_POLICY
) -> MeasurementModel:
    _check_schema(doc, "model")
    try:
        return MeasurementModel(
            label=str(_expect(doc, "label", "model")),
            state=state_from_json(_expect(doc, "state", "model"), policy),
            observable=observable_from_json(
                _expect(doc, "observable", "model"), policy
            ),
            outcome_labels=tuple(_expect_list(doc, "outcome_labels", "model")),
            convention={
                str(k): _number(v, float, f"model.convention.{k}")
                for k, v in _expect(doc, "convention", "model").items()
            },
        )
    except ValueError as exc:
        raise FormatError(f"model: {exc}")


def quadruple_to_json(q: MeasurementQuadruple) -> dict:
    return {
        "schema": SCHEMA,
        "dim": q.dim,
        "state": state_to_json(q.state),
        "observable": observable_to_json(q.observable),
        "event": sorted(q.event),
    }


def quadruple_from_json(
    doc: Any, policy: NumericPolicy = DEFAULT_POLICY
) -> MeasurementQuadruple:
    _check_schema(doc, "quadruple")
    event_doc = _expect_list(doc, "event", "quadruple")
    try:
        return MeasurementQuadruple(
            state=state_from_json(_expect(doc, "state", "quadruple"), policy),
            observable=observable_from_json(
                _expect(doc, "observable", "quadruple"), policy
            ),
            event=frozenset(_number(x, float, "quadruple.event") for x in event_doc),
        )
    except ValueError as exc:
        raise FormatError(f"quadruple: {exc}")


# -- decision kernel ----------------------------------------------------

def family_to_json(family: MeasurementFamily) -> dict:
    return {
        "schema": SCHEMA,
        "measurements": [
            {
                "id": m.id,
                "outcomes": list(m.outcomes),
                "weights": [rational_to_json(w) for w in m.weights],
            }
            for m in sorted(family.measurements, key=lambda m: m.id)
        ],
    }


def family_from_json(doc: Any) -> MeasurementFamily:
    _check_schema(doc, "family")
    measurements = []
    for i, mdoc in enumerate(_expect_list(doc, "measurements", "family")):
        ctx = f"family.measurements[{i}]"
        outcomes = tuple(str(o) for o in _expect_list(mdoc, "outcomes", ctx))
        weights = tuple(
            rational_from_json(w, f"{ctx}.weights[{j}]")
            for j, w in enumerate(_expect_list(mdoc, "weights", ctx))
        )
        try:
            measurements.append(
                WeightedMeasurement(str(_expect(mdoc, "id", ctx)), outcomes, weights)
            )
        except ValueError as exc:
            raise FormatError(f"{ctx}: {exc}")
    try:
        return MeasurementFamily(tuple(measurements))
    except ValueError as exc:
        raise FormatError(f"family: {exc}")


def family_digest(family: MeasurementFamily) -> str:
    return digest_bytes(canonical_dumps(family_to_json(family)).encode())


def event_ref_to_json(ref: EventRef) -> dict:
    return {"measurement": ref.measurement_id, "event": sorted(ref.event)}


def event_ref_from_json(
    doc: Any, family: MeasurementFamily, context: str = "event ref"
) -> EventRef:
    mid = str(_expect(doc, "measurement", context))
    event_doc = _expect_list(doc, "event", context)
    if mid not in family.by_id:
        raise FormatError(f"{context}: unknown measurement {mid!r}")
    event = frozenset(str(o) for o in event_doc)
    extra = event - set(family.by_id[mid].outcomes)
    if extra:
        raise FormatError(f"{context}: unknown outcomes {sorted(extra)} in {mid!r}")
    return EventRef(mid, event)


def ordering_to_json(ordering: LikelihoodOrdering) -> dict:
    """Relation as the list of ordered pairs asserted true.

    Unlisted pairs are false.  Pairs are emitted in canonical
    (measurement id, event bitmask) order, which is the row-major order
    of the matrix over the ordering's canonical refs.
    """
    refs = ordering.refs
    pairs = [
        [event_ref_to_json(refs[i]), event_ref_to_json(refs[j])]
        for i, row in enumerate(ordering.matrix)
        for j in np.flatnonzero(row)
    ]
    return {
        "schema": SCHEMA,
        "family_digest": family_digest(ordering.family),
        "pairs": pairs,
    }


def ordering_from_json(doc: Any, family: MeasurementFamily) -> LikelihoodOrdering:
    _check_schema(doc, "ordering")
    if "family_digest" in doc and doc["family_digest"] != family_digest(family):
        raise FormatError(
            "ordering: family_digest does not match the supplied family"
        )
    try:
        _check_event_space_size(family)
    except ValueError as exc:
        raise FormatError(f"ordering: {exc}")
    refs = enumerate_event_refs(family)
    index = {r: i for i, r in enumerate(refs)}
    n = len(refs)
    matrix = np.zeros((n, n), dtype=bool)
    for k, pair in enumerate(_expect_list(doc, "pairs", "ordering")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FormatError(f"ordering.pairs[{k}]: each pair is [left, right]")
        a = event_ref_from_json(pair[0], family, f"ordering.pairs[{k}][0]")
        b = event_ref_from_json(pair[1], family, f"ordering.pairs[{k}][1]")
        matrix[index[a], index[b]] = True
    return LikelihoodOrdering(family, refs, matrix)


def assignment_to_json(assignment: ProbabilityAssignment) -> dict:
    family = assignment.family
    refs = sorted(assignment.values, key=lambda r: ref_sort_key(family, r))
    return {
        "schema": SCHEMA,
        "family_digest": family_digest(family),
        "values": [
            {
                "measurement": r.measurement_id,
                "event": sorted(r.event),
                "probability": rational_to_json(assignment.values[r]),
            }
            for r in refs
        ],
    }


def assignment_from_json(doc: Any, family: MeasurementFamily) -> ProbabilityAssignment:
    _check_schema(doc, "assignment")
    values: dict[EventRef, Fraction] = {}
    for k, vdoc in enumerate(_expect_list(doc, "values", "assignment")):
        ctx = f"assignment.values[{k}]"
        ref = event_ref_from_json(vdoc, family, ctx)
        values[ref] = rational_from_json(_expect(vdoc, "probability", ctx), ctx)
    expected = set(enumerate_event_refs(family))
    missing = expected - set(values)
    if missing:
        raise FormatError(f"assignment: {len(missing)} events have no value")
    return ProbabilityAssignment(family, values)
