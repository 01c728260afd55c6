"""Versioned JSON wire formats.

Complex numbers serialize as [re, im] pairs, matrices row-major, and
rationals as {"num": ..., "den": ...} with decimal strings so arbitrary
precision survives the round trip.  Every top-level document carries a
"schema" marker.  It is "v1" for all of them except the tiers form of an
ordering, "v2": a total preorder as its equal-likelihood classes, O(n)
where the v1 pair list is Θ(n²).  ``tiers_to_json`` writes v2 (gen-rich
uses it), ``ordering_to_json`` writes v1 for any relation, and
``ordering_from_json`` reads both.  Serialization is canonical (sorted
keys, sorted collections) so identical inputs always produce identical
bytes; see docs/formats.md for the field-by-field layout.
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import json
import sys
from dataclasses import fields, replace
from fractions import Fraction
from types import GenericAlias
from typing import Any

import numpy as np

from .numeric import DEFAULT_POLICY, NumericPolicy
from .neutrality import MeasurementQuadruple
from .ordering import (
    EventRef,
    LikelihoodOrdering,
    MeasurementFamily,
    WeightedMeasurement,
    _ge,
    _ordering_from_ranks,
    require_event_count,
)
from .quantum import MeasurementModel, Observable, StateVector
from .representation import ProbabilityAssignment

SCHEMA = "v1"
TIERS_SCHEMA = "v2"


class FormatError(ValueError):
    """Document fails schema validation; message names the bad field."""


def canonical_dumps(doc: Any) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def digest_bytes(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


_FLOAT_MAX = sys.float_info.max
_DECIMAL = (str, int)  # a rational's num or den: ASCII digits after an optional "-"
_NAMES = {dict: "an object", list: "a list", str: "a string", int: "an integer",
          float: "a finite number", _DECIMAL: "a decimal string or an integer"}


def _is(value: Any, kind: Any) -> bool:
    """JSON typing: a bool is never a number, an integer is a valid float
    and a float is finite.  A string kind is a literal value must equal."""
    if kind is float:
        return (isinstance(value, float) or type(value) is int) and (
            -_FLOAT_MAX <= value <= _FLOAT_MAX)
    if kind is _DECIMAL:
        return type(value) is int or isinstance(value, str) and value.isascii() and (
            value.removeprefix("-").isdigit())
    if isinstance(kind, str):
        return value == kind
    return type(value) is not bool and isinstance(value, kind)


def _get(doc: Any, key: str, kind: Any, context: str) -> Any:
    """``doc[key]`` if it is of JSON ``kind`` (see :func:`_is`), else FormatError;
    ``list[k]`` and ``dict[str, k]`` also need every item of kind k."""
    if not isinstance(doc, dict) or key not in doc:
        raise FormatError(f"{context}: missing field {key!r}")
    value, generic = doc[key], type(kind) is GenericAlias
    outer, item = (kind.__origin__, kind.__args__[-1]) if generic else (kind, None)
    if _is(value, outer) and (item is None or all(
        _is(x, item) for x in (value.values() if outer is dict else value)
    )):
        return value
    want = _NAMES.get(outer, repr(outer)) + (f", each item {_NAMES[item]}" if item else "")
    raise FormatError(f"{context}: field {key!r} must be {want}, got {value!r:.60}")


def _reader(read):
    """Where a domain ValueError becomes a FormatError, labelled with the
    reader's name; ``_position`` converts first for an event ref, so its
    error names the ref's field path."""
    @functools.wraps(read)
    def wrapper(*args, **kwargs):
        try:
            return read(*args, **kwargs)
        except FormatError:
            raise
        except ValueError as exc:
            raise FormatError(f"{read.__name__.removesuffix('_from_json')}: {exc}") from exc
    return wrapper


def _check_dim(doc: dict, size: int, context: str) -> None:
    """An optional ``dim`` must be a JSON integer equal to ``size``."""
    if "dim" in doc and _get(doc, "dim", int, context) != size:
        raise FormatError(f"{context}: dim {doc['dim']} does not match size {size}")


# -- rationals ----------------------------------------------------------

def rational_to_json(value: Fraction) -> dict:
    return {"num": str(value.numerator), "den": str(value.denominator)}


@_reader
def rational_from_json(doc: Any, context: str = "rational") -> Fraction:
    num, den = (int(_get(doc, key, _DECIMAL, context)) for key in ("num", "den"))
    if den == 0:
        raise FormatError(f"{context}: den is 0")
    return Fraction(num, den)


# -- complex vectors and matrices ---------------------------------------

def complex_from_json(doc: Any, context: str = "complex") -> complex:
    if not (isinstance(doc, list) and len(doc) == 2
            and _is(doc[0], float) and _is(doc[1], float)):
        raise FormatError(f"{context}: complex values are [re, im] pairs of finite numbers")
    return complex(*doc)


def _complex_pairs(pairs: list) -> np.ndarray | None:
    """The complex128 vector of [re, im] pairs in one pass, or None if an entry
    may be bad, for the per-entry reader to name.  The type sets keep out bool,
    str and null; an int just above the largest float rounds to it."""
    if set(map(type, pairs)) != {list} or set(map(len, pairs)) != {2}:
        return None
    flat = list(itertools.chain.from_iterable(pairs))
    if not set(map(type, flat)) <= {float, int}:
        return None
    try:
        values = np.array(flat, np.float64)
    except OverflowError:
        return None
    return values.view(np.complex128) if (np.abs(values) < _FLOAT_MAX).all() else None


def matrix_to_json(m: np.ndarray) -> list:
    """A complex matrix, or vector, as nested lists of [re, im] float pairs."""
    a = np.ascontiguousarray(m, np.complex128)
    return a.view(np.float64).reshape(a.shape + (2,)).tolist()


@_reader
def matrix_from_json(doc: Any, context: str = "matrix") -> np.ndarray:
    if not isinstance(doc, list) or not doc or not all(isinstance(r, list) for r in doc):
        raise FormatError(f"{context}: matrix must be a nonempty list of row lists")
    if len(set(map(len, doc))) == 1:
        vec = _complex_pairs(list(itertools.chain.from_iterable(doc)))
        if vec is not None:
            return vec.reshape(len(doc), -1)
    rows = [[complex_from_json(z, context) for z in row] for row in doc]
    return np.array(rows, dtype=np.complex128)


# -- quantum layer ------------------------------------------------------

def state_to_json(state: StateVector) -> dict:
    return {"dim": state.dim, "components": matrix_to_json(state.components)}


@_reader
def state_from_json(
    doc: Any, policy: NumericPolicy = DEFAULT_POLICY, context: str = "state"
) -> StateVector:
    components = _get(doc, "components", list, context)
    vec = _complex_pairs(components)
    if vec is None:
        vec = np.array([complex_from_json(z, context) for z in components], dtype=np.complex128)
    _check_dim(doc, len(vec), context)
    return StateVector(vec, policy=policy)


def observable_to_json(obs: Observable) -> dict:
    return {
        "dim": obs.dim,
        "spectral_pairs": [
            {"eigenvalue": v, "projector": matrix_to_json(p)}
            for v, p in obs.spectral_pairs
        ],
    }


@_reader
def observable_from_json(
    doc: Any, policy: NumericPolicy = DEFAULT_POLICY, context: str = "observable"
) -> Observable:
    pairs = []
    for i, pair in enumerate(_get(doc, "spectral_pairs", list, context)):
        ctx = f"{context}.spectral_pairs[{i}]"
        p = matrix_from_json(_get(pair, "projector", list, ctx), f"{ctx}.projector")
        pairs.append((_get(pair, "eigenvalue", float, ctx), p))
    observable = Observable.from_pairs(pairs, policy)
    _check_dim(doc, observable.dim, context)
    return observable


def model_to_json(model: MeasurementModel) -> dict:
    return {
        "schema": SCHEMA,
        "label": model.label,
        "state": state_to_json(model.state),
        "observable": observable_to_json(model.observable),
        "outcome_labels": list(model.outcome_labels),
        "convention": {s: model.convention[s] for s in model.outcome_labels},
    }


@_reader
def model_from_json(
    doc: Any, policy: NumericPolicy = DEFAULT_POLICY
) -> MeasurementModel:
    _get(doc, "schema", SCHEMA, "model")
    return MeasurementModel(
        label=_get(doc, "label", str, "model"),
        state=state_from_json(_get(doc, "state", dict, "model"), policy),
        observable=observable_from_json(_get(doc, "observable", dict, "model"), policy),
        outcome_labels=tuple(_get(doc, "outcome_labels", list[str], "model")),
        convention=_get(doc, "convention", dict[str, float], "model"),
    )


def quadruple_to_json(q: MeasurementQuadruple) -> dict:
    return {
        "schema": SCHEMA,
        "dim": q.dim,
        "state": state_to_json(q.state),
        "observable": observable_to_json(q.observable),
        "event": sorted(q.event),
    }


@_reader
def quadruple_from_json(
    doc: Any, policy: NumericPolicy = DEFAULT_POLICY
) -> MeasurementQuadruple:
    _get(doc, "schema", SCHEMA, "quadruple")
    quadruple = MeasurementQuadruple(
        state=state_from_json(_get(doc, "state", dict, "quadruple"), policy),
        observable=observable_from_json(_get(doc, "observable", dict, "quadruple"), policy),
        event=frozenset(_get(doc, "event", list[float], "quadruple")),
    )
    _check_dim(doc, quadruple.dim, "quadruple")
    return quadruple


@_reader
def policy_from_json(doc: Any) -> NumericPolicy:
    """Overrides of some NumericPolicy fields; NumericPolicy checks the values."""
    names = {f.name for f in fields(NumericPolicy)}
    if not isinstance(doc, dict) or not doc.keys() <= names:
        raise FormatError(f"policy: an object with fields among {sorted(names)}")
    return replace(DEFAULT_POLICY, **doc)


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
            for m in family.canonical
        ],
    }


@_reader
def family_from_json(doc: Any) -> MeasurementFamily:
    _get(doc, "schema", SCHEMA, "family")
    measurements = []
    for i, mdoc in enumerate(_get(doc, "measurements", list, "family")):
        ctx = f"family.measurements[{i}]"
        weights = tuple(
            rational_from_json(w, f"{ctx}.weights[{j}]")
            for j, w in enumerate(_get(mdoc, "weights", list, ctx))
        )
        mid, outcomes = _get(mdoc, "id", str, ctx), _get(mdoc, "outcomes", list[str], ctx)
        measurements.append(WeightedMeasurement(mid, tuple(outcomes), weights))
    return MeasurementFamily(tuple(measurements))


def family_digest(family: MeasurementFamily) -> str:
    return digest_bytes(canonical_dumps(family_to_json(family)).encode())


def event_ref_to_json(ref: EventRef) -> dict:
    return {"measurement": ref.measurement_id, "event": sorted(ref.event)}


def _position(doc: Any, family: MeasurementFamily, context: str) -> int:
    """Canonical position ``slices[mid].start + event mask`` of an event ref."""
    mid = _get(doc, "measurement", str, context)
    labels = _get(doc, "event", list[str], context)
    try:
        return family.position(mid, labels)
    except ValueError as exc:
        raise FormatError(f"{context}: {exc}") from exc


def _each_event_once(family: MeasurementFamily, context: str, items) -> list:
    """Values by canonical position from ``(context, ref doc, value)``
    items that list every event of the family exactly once."""
    out = [None] * family.event_count()
    for ctx, ref, value in items:
        i = _position(ref, family, ctx)
        if out[i] is not None:
            raise FormatError(f"{ctx}: event {family.ref_at(i).label()} is listed twice")
        out[i] = value
    if None in out:
        raise FormatError(f"{context}: {out.count(None)} of {len(out)} events are not "
                          f"listed, the first {family.ref_at(out.index(None)).label()}")
    return out


def ordering_to_json(ordering: LikelihoodOrdering) -> dict:
    """Relation as the list of ordered pairs asserted true.

    Unlisted pairs are false.  Pairs are emitted in canonical
    (measurement id, event bitmask) order, which is the row-major order
    of the relation over the ordering's canonical refs, read row by row.
    """
    refs = ordering.refs
    events = np.arange(len(refs))
    pairs = [
        [event_ref_to_json(refs[i]), event_ref_to_json(refs[j])]
        for i in events.tolist()
        for j in np.flatnonzero(_ge(ordering, i, events))
    ]
    return {
        "schema": SCHEMA,
        "family_digest": family_digest(ordering.family),
        "pairs": pairs,
    }


def tiers_to_json(ordering: LikelihoodOrdering) -> dict:
    """Total preorder as its equal-likelihood classes, least likely first.

    Tier t lists the events of rank t (``ordering.ranks``) in canonical
    position order.  A relation without ranks, no total preorder, has no
    tiers form and raises ValueError.
    """
    ranks = ordering.ranks
    if ranks is None:
        raise ValueError("ordering is not a total preorder, so it has no tiers form")
    tiers: list[list] = [[] for _ in range(int(ranks.max()) + 1)]
    for ref, t in zip(ordering.refs, ranks.tolist()):
        tiers[t].append(event_ref_to_json(ref))
    return {
        "schema": TIERS_SCHEMA,
        "family_digest": family_digest(ordering.family),
        "tiers": tiers,
    }


@_reader
def ordering_from_json(doc: Any, family: MeasurementFamily) -> LikelihoodOrdering:
    """A v1 pair list or a v2 tiers document, as the relation it states."""
    schema = _get(doc, "schema", str, "ordering")
    if schema not in (SCHEMA, TIERS_SCHEMA):
        raise FormatError(f"ordering: schema must be {SCHEMA!r} or {TIERS_SCHEMA!r}, "
                          f"got {schema!r:.60}")
    if "family_digest" in doc and doc["family_digest"] != family_digest(family):
        raise FormatError("ordering: family_digest does not match the supplied family")
    require_event_count(family.event_count())
    if schema == TIERS_SCHEMA:
        tiers = _get(doc, "tiers", list[list], "ordering")
        if [] in tiers:
            raise FormatError(f"ordering.tiers[{tiers.index([])}]: a tier is never empty")
        return _ordering_from_ranks(family, _each_event_once(family, "ordering", (
            (f"ordering.tiers[{t}][{k}]", ref, t)
            for t, tier in enumerate(tiers) for k, ref in enumerate(tier)
        )))
    rows, cols = [], []
    for k, pair in enumerate(_get(doc, "pairs", list, "ordering")):
        if not isinstance(pair, list) or len(pair) != 2:
            raise FormatError(f"ordering.pairs[{k}]: each pair is [left, right]")
        rows.append(_position(pair[0], family, f"ordering.pairs[{k}][0]"))
        cols.append(_position(pair[1], family, f"ordering.pairs[{k}][1]"))
    matrix = np.zeros((family.event_count(),) * 2, dtype=bool)
    matrix[rows, cols] = True
    matrix.setflags(write=False)  # handed over, so the ordering need not copy it
    return LikelihoodOrdering(family, family.refs, matrix)


def assignment_to_json(assignment: ProbabilityAssignment) -> dict:
    family = assignment.family
    return {
        "schema": SCHEMA,
        "family_digest": family_digest(family),
        "values": [
            {
                "measurement": r.measurement_id,
                "event": sorted(r.event),
                "probability": rational_to_json(value),
            }
            for r, value in zip(family.refs, assignment.vector)
        ],
    }


@_reader
def assignment_from_json(doc: Any, family: MeasurementFamily) -> ProbabilityAssignment:
    """A v1 document's value for every event; they must form a probability
    measure, each event's value the sum of its outcomes' values."""
    _get(doc, "schema", SCHEMA, "assignment")
    values = _each_event_once(family, "assignment", (
        (ctx, vdoc, rational_from_json(_get(vdoc, "probability", dict, ctx), ctx))
        for k, vdoc in enumerate(_get(doc, "values", list, "assignment"))
        for ctx in [f"assignment.values[{k}]"]
    ))
    singles = family._singletons
    assignment = ProbabilityAssignment(family, {k: values[p] for k, p in singles.items()})
    for i, (read, summed) in enumerate(zip(values, assignment.vector)):
        if read != summed:
            raise FormatError(f"assignment: {family.ref_at(i).label()} is {read}, "
                              f"its outcomes sum to {summed}")
    return assignment
