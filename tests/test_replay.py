"""`replay_witness` against the axiom definitions.

The oracle below reads each axiom as the module docstring of
`born_kernel.ordering` states it, on event refs: a >= b is the matrix
entry of the two refs, a null event is one judged equal to the empty
event of its own measurement, and E subset-of F relates two events of
one measurement.  It shares no code with the position arithmetic of
`replay_witness`.
"""
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from born_kernel import (
    EventRef,
    MeasurementFamily,
    WeightedMeasurement,
    induced_ordering,
    replay_witness,
)
from conftest import own_weights
from test_total_preorder import relations

ARITY = {"Transitivity": 3, "Separation": 1, "Dominance": 2, "Equivalence": 2, "Totality": 2}


def violates(ordering, axiom, witness) -> bool:
    """Whether ``witness`` violates ``axiom`` (for Separation: is null)."""

    def geq(a, b):
        return bool(ordering.matrix[ordering.index[a], ordering.index[b]])

    def equal(a, b):
        return geq(a, b) and geq(b, a)

    def null(a):
        return equal(a, EventRef(a.measurement_id, frozenset()))

    if axiom == "Transitivity":
        a, b, c = witness
        return geq(a, b) and geq(b, c) and not geq(a, c)
    if axiom == "Separation":
        (a,) = witness
        return null(a)
    if axiom == "Dominance":
        e, f = witness
        if e.measurement_id != f.measurement_id or not e.event <= f.event:
            return False
        difference = EventRef(f.measurement_id, f.event - e.event)
        return not geq(f, e) or equal(f, e) != null(difference)
    if axiom == "Equivalence":
        a, b = witness
        weight = own_weights(ordering.family).value
        return weight(a) == weight(b) and not equal(a, b)
    a, b = witness  # Totality
    return not geq(a, b) and not geq(b, a)


@settings(max_examples=200, deadline=None)
@given(relations())
def test_every_reported_witness_replays(ordering):
    for report in ordering.reports:
        for witness in report.witnesses:
            assert violates(ordering, report.axiom, witness), (report.axiom, witness)
            assert replay_witness(ordering, report.axiom, witness)


@settings(max_examples=200, deadline=None)
@given(relations(), st.integers(0, 2**32 - 1))
def test_random_tuples_replay_as_the_definitions_say(ordering, seed):
    refs = ordering.family.refs
    rng = np.random.default_rng(seed)
    for axiom, k in ARITY.items():
        for picks in rng.integers(0, len(refs), size=(20, k)).tolist():
            witness = tuple(refs[i] for i in picks)
            assert replay_witness(ordering, axiom, witness) == violates(ordering, axiom, witness)


@settings(max_examples=100, deadline=None)
@given(relations())
def test_no_pair_across_measurements_replays_as_dominance(ordering):
    refs = ordering.family.refs
    for e in refs:
        for f in refs:
            if e.measurement_id != f.measurement_id:
                assert not replay_witness(ordering, "Dominance", (e, f))


@pytest.mark.parametrize("axiom", sorted(ARITY))
@pytest.mark.parametrize("outside", [
    EventRef("nowhere", frozenset({"o0"})),
    EventRef("m0", frozenset({"o0", "o9"})),
])
def test_ref_outside_the_family_is_named(axiom, outside):
    family = MeasurementFamily((WeightedMeasurement("m0", ("o0", "o1"), (Fraction(1, 2),) * 2),))
    ordering = induced_ordering(family)
    inside = EventRef("m0", frozenset({"o0"}))
    witness = (inside,) * (ARITY[axiom] - 1) + (outside,)
    with pytest.raises(ValueError, match=re.escape(outside.label())):
        replay_witness(ordering, axiom, witness)
