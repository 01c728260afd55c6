"""JSON wire formats: round trips, canonical bytes, validation errors."""
import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from born_kernel import (
    LikelihoodOrdering,
    MeasurementFamily,
    MeasurementQuadruple,
    StateVector,
    WeightedMeasurement,
    generate_rich_family,
    induced_ordering,
    make_rich_measurement,
    outcome_count_ordering,
    run_all_checks,
    spectral_decompose,
)
from born_kernel.formats import (
    FormatError,
    assignment_from_json,
    assignment_to_json,
    canonical_dumps,
    family_digest,
    family_from_json,
    family_to_json,
    matrix_from_json,
    matrix_to_json,
    model_from_json,
    model_to_json,
    observable_from_json,
    ordering_from_json,
    ordering_to_json,
    quadruple_from_json,
    quadruple_to_json,
    rational_from_json,
    rational_to_json,
    state_from_json,
    state_to_json,
    tiers_to_json,
)
from born_kernel.numeric import NumericPolicy
import conftest
from conftest import order_matrix, own_weights


class TestRationals:
    def test_roundtrip_arbitrary_precision(self):
        values = [
            Fraction(0),
            Fraction(1, 3),
            Fraction(2**200 - 1, 2**200),
        ]
        for v in values:
            assert rational_from_json(rational_to_json(v)) == v

    def test_strings_preserve_precision(self):
        doc = rational_to_json(Fraction(1, 2**100))
        assert doc == {"num": "1", "den": str(2**100)}

    def test_bad_rational(self):
        with pytest.raises(FormatError):
            rational_from_json({"num": "1"})
        with pytest.raises(FormatError):
            rational_from_json({"num": "x", "den": "2"})
        with pytest.raises(FormatError):
            rational_from_json({"num": "1", "den": "0"})


class TestFamilyFormat:
    def test_roundtrip(self):
        family = generate_rich_family(4, 3)
        doc = family_to_json(family)
        back = family_from_json(doc)
        assert back == family

    def test_digest_stable_and_order_insensitive(self):
        a = WeightedMeasurement("a", ("x", "y"), (Fraction(1, 2), Fraction(1, 2)))
        b = WeightedMeasurement("b", ("x",), (Fraction(1),))
        fam1 = MeasurementFamily((a, b))
        fam2 = MeasurementFamily((b, a))
        assert family_digest(fam1) == family_digest(fam2)

    def test_schema_required(self):
        doc = family_to_json(generate_rich_family(2, 2))
        doc["schema"] = "v2"
        with pytest.raises(FormatError):
            family_from_json(doc)

    def test_invalid_weights_diagnosed(self):
        doc = {
            "schema": "v1",
            "measurements": [
                {
                    "id": "m",
                    "outcomes": ["a", "b"],
                    "weights": [
                        {"num": "1", "den": "2"},
                        {"num": "1", "den": "4"},
                    ],
                }
            ],
        }
        with pytest.raises(FormatError):
            family_from_json(doc)


class TestOrderingFormat:
    def test_roundtrip_induced(self):
        family = generate_rich_family(3, 2)
        ordering = induced_ordering(family)
        doc = ordering_to_json(ordering)
        back = ordering_from_json(doc, family)
        assert np.array_equal(back.matrix, ordering.matrix)
        assert back.refs == ordering.refs

    def test_roundtrip_count_ordering(self):
        family = MeasurementFamily(
            (
                WeightedMeasurement("a", ("x", "y"), (Fraction(1, 2), Fraction(1, 2))),
                WeightedMeasurement(
                    "b", ("x", "y", "z"),
                    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                ),
            )
        )
        ordering = outcome_count_ordering(family)
        back = ordering_from_json(ordering_to_json(ordering), family)
        assert np.array_equal(back.matrix, ordering.matrix)

    def test_digest_mismatch_rejected(self):
        fam1 = generate_rich_family(2, 2)
        fam2 = generate_rich_family(3, 2)
        doc = ordering_to_json(induced_ordering(fam1))
        with pytest.raises(FormatError):
            ordering_from_json(doc, fam2)

    def test_unknown_event_rejected(self):
        family = generate_rich_family(2, 2)
        doc = ordering_to_json(induced_ordering(family))
        doc["pairs"][0][0]["event"] = ["nope"]
        del doc["family_digest"]
        with pytest.raises(FormatError):
            ordering_from_json(doc, family)

    @pytest.mark.parametrize("schema", ["v3", "V1", "x" * 100])
    def test_unknown_schema_is_named(self, schema):
        with pytest.raises(FormatError) as info:
            ordering_from_json({"schema": schema, "pairs": []}, generate_rich_family(2, 2))
        assert str(info.value) == (
            f"ordering: schema must be 'v1' or 'v2', got {repr(schema)[:60]}")

    def test_unlisted_pairs_default_false(self):
        family = MeasurementFamily(
            (WeightedMeasurement("m", ("a",), (Fraction(1),)),)
        )
        doc = {"schema": "v1", "pairs": []}
        ordering = ordering_from_json(doc, family)
        assert not ordering.matrix.any()

    @pytest.mark.parametrize("control", [False, True])
    def test_reading_and_checking_build_no_ref_list(self, control):
        """A v1 pair list's matrix goes to the ordering as it is built: no
        list of every event's ref is made only to be compared with itself."""
        source = generate_rich_family(3, 3)
        build = outcome_count_ordering if control else induced_ordering
        doc = ordering_to_json(build(source))
        family = family_from_json(family_to_json(source))
        reports = run_all_checks(ordering_from_json(doc, family))
        assert all(r.satisfied for r in reports) != control
        assert "refs" not in vars(family)


small_families = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda sizes: MeasurementFamily(tuple(
        WeightedMeasurement(f"m{i}", tuple(f"o{j}" for j in range(n)), (Fraction(1, n),) * n)
        for i, n in enumerate(sizes)
    ))
)


@st.composite
def scored_orderings(draw):
    """A total preorder from random integer scores on a small family."""
    family = draw(small_families)
    scores = draw(st.lists(st.integers(0, 4), min_size=family.event_count(),
                           max_size=family.event_count()))
    return LikelihoodOrdering(family, family.refs, order_matrix(scores))


class TestTiersFormat:
    @given(scored_orderings())
    def test_roundtrip_matches_v1(self, ordering):
        family = ordering.family
        via_tiers = ordering_from_json(tiers_to_json(ordering), family)
        via_pairs = ordering_from_json(ordering_to_json(ordering), family)
        assert np.array_equal(via_tiers.matrix, ordering.matrix)
        assert np.array_equal(via_tiers.matrix, via_pairs.matrix)

    def test_equal_events_share_a_tier_in_position_order(self):
        family = generate_rich_family(2, 2)
        doc = tiers_to_json(induced_ordering(family))
        assert (doc["schema"], doc["family_digest"]) == ("v2", family_digest(family))
        assert [[(r["measurement"], r["event"]) for r in t] for t in doc["tiers"]] == [
            [("k1-1", []), ("k2", [])],
            [("k1-1", ["o1"]), ("k1-1", ["o2"])],
            [("k1-1", ["o1", "o2"]), ("k2", ["o1"])],
        ]

    @pytest.mark.parametrize("field, value, message", [
        ("measurement", "nope", "unknown measurement 'nope'"),
        ("event", ["zz"], "unknown outcome 'zz' in measurement 'k1-1'"),
    ], ids=["measurement", "outcome"])
    def test_unknown_event_names_its_field(self, field, value, message):
        family = generate_rich_family(2, 2)
        doc = tiers_to_json(induced_ordering(family))
        doc["tiers"][2][0][field] = value
        del doc["family_digest"]
        with pytest.raises(FormatError, match=rf"^ordering\.tiers\[2\]\[0\]: {message}$"):
            ordering_from_json(doc, family)

    @pytest.mark.parametrize("control", [False, True])
    def test_reading_and_checking_build_no_ref_list(self, control):
        """A v2 document is read, and checked, one position at a time."""
        source = generate_rich_family(3, 3)
        build = outcome_count_ordering if control else induced_ordering
        doc = tiers_to_json(build(source))
        family = family_from_json(family_to_json(source))
        ordering = ordering_from_json(doc, family)
        assert "refs" not in vars(family)
        reports = run_all_checks(ordering)
        assert all(r.satisfied for r in reports) != control
        assert "refs" not in vars(family)


class TestAssignmentFormat:
    def test_roundtrip(self):
        family = generate_rich_family(3, 3)
        pr = own_weights(family)
        doc = assignment_to_json(pr)
        back = assignment_from_json(doc, family)
        assert back == pr

    def test_missing_events_rejected(self):
        family = generate_rich_family(2, 2)
        pr = own_weights(family)
        doc = assignment_to_json(pr)
        doc["values"] = doc["values"][:-1]
        with pytest.raises(FormatError):
            assignment_from_json(doc, family)

    def test_repeated_event_rejected_naming_it(self):
        # A bogus entry for {o1}|k1-1 ahead of the true one: the later
        # entry used to overwrite it, so the document read back as the
        # family's own weights.
        family = generate_rich_family(2, 2)
        doc = assignment_to_json(own_weights(family))
        true_entry = next(v for v in doc["values"]
                          if v["measurement"] == "k1-1" and v["event"] == ["o1"])
        bogus = dict(true_entry, probability={"num": "7", "den": "1"})
        doc["values"].insert(doc["values"].index(true_entry), bogus)
        with pytest.raises(FormatError, match=r"event \{o1\}\|k1-1 is listed twice"):
            assignment_from_json(doc, family)

    def test_unknown_outcome_names_its_field(self):
        family = generate_rich_family(2, 2)
        doc = assignment_to_json(own_weights(family))
        doc["values"][3]["event"] = ["zz"]
        measurement = doc["values"][3]["measurement"]
        with pytest.raises(FormatError, match=rf"^assignment\.values\[3\]: unknown outcome "
                                              rf"'zz' in measurement '{measurement}'$"):
            assignment_from_json(doc, family)

    def test_non_additive_value_rejected_naming_event(self):
        K = 3
        family = generate_rich_family(K, 2)
        doc = assignment_to_json(own_weights(family))
        entry = next(v for v in doc["values"]
                     if v["measurement"] == "k1-2" and v["event"] == ["o1", "o2"])
        entry["probability"] = {"num": str(K + 1), "den": str(K)}  # 1 -> 1 + 1/K
        with pytest.raises(FormatError, match=r"\{o1,o2\}\|k1-2"):
            assignment_from_json(doc, family)

    def test_negative_outcome_value_rejected_naming_event(self):
        # a = -1/2, b = 3/2: every event is the sum of its outcomes, and
        # each measurement sums to 1, but a is negative.
        family = MeasurementFamily(
            (WeightedMeasurement("m", ("a", "b"), (Fraction(1, 2), Fraction(1, 2))),)
        )
        doc = assignment_to_json(own_weights(family))
        signed = {(): "0", ("a",): "-1/2", ("b",): "3/2", ("a", "b"): "1"}
        for v in doc["values"]:
            num, _, den = signed[tuple(v["event"])].partition("/")
            v["probability"] = {"num": num, "den": den or "1"}
        with pytest.raises(FormatError, match="outcome 'a' of 'm' has negative"):
            assignment_from_json(doc, family)


class TestModelAndQuadrupleFormats:
    def test_model_roundtrip(self):
        model = make_rich_measurement(
            [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
        )
        back = model_from_json(model_to_json(model))
        np.testing.assert_allclose(
            back.state.components, model.state.components
        )
        assert back.outcome_labels == model.outcome_labels
        assert back.convention == model.convention

    def test_quadruple_roundtrip(self):
        state = StateVector(np.array([1, 1j], dtype=complex) / np.sqrt(2))
        obs = spectral_decompose(np.array([[0, 1], [1, 0]], dtype=complex))
        q = MeasurementQuadruple(state, obs, frozenset({1.0}))
        back = quadruple_from_json(quadruple_to_json(q))
        assert back.event == q.event
        np.testing.assert_allclose(back.state.components, q.state.components)
        np.testing.assert_allclose(
            back.observable.dense(), q.observable.dense(), atol=1e-12
        )

    def test_quadruple_event_must_be_spectral(self):
        state = StateVector(np.array([1, 0], dtype=complex))
        obs = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
        doc = quadruple_to_json(MeasurementQuadruple(state, obs, frozenset()))
        doc["event"] = [0.5]
        with pytest.raises(FormatError):
            quadruple_from_json(doc)

    def test_denormalized_state_rejected(self):
        doc = {
            "schema": "v1",
            "dim": 2,
            "state": {"dim": 2, "components": [[1.0, 0.0], [1.0, 0.0]]},
            "observable": {
                "dim": 2,
                "spectral_pairs": [
                    {
                        "eigenvalue": 1.0,
                        "projector": [
                            [[1.0, 0.0], [0.0, 0.0]],
                            [[0.0, 0.0], [1.0, 0.0]],
                        ],
                    }
                ],
            },
            "event": [],
        }
        with pytest.raises(FormatError):
            quadruple_from_json(doc)


class TestDeterminism:
    def test_canonical_dumps_stable(self):
        family = generate_rich_family(4, 2)
        one = canonical_dumps(family_to_json(family))
        two = canonical_dumps(family_to_json(generate_rich_family(4, 2)))
        assert one == two

    def test_ordering_bytes_stable(self):
        family = generate_rich_family(3, 2)
        one = canonical_dumps(ordering_to_json(induced_ordering(family)))
        two = canonical_dumps(ordering_to_json(induced_ordering(family)))
        assert one == two


def _read_family(edit):
    doc = family_to_json(generate_rich_family(2, 2))
    edit(doc)
    family_from_json(doc)


def _read_ordering(edit):
    family = generate_rich_family(2, 2)
    doc = ordering_to_json(induced_ordering(family))
    edit(doc)
    ordering_from_json(doc, family)


def _read_assignment(edit):
    family = generate_rich_family(2, 2)
    doc = assignment_to_json(own_weights(family))
    edit(doc)
    assignment_from_json(doc, family)


def _read_model(edit):
    doc = model_to_json(make_rich_measurement([Fraction(1, 2), Fraction(1, 2)]))
    edit(doc)
    model_from_json(doc)


@pytest.mark.parametrize(
    "read, edit",
    [
        (_read_family, lambda d: d.update(measurements="ab")),
        (_read_family, lambda d: d["measurements"][0].update(outcomes="ab")),
        (_read_family, lambda d: d["measurements"][1].update(weights={"num": "1", "den": "1"})),
        (_read_ordering, lambda d: d.update(pairs={"a": "b"})),
        (_read_ordering, lambda d: d["pairs"][-1][0].update(event="o1")),
        (_read_assignment, lambda d: d.update(values={"a": "b"})),
        (_read_assignment, lambda d: d["values"][1].update(event="o1")),
        (_read_model, lambda d: d.update(outcome_labels="o1")),
    ],
    ids=["measurements", "outcomes", "weights", "pairs", "pair-event", "values",
         "value-event", "outcome-labels"],
)
def test_string_or_object_where_a_list_is_expected(read, edit):
    with pytest.raises(FormatError, match="must be a list"):
        read(edit)


def _observable_doc(pairs):
    return {
        "dim": len(pairs[0][1]),
        "spectral_pairs": [
            {"eigenvalue": v, "projector": matrix_to_json(np.asarray(p, dtype=complex))}
            for v, p in pairs
        ],
    }


E0, E1, E2 = (np.diag(np.eye(3)[i]) for i in range(3))
OBLIQUE = np.array([[1.0, 0.5, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


@pytest.mark.parametrize(
    "pairs",
    [
        # Idempotent, mutually annihilating and complete, but not Hermitian.
        [(0.0, OBLIQUE), (1.0, np.eye(3) - OBLIQUE)],
        [(0.0, 0.9 * E0), (1.0, E1), (2.0, E2)],
        [(0.0, E0 + E1), (1.0, E1 + E2)],
        [(0.0, E0), (1.0, E1)],
        [(0.0, E0), (5e-10, E1), (2.0, E2)],
    ],
    ids=["non-hermitian", "scaled", "overlapping", "incomplete", "close-eigenvalues"],
)
def test_invalid_projector_sets_are_rejected(pairs):
    with pytest.raises(FormatError):
        observable_from_json(_observable_doc(pairs))


def test_ragged_projector_is_refused_with_its_field_path():
    """A row shorter than the others is named by its field path and the
    row lengths, not by NumPy's text about inhomogeneous shapes."""
    doc = _observable_doc([(0.0, E0), (1.0, E1 + E2)])
    doc["spectral_pairs"][0]["projector"][0].pop()
    with pytest.raises(FormatError) as exc:
        observable_from_json(doc)
    assert str(exc.value) == (
        "observable.spectral_pairs[0].projector: rows have 2 and 3 entries; "
        "a matrix is rectangular")


def test_zero_projector_is_accepted():
    obs = observable_from_json(
        _observable_doc([(0.0, E0), (1.0, E1 + E2), (2.0, np.zeros((3, 3)))])
    )
    assert obs.eigenvalues == (0.0, 1.0, 2.0)
    np.testing.assert_allclose(obs.projector(2.0), np.zeros((3, 3)))
    state = StateVector(np.array([0.6, 0.0, 0.8], dtype=complex))
    assert MeasurementQuadruple(state, obs, frozenset({2.0})).event_weight() == 0.0
    np.testing.assert_allclose(obs.dense(), np.diag([0.0, 1.0, 1.0]))


# -- the one-pass complex readers against the per-entry oracles ---------

class FloatSubclass(float):
    """A float that is not of type float: JSON never makes one, `_is` takes it."""


_BIG = sys.float_info.max
edge_ints = st.sampled_from([2**53, 2**63, 2**64]).flatmap(
    lambda b: st.integers(b - 2, b + 2)
) | st.sampled_from([10**400, int(_BIG), int(_BIG) + 1, 2**1024 - 2**970])
numbers = st.floats() | st.integers(-3, 3) | edge_ints | edge_ints.map(lambda n: -n)
bad_leaves = (
    st.booleans() | st.none() | st.text(max_size=2) | st.lists(numbers, max_size=2)
    | st.floats().map(FloatSubclass) | st.sampled_from([float("nan"), float("inf"), -float("inf")])
)
good_pairs = st.lists(numbers, min_size=2, max_size=2)
bad_pairs = (
    st.lists(numbers, min_size=1, max_size=3) | st.tuples(numbers, numbers) | bad_leaves
)


@st.composite
def complex_rows(draw):
    """A rows x cols list of [re, im] pairs with up to three edits: a bad
    leaf, a bad pair, a row made longer, shorter or empty."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(0, 4))
    doc = [[draw(good_pairs) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 3))):
        row = doc[draw(st.integers(0, rows - 1))]
        edit = draw(st.sampled_from(["leaf", "pair", "append", "pop", "clear"]))
        if edit in ("leaf", "pair") and row:
            j = draw(st.integers(0, len(row) - 1))
            if edit == "pair" or not isinstance(row[j], list) or not row[j]:
                row[j] = draw(bad_pairs)
            else:
                row[j][draw(st.integers(0, len(row[j]) - 1))] = draw(bad_leaves)
        elif edit == "append":
            row.append(draw(good_pairs | bad_pairs))
        elif edit == "pop" and row:
            row.pop()
        elif edit == "clear":
            row.clear()
    return doc


def read_outcome(read, *args):
    """What a reader makes of a document: its array's dtype, shape and
    bytes, or its FormatError message."""
    try:
        value = read(*args)
    except FormatError as exc:
        return str(exc)
    array = value.components if isinstance(value, StateVector) else value
    return array.dtype.str, array.shape, array.tobytes()


ANY_NORM = NumericPolicy(norm_tol=_BIG)


class TestComplexReader:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(complex_rows())
    def test_matrix_reads_as_the_per_entry_reader(self, doc):
        assert read_outcome(matrix_from_json, doc) == read_outcome(conftest.matrix_from_json, doc)

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(complex_rows())
    def test_state_reads_as_the_per_entry_reader(self, rows):
        doc = {"components": [z for row in rows for z in row]}
        assert read_outcome(state_from_json, doc, ANY_NORM) == read_outcome(
            conftest.state_from_json, doc, ANY_NORM)

    @pytest.mark.parametrize("d", [1, 2, 3, 64])
    def test_writers_match_the_per_entry_writer(self, d):
        rng = np.random.default_rng(d)
        m = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        m[0, 0] = complex(-0.0, -0.0)
        per_entry = [[[float(z.real), float(z.imag)] for z in row] for row in m]
        assert json.dumps(matrix_to_json(m)) == json.dumps(per_entry)
        v = rng.normal(size=d + 1) + 1j * rng.normal(size=d + 1)
        v /= np.linalg.norm(v)
        v[0] = complex(-0.0, abs(v[0]))
        state = StateVector(v)
        assert json.dumps(state_to_json(state)["components"]) == json.dumps(
            [[float(z.real), float(z.imag)] for z in state.components])
