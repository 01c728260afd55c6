"""Quantum layer: spectral decomposition, weights, rich measurements."""
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from born_kernel import (
    DegenerateClustering,
    MeasurementModel,
    MeasurementQuadruple,
    NoRationalWithinTolerance,
    NonHermitianInput,
    NonpositiveWeight,
    NumericPolicy,
    Observable,
    StateVector,
    UnknownOutcomeLabel,
    WeightsDontSumToOne,
    make_rich_measurement,
    rational_weight,
    relabel,
    spectral_decompose,
    weight,
)
from born_kernel.formats import observable_from_json, observable_to_json


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def random_state(rng, dim):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return StateVector(v / np.linalg.norm(v))


class TestSpectralDecompose:
    def test_identity_single_pair(self):
        obs = spectral_decompose(np.eye(2, dtype=complex))
        assert len(obs.spectral_pairs) == 1
        value, proj = obs.spectral_pairs[0]
        assert value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(proj, np.eye(2), atol=1e-12)

    def test_diagonal_already_split(self):
        obs = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
        assert obs.eigenvalues == (0.0, 1.0)
        np.testing.assert_allclose(
            obs.projector(0.0), [[1, 0], [0, 0]], atol=1e-12
        )
        np.testing.assert_allclose(
            obs.projector(1.0), [[0, 0], [0, 1]], atol=1e-12
        )

    def test_pauli_x_oracle(self):
        """Eigenvalues {-1, +1}; projectors verified by direct algebra."""
        obs = spectral_decompose(np.array([[0, 1], [1, 0]], dtype=complex))
        assert obs.eigenvalues == (-1.0, 1.0)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(obs.projector(1.0), np.outer(plus, plus.conj()), atol=1e-10)
        np.testing.assert_allclose(obs.projector(-1.0), np.outer(minus, minus.conj()), atol=1e-10)
        for _, p in obs.spectral_pairs:
            np.testing.assert_allclose(p @ p, p, atol=1e-10)
        np.testing.assert_allclose(
            sum(p for _, p in obs.spectral_pairs), np.eye(2), atol=1e-10
        )
        np.testing.assert_allclose(
            obs.dense(), [[0, 1], [1, 0]], atol=1e-10
        )

    def test_non_hermitian_rejected(self):
        with pytest.raises(NonHermitianInput):
            spectral_decompose(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_degenerate_clustering(self):
        # Chained eigenvalues 0, 0.6*tol, 1.2*tol merge into one cluster
        # whose spread exceeds tol: neither equal nor distinct.
        tol = 1e-9
        m = np.diag([0.0, 0.6 * tol, 1.2 * tol]).astype(complex)
        with pytest.raises(DegenerateClustering):
            spectral_decompose(m, NumericPolicy(eigenvalue_tol=tol))

    def test_reconstruction_random(self):
        rng = np.random.default_rng(7)
        tol = 1e-9
        for _ in range(25):
            dim = int(rng.integers(2, 7))
            m = random_hermitian(rng, dim)
            obs = spectral_decompose(m, NumericPolicy(eigenvalue_tol=tol))
            np.testing.assert_allclose(obs.dense(), m, atol=10 * tol)

    def test_degenerate_spectrum_merges(self):
        m = np.diag([2.0, 2.0, 5.0]).astype(complex)
        obs = spectral_decompose(m)
        assert len(obs.spectral_pairs) == 2
        assert np.trace(obs.projector(2.0)).real == pytest.approx(2.0, abs=1e-10)


def z_spin_model(amplitudes):
    state = StateVector(np.asarray(amplitudes, dtype=complex))
    sigma_z = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
    return MeasurementModel(
        "z-spin", state, sigma_z, ("up", "down"), {"up": 1.0, "down": -1.0}
    )


class TestWeight:
    def test_equal_superposition_half(self):
        model = z_spin_model(np.array([1, 1]) / np.sqrt(2))
        assert weight(model, {"up"}) == pytest.approx(0.5, abs=1e-12)

    def test_empty_event_exactly_zero(self):
        model = z_spin_model(np.array([1, 1]) / np.sqrt(2))
        assert weight(model, set()) == 0.0

    def test_full_event_is_one(self):
        model = z_spin_model(np.array([0.3, np.sqrt(1 - 0.09)]))
        assert weight(model, {"up", "down"}) == pytest.approx(1.0, abs=1e-10)

    def test_unknown_label(self):
        model = z_spin_model(np.array([1, 0]))
        with pytest.raises(UnknownOutcomeLabel):
            weight(model, {"sideways"})

    def test_shared_eigenvalue_counted_once(self):
        # Two labels on one eigenvalue: the event's image contains that
        # eigenspace once, so adding the second label changes nothing.
        state = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
        sigma_z = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
        model = MeasurementModel(
            "aliased",
            state,
            sigma_z,
            ("a", "b", "c"),
            {"a": 1.0, "b": 1.0, "c": -1.0},
        )
        assert weight(model, {"a", "b"}) == pytest.approx(
            weight(model, {"a"}), abs=1e-15
        )

    def test_additivity_and_monotonicity(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            obs = spectral_decompose(random_hermitian(rng, dim))
            labels = tuple(f"s{i}" for i in range(dim))
            convention = {labels[i]: obs.eigenvalues[i] for i in range(dim)}
            model = MeasurementModel(
                "rand", random_state(rng, dim), obs, labels, convention
            )
            split = int(rng.integers(1, dim))
            e, f = set(labels[:split]), set(labels[split:])
            assert weight(model, e | f) == pytest.approx(
                weight(model, e) + weight(model, f), abs=1e-10
            )
            assert weight(model, e) <= weight(model, e | f) + 1e-10


class TestMakeRichMeasurement:
    def test_two_outcome_half(self):
        model = make_rich_measurement([Fraction(1, 2), Fraction(1, 2)])
        assert weight(model, {"o1"}) == pytest.approx(0.5, abs=1e-12)
        assert weight(model, {"o2"}) == pytest.approx(0.5, abs=1e-12)

    def test_single_certain_outcome(self):
        model = make_rich_measurement([Fraction(1)])
        assert weight(model, {"o1"}) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_quarter_half_hand_oracle(self):
        """Compare weight() against a by-hand <psi|P|psi> computation."""
        model = make_rich_measurement(
            [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
        )
        psi = model.state.components
        for i, expected in enumerate([0.25, 0.25, 0.5]):
            p = np.zeros((3, 3), dtype=complex)
            p[i, i] = 1.0
            by_hand = float(np.real(psi.conj() @ p @ psi))
            assert by_hand == pytest.approx(expected, abs=1e-12)
            assert weight(model, {f"o{i + 1}"}) == pytest.approx(
                by_hand, abs=1e-15
            )

    def test_rejects_bad_weights(self):
        with pytest.raises(WeightsDontSumToOne):
            make_rich_measurement([Fraction(1, 2), Fraction(1, 4)])
        with pytest.raises(NonpositiveWeight):
            make_rich_measurement([Fraction(0), Fraction(1)])
        with pytest.raises(NonpositiveWeight):
            make_rich_measurement([Fraction(3, 2), Fraction(-1, 2)])

    def test_roundtrip_large_denominators(self):
        rng = np.random.default_rng(13)
        for _ in range(15):
            n = int(rng.integers(1, 7))
            den = int(rng.integers(n, 2**20))
            parts = rng.multinomial(den, [1.0 / n] * n)
            while any(p == 0 for p in parts):
                parts = rng.multinomial(den, [1.0 / n] * n)
            weights = [Fraction(int(p), den) for p in parts]
            model = make_rich_measurement(weights)
            for i, w in enumerate(weights):
                assert weight(model, {f"o{i + 1}"}) == pytest.approx(
                    float(w), abs=1e-12
                )


class TestRationalWeight:
    def test_exact_half(self):
        model = make_rich_measurement([Fraction(1, 2), Fraction(1, 2)])
        assert rational_weight(model, {"o1"}, 64) == Fraction(1, 2)

    def test_noisy_quarter(self):
        model = make_rich_measurement(
            [Fraction(1, 4), Fraction(1, 4), Fraction(1, 2)]
        )
        # weight() floats carry ~1e-16 noise; snapping still lands on 1/4
        assert rational_weight(model, {"o1"}, 64) == Fraction(1, 4)

    def test_irrational_weight_rejected_with_enumeration_oracle(self):
        state = StateVector(np.array([2**-0.25, np.sqrt(1 - 2**-0.5)], dtype=complex))
        sigma_z = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
        model = MeasurementModel(
            "irr", state, sigma_z, ("up", "down"), {"up": 1.0, "down": -1.0}
        )
        target = weight(model, {"up"})
        assert target == pytest.approx(2**-0.5, abs=1e-12)
        # Independent oracle: every rational with denominator <= 4 misses.
        best_gap = min(
            abs(p / q - target) for q in range(1, 5) for p in range(0, q + 1)
        )
        assert best_gap > 1e-9
        with pytest.raises(NoRationalWithinTolerance):
            rational_weight(model, {"up"}, 4)

    def test_max_den_validation(self):
        model = make_rich_measurement([Fraction(1)])
        with pytest.raises(ValueError):
            rational_weight(model, {"o1"}, 0)


class TestValidation:
    def test_state_norm_enforced(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]))

    def test_state_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            StateVector(np.array([np.nan, 0.0]))

    @pytest.mark.parametrize(
        "values, basis",
        [
            ((float("nan"), 1.0), np.eye(2)),
            ((1.0, float("inf")), np.eye(2)),
            ((1.0, 2.0), [[float("nan"), 0.0], [0.0, 1.0]]),
            ((1.0, 2.0), [[1.0, 0.0], [0.0, float("inf")]]),
        ],
        ids=["nan-eigenvalue", "inf-eigenvalue", "nan-basis", "inf-basis"],
    )
    def test_observable_rejects_nonfinite(self, values, basis):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                Observable(values, basis, (0, 1))

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_spectral_decompose_rejects_nonfinite(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                spectral_decompose([[bad, 0.0], [0.0, 1.0]])

    def test_spectral_decompose_huge_finite_entries(self):
        # (m + m^dag) / 2 overflowed here: the Hermitian matrix was
        # refused as a cluster around nan, after two RuntimeWarnings.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            obs = spectral_decompose([[1e308, 0.0], [0.0, 1e308]])
            assert obs.eigenvalues == (1e308,)
            obs = spectral_decompose([[1e308, 0.0], [0.0, -1e308]])
            assert obs.eigenvalues == (-1e308, 1e308)
            with pytest.raises(NonHermitianInput):
                spectral_decompose([[0.0, 1e308], [-1e308, 0.0]])

    def test_observable_requires_completeness(self):
        p0 = np.array([[1, 0], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            Observable.from_pairs(((0.0, p0),))

    def test_convention_must_be_surjective(self):
        state = StateVector(np.array([1, 0], dtype=complex))
        sigma_z = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(ValueError):
            MeasurementModel(
                "bad", state, sigma_z, ("up", "down"), {"up": 1.0, "down": 1.0}
            )

    def test_convention_must_be_total(self):
        state = StateVector(np.array([1, 0], dtype=complex))
        sigma_z = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
        with pytest.raises(ValueError):
            MeasurementModel("bad", state, sigma_z, ("up", "down"), {"up": 1.0})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -1e-9])
@pytest.mark.parametrize("field", ["norm_tol", "projector_tol", "eigenvalue_tol", "rational_tol"])
def test_policy_tolerances_must_be_finite_and_positive(field, bad):
    with pytest.raises(ValueError, match=field):
        NumericPolicy(**{field: bad})


def planted_case(seed):
    """A Hermitian matrix with a known eigenbasis and planted eigenvalue
    clusters (d <= 8), a state, and the planted levels."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9))
    k = int(rng.integers(1, d + 1))
    cluster = rng.permutation(np.r_[np.arange(k), rng.integers(0, k, size=d - k)])
    levels = np.sort(rng.choice(np.arange(-20, 21), size=k, replace=False)) + rng.uniform(0, 0.5)
    q, r = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    basis = q * (np.diag(r) / np.abs(np.diag(r)))
    matrix = (basis * levels[cluster]) @ basis.conj().T
    return (matrix + matrix.conj().T) / 2, random_state(rng, d), levels, rng


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_planted_clusters_round_trip_and_weigh(seed):
    matrix, state, levels, rng = planted_case(seed)
    obs = spectral_decompose(matrix)
    np.testing.assert_allclose(obs.eigenvalues, levels, rtol=0, atol=1e-9)
    np.testing.assert_allclose(obs.dense(), matrix, rtol=0, atol=1e-9)

    for back in (
        Observable.from_pairs(obs.spectral_pairs),
        observable_from_json(observable_to_json(obs)),
    ):
        assert back.eigenvalues == obs.eigenvalues
        np.testing.assert_allclose(back.dense(), matrix, rtol=0, atol=1e-9)

    labels = tuple(f"x{i}" for i in range(len(levels)))
    model = MeasurementModel("planted", state, obs, labels, dict(zip(labels, obs.eigenvalues)))
    psi = state.components
    single = {x: float(np.real(psi.conj() @ obs.projector(x) @ psi)) for x in obs.eigenvalues}
    for _ in range(4):
        event = [labels[i] for i in np.flatnonzero(rng.integers(0, 2, size=len(labels)))]
        expected = sum(single[model.convention[s]] for s in event)
        assert weight(model, event) == pytest.approx(expected, abs=1e-10)

    if len(levels) >= 2:
        a, b = rng.choice(obs.eigenvalues, size=2, replace=False)
        merged = relabel(
            MeasurementQuadruple(state, obs, frozenset({a})),
            {x: (100.0 if x in (a, b) else x) for x in obs.eigenvalues},
        )
        assert merged.event == frozenset({100.0})
        assert merged.event_weight() == pytest.approx(single[a] + single[b], abs=1e-10)


Z_SPIN = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
UP = StateVector(np.array([1.0, 0.0], dtype=complex))


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: Observable((), np.eye(1), [0]), "at least one eigenvalue"),
        (lambda: Observable((0.0,), np.ones((1, 2)), [0]), "eigenbasis must be a square"),
        (lambda: Observable((0.0,), np.eye(2), [0, 1]), "must name one eigenvalue"),
        (lambda: Observable((0.0, 1.0), np.array([[1.0, 1.0], [0.0, 1.0]]), [0, 1]),
         "eigenbasis is not orthonormal: max |V^dag V - I| = 1.000e+00"),
        (lambda: Observable.from_pairs([]), "at least one spectral pair"),
        (lambda: Observable.from_pairs([(0.0, np.ones((1, 2)))]), "projector must be a square"),
        (lambda: Observable.from_pairs([(0.0, np.eye(2)), (1.0, np.eye(3))]),
         "share one dimension"),
        (lambda: MeasurementModel("m", StateVector(np.eye(3)[0]), Z_SPIN, ("a", "b"),
                                  {"a": 1.0, "b": -1.0}), "dimensions differ"),
        (lambda: MeasurementModel("m", UP, Z_SPIN, ("a", "a"), {"a": 1.0}),
         "outcome labels must be unique"),
        (lambda: MeasurementModel("m", UP, Z_SPIN, ("a", "b"),
                                  {"a": 1.0, "b": -1.0, "c": 1.0}), "unknown labels ['c']"),
        (lambda: spectral_decompose(np.ones((2, 3))), "input must be a square"),
        (lambda: make_rich_measurement([]), "weights must be nonempty"),
    ],
    ids=["no-eigenvalue", "oblong-basis", "bad-cluster", "oblique-basis", "no-pair",
         "oblong-projector", "mixed-dimensions", "model-dimensions", "repeated-label",
         "unknown-label", "oblong-matrix", "no-weight"],
)
def test_refusals_name_their_input(build, fragment):
    with pytest.raises(ValueError) as info:
        build()
    assert fragment in str(info.value)
