"""Neutrality transforms, canonical forms, and the ordering bridge."""
from fractions import Fraction

import numpy as np
import pytest

from born_kernel import (
    CanonicalForm,
    IntertwiningFails,
    MeasurementFamily,
    MeasurementQuadruple,
    NotUnitary,
    NumericPolicy,
    StateVector,
    WeightedMeasurement,
    canonical_form,
    canonical_quadruple,
    induced_ordering,
    relabel,
    same_equivalence_class,
    spectral_decompose,
    unitary_transform,
)
from born_kernel.quantum import spectral_weight

LOOSE_EIGENVALUES = NumericPolicy(eigenvalue_tol=1e-6)


def haar_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_quadruple(rng, dim, distinct_eigs=True):
    if distinct_eigs:
        eigs = np.sort(rng.normal(size=dim) * 10)
        while np.min(np.diff(eigs)) < 1e-3:
            eigs = np.sort(rng.normal(size=dim) * 10)
        u = haar_unitary(rng, dim)
        matrix = u @ np.diag(eigs).astype(complex) @ u.conj().T
    else:
        matrix = rng.normal(size=(dim, dim))
        matrix = ((matrix + matrix.T) / 2).astype(complex)
    obs = spectral_decompose(matrix, LOOSE_EIGENVALUES)
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state = StateVector(v / np.linalg.norm(v))
    n_event = int(rng.integers(0, len(obs.eigenvalues) + 1))
    event = frozenset(
        rng.choice(obs.eigenvalues, size=n_event, replace=False).tolist()
    )
    return MeasurementQuadruple(state, obs, event)


def direct_weight(q):
    """Oracle: event weight by raw projector algebra."""
    psi = q.state.components
    total = 0.0
    for x in q.event:
        p = q.observable.projector(x)
        total += float(np.real(psi.conj() @ p @ psi))
    return total


class TestUnitaryTransform:
    def test_identity_unchanged(self):
        rng = np.random.default_rng(1)
        q = random_quadruple(rng, 3)
        q2 = unitary_transform(q, np.eye(3, dtype=complex), q.observable)
        np.testing.assert_allclose(q2.state.components, q.state.components)
        assert q2.event == q.event

    def test_two_dim_swap_preserves_weights(self):
        a, b = 0.6, 0.8
        state = StateVector(np.array([a, b], dtype=complex))
        x = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
        x_swapped = spectral_decompose(np.diag([1.0, 0.0]).astype(complex))
        swap = np.array([[0, 1], [1, 0]], dtype=complex)
        for event in [frozenset(), frozenset({0.0}), frozenset({1.0}), frozenset({0.0, 1.0})]:
            q = MeasurementQuadruple(state, x, event)
            before = direct_weight(q)
            q2 = unitary_transform(q, swap, x_swapped)
            np.testing.assert_allclose(
                q2.state.components, np.array([b, a], dtype=complex)
            )
            assert direct_weight(q2) == pytest.approx(before, abs=1e-10)

    def test_precession_vs_rotated_observable(self):
        # Rotating the state before a fixed z-measurement describes the
        # same process as measuring the back-rotated observable: the
        # rotation is bookkept either as preparation or as measurement.
        theta = 0.7
        rot = np.array(
            [
                [np.cos(theta / 2), -np.sin(theta / 2)],
                [np.sin(theta / 2), np.cos(theta / 2)],
            ],
            dtype=complex,
        )
        sigma_z = np.diag([1.0, -1.0]).astype(complex)
        psi = StateVector(np.array([1, 0], dtype=complex))
        rotated_obs = spectral_decompose(rot.conj().T @ sigma_z @ rot)
        q_rotated_measurement = MeasurementQuadruple(psi, rotated_obs, frozenset({1.0}))
        q_rotated_state = unitary_transform(
            q_rotated_measurement, rot, spectral_decompose(sigma_z)
        )
        np.testing.assert_allclose(
            q_rotated_state.state.components, rot @ psi.components
        )
        assert direct_weight(q_rotated_state) == pytest.approx(
            direct_weight(q_rotated_measurement), abs=1e-10
        )
        assert same_equivalence_class(q_rotated_measurement, q_rotated_state)

    def test_isometry_into_larger_space(self):
        rng = np.random.default_rng(5)
        q = random_quadruple(rng, 2)
        big = haar_unitary(rng, 4)
        iso = big[:, :2]
        dense = iso @ q.observable.dense() @ iso.conj().T
        # Fill the orthocomplement with fresh eigenvalues.
        comp = big[:, 2:]
        dense = dense + comp @ np.diag([97.0, 98.0]).astype(complex) @ comp.conj().T
        obs_big = spectral_decompose(dense, LOOSE_EIGENVALUES)
        q2 = unitary_transform(q, iso, obs_big)
        assert q2.dim == 4
        assert direct_weight(q2) == pytest.approx(direct_weight(q), abs=1e-10)

    def test_not_unitary_rejected(self):
        rng = np.random.default_rng(2)
        q = random_quadruple(rng, 2)
        with pytest.raises(NotUnitary):
            unitary_transform(q, np.eye(2) * 1.5, q.observable)

    def test_intertwining_failure_rejected(self):
        state = StateVector(np.array([1, 0], dtype=complex))
        x = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
        x_other = spectral_decompose(np.diag([0.0, 2.0]).astype(complex))
        q = MeasurementQuadruple(state, x, frozenset({0.0}))
        with pytest.raises(IntertwiningFails):
            unitary_transform(q, np.eye(2, dtype=complex), x_other)


class TestRelabel:
    def test_identity(self):
        rng = np.random.default_rng(3)
        q = random_quadruple(rng, 3)
        q2 = relabel(q, {x: x for x in q.observable.eigenvalues})
        assert q2.event == q.event
        assert direct_weight(q2) == pytest.approx(direct_weight(q), abs=1e-12)

    def test_indicator_relabeling(self):
        rng = np.random.default_rng(4)
        q = random_quadruple(rng, 4)
        f = {x: (0.0 if x in q.event else 1.0) for x in q.observable.eigenvalues}
        q2 = relabel(q, f)
        assert set(q2.observable.eigenvalues) <= {0.0, 1.0}
        if q.event:
            assert q2.event == frozenset({0.0})
            assert direct_weight(q2) == pytest.approx(direct_weight(q), abs=1e-10)
        else:
            assert q2.event == frozenset()

    def test_merging_non_event_eigenvalues_keeps_event_weight(self):
        state = StateVector(np.array([0.5, 0.5, np.sqrt(0.5)], dtype=complex))
        obs = spectral_decompose(np.diag([1.0, 2.0, 3.0]).astype(complex))
        q = MeasurementQuadruple(state, obs, frozenset({1.0}))
        merged = relabel(q, {1.0: 1.0, 2.0: 9.0, 3.0: 9.0})
        # Oracle: summed projector of the merged eigenvalues.
        p_merged = obs.projector(2.0) + obs.projector(3.0)
        np.testing.assert_allclose(
            merged.observable.projector(9.0), p_merged, atol=1e-12
        )
        assert direct_weight(merged) == pytest.approx(
            direct_weight(q), abs=1e-12
        )

    def test_callable_accepted(self):
        rng = np.random.default_rng(6)
        q = random_quadruple(rng, 3)
        q2 = relabel(q, lambda x: 2 * x + 1)
        assert direct_weight(q2) == pytest.approx(direct_weight(q), abs=1e-10)

    def test_merging_event_into_nonevent_grows_weight(self):
        state = StateVector(np.array([0.6, 0.8], dtype=complex))
        obs = spectral_decompose(np.diag([0.0, 1.0]).astype(complex))
        q = MeasurementQuadruple(state, obs, frozenset({0.0}))
        squashed = relabel(q, {0.0: 5.0, 1.0: 5.0})
        assert direct_weight(squashed) == pytest.approx(1.0, abs=1e-12)
        assert direct_weight(squashed) >= direct_weight(q)


class TestCanonicalForm:
    def test_half_weight(self):
        state = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
        obs = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
        q = MeasurementQuadruple(state, obs, frozenset({1.0}))
        form = canonical_form(q)
        assert form.weight_value == pytest.approx(0.5, abs=1e-12)
        assert form.c == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert form.d == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_empty_event(self):
        state = StateVector(np.array([1, 0], dtype=complex))
        obs = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
        form = canonical_form(MeasurementQuadruple(state, obs, frozenset()))
        assert (form.weight_value, form.c, form.d) == (0.0, 0.0, 1.0)

    def test_full_event(self):
        state = StateVector(np.array([0.6, 0.8], dtype=complex))
        obs = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
        form = canonical_form(
            MeasurementQuadruple(state, obs, frozenset({1.0, -1.0}))
        )
        assert form.weight_value == pytest.approx(1.0, abs=1e-12)
        assert form.c == pytest.approx(1.0, abs=1e-12)
        assert form.d == pytest.approx(0.0, abs=1e-12)

    def test_whole_spectrum_event_has_d_exactly_zero(self):
        # d^2 is the complement's weight; 1 - c^2 left up to 1.5e-8 here.
        rng = np.random.default_rng(17)
        for _ in range(200):
            q = random_quadruple(rng, int(rng.integers(2, 7)), bool(rng.integers(2)))
            every = frozenset(q.observable.eigenvalues)
            form = canonical_form(MeasurementQuadruple(q.state, q.observable, every))
            assert (form.weight_value, form.c, form.d) == (1.0, 1.0, 0.0)

    def test_loose_norm_tolerance_still_normalizes(self):
        policy = NumericPolicy(norm_tol=1e-6)
        state = StateVector(np.array([0.6, 0.8 + 4e-7], dtype=complex), policy=policy)
        obs = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
        form = canonical_form(MeasurementQuadruple(state, obs, frozenset({1.0})))
        assert form.c ** 2 + form.d ** 2 == pytest.approx(1.0, abs=1e-15)

    def test_canonical_quadruple_roundtrip(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            q = random_quadruple(rng, int(rng.integers(2, 5)))
            canon = canonical_quadruple(q)
            assert canon.dim == 2
            assert canon.event == frozenset({0.0})
            assert direct_weight(canon) == pytest.approx(
                direct_weight(q), abs=1e-10
            )
            # Canonicalizing a canonical quadruple is a fixed point.
            again = canonical_form(canon)
            first = canonical_form(q)
            assert again.weight_value == pytest.approx(
                first.weight_value, abs=1e-10
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            CanonicalForm(0.5, 0.9, 0.1)  # c^2 != weight

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_matches_the_relabel_route(self, dim):
        """The paper's route: relabel the results to 0 on the event and 1
        off it, then weigh the two merged eigenspaces.  Eigenvalues are
        drawn from three levels, so eigenspaces are often degenerate."""
        rng = np.random.default_rng(dim)
        for _ in range(30):
            eigs = rng.choice([-1.0, 0.5, 2.0], size=dim)
            u = haar_unitary(rng, dim)
            obs = spectral_decompose(u @ np.diag(eigs) @ u.conj().T, LOOSE_EIGENVALUES)
            v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            size = int(rng.integers(0, len(obs.eigenvalues) + 1))
            event = rng.choice(obs.eigenvalues, size=size, replace=False).tolist()
            q = MeasurementQuadruple(StateVector(v / np.linalg.norm(v)), obs, frozenset(event))
            r = relabel(q, {x: 0.0 if x in q.event else 1.0 for x in obs.eigenvalues})
            rest = set(r.observable.eigenvalues) - r.event
            on, off = (spectral_weight(r.state, r.observable, e) for e in (r.event, rest))
            form = canonical_form(q)
            assert abs(form.c ** 2 - on / (on + off)) <= 1e-12
            assert abs(form.d ** 2 - off / (on + off)) <= 1e-12


class TestSameEquivalenceClass:
    def test_transform_stays_in_class(self):
        rng = np.random.default_rng(9)
        q = random_quadruple(rng, 3)
        u = haar_unitary(rng, 3)
        q2 = unitary_transform(
            q, u,
            spectral_decompose(u @ q.observable.dense() @ u.conj().T, LOOSE_EIGENVALUES),
        )
        assert same_equivalence_class(q, q2)

    def test_injective_relabel_stays_in_class(self):
        rng = np.random.default_rng(10)
        q = random_quadruple(rng, 3)
        assert same_equivalence_class(q, relabel(q, lambda x: x + 100.0))

    def test_different_weights_different_class(self):
        half = MeasurementQuadruple(
            StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2)),
            spectral_decompose(np.diag([1.0, -1.0]).astype(complex)),
            frozenset({1.0}),
        )
        quarter = MeasurementQuadruple(
            StateVector(np.array([0.5, 0.5, np.sqrt(0.5)], dtype=complex)),
            spectral_decompose(np.diag([1.0, 2.0, 3.0]).astype(complex)),
            frozenset({1.0}),
        )
        assert direct_weight(quarter) == pytest.approx(0.25, abs=1e-12)
        assert not same_equivalence_class(half, quarter)

    def test_equivalence_relation_on_finite_set(self):
        rng = np.random.default_rng(11)
        quads = [random_quadruple(rng, int(rng.integers(2, 5))) for _ in range(12)]
        # Rounding weights to 1e-8 makes the tolerance relation exact.
        cls = [round(direct_weight(q), 8) for q in quads]
        for i, qi in enumerate(quads):
            assert same_equivalence_class(qi, qi)
            for j, qj in enumerate(quads):
                assert same_equivalence_class(qi, qj) == same_equivalence_class(
                    qj, qi
                )
                assert same_equivalence_class(qi, qj) == (cls[i] == cls[j])


class TestOrderingBridge:
    def test_same_class_quadruples_judged_equally_likely(self):
        """Weight-equal bets on different measurements come out equal."""
        q1 = MeasurementQuadruple(
            StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2)),
            spectral_decompose(np.diag([1.0, -1.0]).astype(complex)),
            frozenset({1.0}),
        )
        q2 = MeasurementQuadruple(
            StateVector(np.array([np.sqrt(0.5), 0.5, 0.5], dtype=complex)),
            spectral_decompose(np.diag([1.0, 2.0, 3.0]).astype(complex)),
            frozenset({1.0}),
        )
        assert same_equivalence_class(q1, q2)

        def to_measurement(q, mid):
            w_event = Fraction(round(direct_weight(q) * 2**20), 2**20)
            w_event = w_event.limit_denominator(2**10)
            return WeightedMeasurement(
                mid, ("in", "out"), (w_event, 1 - w_event)
            )

        family = MeasurementFamily(
            (to_measurement(q1, "bet1"), to_measurement(q2, "bet2"))
        )
        ordering = induced_ordering(family)
        i, j = family.position("bet1", ("in",)), family.position("bet2", ("in",))
        assert ordering.matrix[i, j] and ordering.matrix[j, i]


Z_SPIN = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
SPIN_UP = MeasurementQuadruple(
    StateVector(np.array([1.0, 0.0], dtype=complex)), Z_SPIN, frozenset({1.0})
)


@pytest.mark.parametrize(
    "build, fragment",
    [
        (lambda: MeasurementQuadruple(StateVector(np.eye(3)[0]), Z_SPIN, frozenset()),
         "dimensions differ"),
        (lambda: CanonicalForm(1.5, 1.0, 0.0), "weight must lie in [0, 1]"),
        (lambda: CanonicalForm(0.25, -0.5, np.sqrt(0.75)), "amplitudes are nonnegative"),
        (lambda: CanonicalForm(0.25, 0.6, 0.8), "c^2 must equal the weight"),
        (lambda: unitary_transform(SPIN_UP, np.eye(3), Z_SPIN),
         "transform expects dimension 3, quadruple has 2"),
        (lambda: unitary_transform(SPIN_UP, np.eye(3)[:, :2], Z_SPIN),
         "output dimension does not match"),
    ],
    ids=["quadruple-dimensions", "weight-past-1", "negative-c", "c-squared",
         "transform-input", "transform-output"],
)
def test_refusals_name_their_input(build, fragment):
    with pytest.raises(ValueError) as info:
        build()
    assert fragment in str(info.value)
