"""Acceptance gate: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict
lines.  Decision-kernel criteria are exact rational arithmetic with zero
tolerance; floating-point criteria state their tolerances inline.
"""
import itertools
import json
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from born_kernel import (
    MeasurementFamily,
    MeasurementModel,
    MeasurementQuadruple,
    NumericPolicy,
    RefinementSpec,
    StateVector,
    WeightedMeasurement,
    canonical_form,
    check_equivalence,
    coarse_event_probability_invariance,
    induced_ordering,
    null_events,
    outcome_count_ordering,
    relabel,
    run_all_checks,
    same_equivalence_class,
    spectral_decompose,
    uniform_measurement,
    unitary_transform,
    uniqueness_search,
    verify_representation,
    weight,
)
from born_kernel.erasure import THREE_OUTCOME_RESULTS
from born_kernel import GameSpec, reachable_set, sets_equal, three_outcome_game
from conftest import (
    grid_measurement, lcm_of_denominators, own_weights, random_family, subprocess_env,
)

LOOSE_EIGENVALUES = NumericPolicy(eigenvalue_tol=1e-6)


def _verdict(name: str, ok: bool, elapsed: float | None = None) -> None:
    suffix = f"  [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}", flush=True)


def grid_family_with_uniform(rng, K: int, max_random: int = 4) -> MeasurementFamily:
    """Random measurements on the 1/K grid plus the uniform-K witness."""
    n = int(rng.integers(1, max_random + 1))
    measurements = tuple(
        grid_measurement(rng, f"m{i + 1}", K, max_outcomes=6) for i in range(n)
    )
    return MeasurementFamily(measurements + (uniform_measurement(K),))


@pytest.fixture(scope="module")
def uniqueness_instances():
    """Fifty families with grid constant at most 12 (lcm of denominators
    at most 16) and the uniform richness witness included."""
    rng = np.random.default_rng(2026)
    out = []
    for _ in range(50):
        K = int(rng.choice([2, 3, 4, 4, 6, 6, 8, 8, 12]))
        out.append((K, grid_family_with_uniform(rng, K)))
    return out


def test_forward_representation_theorem():
    """200 random families: axioms hold and the weights represent, exactly."""
    rng = np.random.default_rng(101)
    start = time.time()
    ok = True
    for _ in range(200):
        family = random_family(
            rng, max_measurements=5, max_outcomes=8, max_denominator=64
        )
        ordering = induced_ordering(family)
        for report in run_all_checks(ordering):
            if not (report.satisfied and len(report.witnesses) == 0):
                ok = False
        pr = own_weights(family)
        verified, witnesses = verify_representation(pr, ordering)
        if not (verified and len(witnesses) == 0):
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 30.0
    _verdict("representation-theorem-forward", ok, elapsed)
    assert ok


def test_uniqueness(uniqueness_instances):
    """Exactly one grid assignment survives, and it is the weight function."""
    start = time.time()
    ok = True
    for K, family in uniqueness_instances:
        assert lcm_of_denominators(family) <= 16
        ordering = induced_ordering(family)
        found = uniqueness_search(ordering, K)
        if len(found) != 1:
            ok = False
            continue
        weights = own_weights(family)
        if any(found[0].value(r) != weights.value(r) for r in ordering.refs):
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 120.0
    _verdict("representation-theorem-uniqueness", ok, elapsed)
    assert ok


def test_null_events_are_zero_weight(uniqueness_instances):
    """Null events of the conforming ordering: exactly the zero-weight ones."""
    ok = True
    for _, family in uniqueness_instances:
        ordering = induced_ordering(family)
        weights = own_weights(family)
        expected = {r for r in ordering.refs if weights.value(r) == 0}
        if null_events(ordering) != expected:
            ok = False
    _verdict("null-events-zero-weight", ok)
    assert ok


def test_negative_control_outcome_count_rule():
    """The count-based rule breaks equal-weight equivalence and admits no
    representing measure."""
    rng = np.random.default_rng(303)
    trap = (
        WeightedMeasurement("trap2", ("o1", "o2"), (Fraction(1, 2), Fraction(1, 2))),
        WeightedMeasurement(
            "trap3",
            ("o1", "o2", "o3"),
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        ),
    )
    ok = True
    for _ in range(20):
        K = int(rng.choice([4, 8, 16]))
        extras = tuple(
            grid_measurement(rng, f"m{i + 1}", K, max_outcomes=5)
            for i in range(int(rng.integers(0, 4)))
        )
        family = MeasurementFamily(trap + extras)
        ordering = outcome_count_ordering(family)
        report = check_equivalence(ordering)
        weights, h = own_weights(family), ordering.matrix
        has_trap_pair = any(
            weights.value(a) == weights.value(b)
            and not (h[i, j] and h[j, i])
            for (i, a), (j, b) in itertools.combinations(enumerate(ordering.refs), 2)
        )
        if report.satisfied or not has_trap_pair:
            ok = False
        if uniqueness_search(ordering, K) != []:
            ok = False
    _verdict("negative-control-outcome-count", ok)
    assert ok


def test_equal_superposition_weight_value():
    """Spin along z on the equal superposition: weight 1/2 within 1e-12."""
    plus_x = StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2))
    sigma_z = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
    model = MeasurementModel(
        "stern-gerlach", plus_x, sigma_z, ("up", "down"), {"up": 1.0, "down": -1.0}
    )
    value = weight(model, {"up"})
    ok = abs(value - 0.5) <= 1e-12
    _verdict("equal-superposition-weight", ok)
    assert ok


def _haar_unitary(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_quadruple(rng, dim):
    eigs = np.sort(rng.normal(size=dim) * 10)
    while dim > 1 and np.min(np.diff(eigs)) < 1e-3:
        eigs = np.sort(rng.normal(size=dim) * 10)
    u = _haar_unitary(rng, dim)
    obs = spectral_decompose(
        u @ np.diag(eigs).astype(complex) @ u.conj().T, LOOSE_EIGENVALUES
    )
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    state = StateVector(v / np.linalg.norm(v))
    n_event = int(rng.integers(0, dim + 1))
    event = frozenset(rng.choice(obs.eigenvalues, size=n_event, replace=False).tolist())
    return MeasurementQuadruple(state, obs, event)


def _event_preserving_relabel(rng, q):
    """Random relabeling that pulls the image event back onto the event."""
    eigs = list(q.observable.eigenvalues)
    in_event = [x for x in eigs if x in q.event]
    out_event = [x for x in eigs if x not in q.event]
    f = {}
    for group, base in ((in_event, 1000.0), (out_event, 2000.0)):
        n_targets = max(1, int(rng.integers(1, len(group) + 1))) if group else 0
        for x in group:
            f[x] = base + float(rng.integers(0, n_targets))
    return f


def test_neutrality_canonical_invariance():
    """Canonical form is transform-invariant and separates weights, 1e-10."""
    rng = np.random.default_rng(404)
    quads = []
    ok = True
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        q = _random_quadruple(rng, dim)
        quads.append(q)
        base = canonical_form(q)

        u = _haar_unitary(rng, dim)
        moved = unitary_transform(
            q, u,
            spectral_decompose(u @ q.observable.dense() @ u.conj().T, LOOSE_EIGENVALUES),
        )
        after_u = canonical_form(moved)
        if abs(after_u.weight_value - base.weight_value) > 1e-10:
            ok = False

        relabeled = relabel(q, _event_preserving_relabel(rng, q))
        after_f = canonical_form(relabeled)
        if abs(after_f.weight_value - base.weight_value) > 1e-10:
            ok = False

    # Constructed equal-weight partners across different dimensions.
    pairs = []
    for q in quads[:20]:
        dim = q.dim
        big = _haar_unitary(rng, dim + 2)
        iso = big[:, :dim]
        dense = iso @ q.observable.dense() @ iso.conj().T
        comp = big[:, dim:]
        extra = np.diag([3001.0, 3002.0]).astype(complex)
        obs_big = spectral_decompose(
            dense + comp @ extra @ comp.conj().T, LOOSE_EIGENVALUES
        )
        pairs.append((q, unitary_transform(q, iso, obs_big)))

    forms = [canonical_form(q) for q in quads]
    for (i, fi), (j, fj) in itertools.combinations(enumerate(forms), 2):
        weights_close = abs(fi.weight_value - fj.weight_value) <= 1e-10
        if same_equivalence_class(quads[i], quads[j]) != weights_close:
            ok = False
    for q, partner in pairs:
        if not same_equivalence_class(q, partner):
            ok = False
        fa, fb = canonical_form(q), canonical_form(partner)
        if abs(fa.weight_value - fb.weight_value) > 1e-10:
            ok = False
    _verdict("neutrality-canonical-invariance", ok)
    assert ok


def test_erasure_reachable_sets():
    """Two-game sets agree exactly at p = 1/2; three-outcome always."""
    start = time.time()
    game1 = GameSpec(frozenset({"up"}))
    game2 = GameSpec(frozenset({"down"}))
    ok = True
    for index_range in (1, 2, 3, 4):
        for k in range(1, 16):
            p = Fraction(k, 16)
            prep = [("up", p), ("down", 1 - p)]
            equal = sets_equal(
                reachable_set(prep, game1, index_range),
                reachable_set(prep, game2, index_range),
            )
            if equal != (k == 8):
                ok = False
    g1 = GameSpec(frozenset({THREE_OUTCOME_RESULTS[0]}))
    g2 = GameSpec(frozenset({THREE_OUTCOME_RESULTS[1]}))
    for index_range in (1, 2, 3, 4):
        for k in range(1, 9):
            w = Fraction(k, 16)
            if not sets_equal(
                three_outcome_game(w, g1, index_range),
                three_outcome_game(w, g2, index_range),
            ):
                ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 10.0
    _verdict("erasure-reachable-sets", ok, elapsed)
    assert ok


def test_branching_indifference_refinement():
    """Refinement never moves a coarse event's derived probability."""
    rng = np.random.default_rng(707)
    ok = True
    for _ in range(50):
        K = int(rng.choice([1, 2, 3, 4, 5, 8]))
        parts = int(rng.integers(1, min(8, max(1, 10 // K)) + 1))
        n_meas = int(rng.integers(1, 4))
        measurements = [
            grid_measurement(rng, f"m{i + 1}", K, max_outcomes=4)
            for i in range(n_meas)
        ]
        family = MeasurementFamily(tuple(measurements))
        target = measurements[int(rng.integers(0, n_meas))]
        positive = [
            o for o, w in zip(target.outcomes, target.weights) if w > 0
        ]
        outcome = positive[int(rng.integers(0, len(positive)))]
        spec = RefinementSpec(target.id, outcome, parts)
        if not coarse_event_probability_invariance(family, spec, K):
            ok = False
    _verdict("branching-indifference-refinement", ok)
    assert ok


def test_rational_sandwich_monotonicity():
    """p < q with denominators <= 32: the q-weight event ranks strictly higher."""
    fractions = sorted(
        {Fraction(num, den) for den in range(1, 33) for num in range(0, den + 1)}
    )
    measurements = [
        WeightedMeasurement(f"p{p.numerator}_{p.denominator}", ("hit", "miss"), (p, 1 - p))
        for p in fractions
        if 0 < p < 1
    ]
    anchor = WeightedMeasurement("anchor", ("hit",), (Fraction(1),))
    family = MeasurementFamily(tuple(measurements) + (anchor,))
    ordering = induced_ordering(family)

    def event_of(p: Fraction) -> int:
        if p == 0:
            return family.position("anchor", ())
        if p == 1:
            return family.position("anchor", ("hit",))
        return family.position(f"p{p.numerator}_{p.denominator}", ("hit",))

    h = ordering.matrix
    ok = True
    for p, q in itertools.combinations(fractions, 2):
        assert p < q
        if not (h[event_of(q), event_of(p)] and not h[event_of(p), event_of(q)]):
            ok = False
            break
    _verdict("rational-sandwich-monotonicity", ok)
    assert ok


def test_cli_contract(tmp_path):
    """Five subcommands, exit codes 0/1/2, byte-identical repeat runs."""

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "born_kernel", *args],
            text=True,
            capture_output=True,
            env=subprocess_env(),
        )

    family = tmp_path / "family.json"
    quad = tmp_path / "quad.json"
    from born_kernel.formats import canonical_dumps, quadruple_to_json

    q = MeasurementQuadruple(
        StateVector(np.array([1, 1], dtype=complex) / np.sqrt(2)),
        spectral_decompose(np.diag([1.0, -1.0]).astype(complex)),
        frozenset({1.0}),
    )
    quad.write_text(canonical_dumps(quadruple_to_json(q)))

    expectations = [
        (("gen-rich", "-K", "4", "--max-outcomes", "4", "--out", str(family)), 0),
        (("check", "--family", str(family),
          "--ordering", str(family.with_suffix(".ordering.json"))), 0),
        (("derive", "--family", str(family),
          "--ordering", str(family.with_suffix(".ordering.json")),
          "-K", "4", "--out", str(tmp_path / "pr.json")), 0),
        (("demo-erasure", "--p-num", "1", "--p-den", "2"), 0),
        (("canon", "--quad", str(quad)), 0),
        # Domain failures.
        (("gen-rich", "-K", "64", "--max-outcomes", "12",
          "--out", str(tmp_path / "big.json")), 1),
        (("derive", "--family", str(family),
          "--ordering", str(family.with_suffix(".ordering.json")),
          "-K", "3", "--out", str(tmp_path / "pr3.json")), 1),
        # Input errors.
        (("demo-erasure", "--p-num", "1", "--p-den", "1"), 2),
        (("check", "--family", str(tmp_path / "missing.json"),
          "--ordering", str(tmp_path / "missing.json")), 2),
    ]
    ok = True
    for args, expected_code in expectations:
        first = run(*args)
        second = run(*args)
        if first.returncode != expected_code or second.returncode != expected_code:
            ok = False
        if first.stdout != second.stdout:
            ok = False
    # The count-rule ordering drives exit 1 through check.
    trap = MeasurementFamily(
        (
            WeightedMeasurement("a", ("o1", "o2"), (Fraction(1, 2), Fraction(1, 2))),
            WeightedMeasurement(
                "b", ("o1", "o2", "o3"),
                (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
            ),
        )
    )
    from born_kernel.formats import family_to_json, ordering_to_json

    trap_family = tmp_path / "trap.json"
    trap_ordering = tmp_path / "trap.ordering.json"
    trap_family.write_text(canonical_dumps(family_to_json(trap)))
    trap_ordering.write_text(
        canonical_dumps(ordering_to_json(outcome_count_ordering(trap)))
    )
    proc = run("check", "--family", str(trap_family), "--ordering", str(trap_ordering))
    if proc.returncode != 1:
        ok = False
    report = json.loads(proc.stdout)
    equivalence = [v for v in report["verdicts"] if v["check"] == "Equivalence"][0]
    if equivalence["result"] != "fail" or equivalence["witness_count"] == 0:
        ok = False
    _verdict("cli-contract", ok)
    assert ok
