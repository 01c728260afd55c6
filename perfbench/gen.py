"""Seeded input generators for the four workloads.

Everything here is plain NumPy and integers; nothing imports born_kernel,
so the inputs (and the oracle built on them) do not depend on the code
under test.  A workload's inputs are a JSON-able "plan" plus, for the
quantum workload, NumPy arrays and quadruple files; the same seed always
gives byte-identical files.

Family specs are dicts ``{"name", "grid", "measurements"}`` where each
measurement is ``{"id", "outcomes", "nums", "den"}``: outcome i has the
exact weight ``nums[i] / den``.
"""
from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

# cli-pipeline: the rich family the CLI builds, and the size-cap probe.
CLI_K = 6
CLI_CAP_PROBE_K = 12

# rich-kernel: one K=8 family per round, each round a different shuffle
# of equal size, plus the weight-blind negative control on a K=7 family.
RICH_K = 8
RICH_FAMILIES = 8
RICH_CONTROL_K = 7

# quantum-spectra: matrices of two kinds with similar decompose cost, and
# quadruple files for the canon CLI.
QUANTUM_KINDS = (("nondegenerate", 64, 64), ("clustered", 256, 8))
QUANTUM_PER_KIND = 4
QUANTUM_EVENTS_PER_MATRIX = 4
# One d=64 non-degenerate quadruple: writing its 12 MB of JSON is most of
# this workload's set-up time.
QUANTUM_CANON_MATRICES = (0,)

# small-families: shapes follow a fixed schedule so that round cost does
# not depend on the seed; the seed picks the weights.  A round is sized
# to run about six times in a run, so its median shrugs off one slow round.
SMALL_RANDOM = 100
SMALL_GRID = 25
SMALL_GRID_KS = (2, 3, 4, 6, 8)
SMALL_ERASURE_RANGES = tuple(range(2, 13))
SMALL_ERASURE_P_DEN = 16

WORKLOADS = ("cli-pipeline", "rich-kernel", "quantum-spectra", "small-families")


def compositions(total: int, parts: int):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        bounds = (0,) + cuts + (total,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(parts))


def rich_family_spec(K: int, max_outcomes: int, prefix: str = "", rng=None) -> dict:
    """Every weight vector on the 1/K grid with at most max_outcomes parts.

    With `rng`, each measurement's parts are shuffled, which yields a
    different family with the same event count and weight multiset.
    """
    measurements = []
    for n in range(1, min(K, max_outcomes) + 1):
        for parts in compositions(K, n):
            mid = prefix + "k" + "-".join(str(p) for p in parts)
            nums = list(parts)
            if rng is not None:
                nums = [int(x) for x in rng.permutation(nums)]
            measurements.append(
                {"id": mid, "outcomes": [f"o{i + 1}" for i in range(n)],
                 "nums": nums, "den": K}
            )
    return {"name": prefix + f"rich{K}", "grid": K, "measurements": measurements}


def _split(rng, den: int, n: int) -> list[int]:
    return [int(x) for x in rng.multinomial(den, [1.0 / n] * n)]


def random_family_spec(rng, index: int) -> dict:
    """A family on mixed denominators <= 64 with a scheduled shape."""
    n_meas = 1 + index % 5
    measurements = []
    for j in range(n_meas):
        n = 1 + (3 * index + 5 * j) % 8
        den = int(rng.integers(n, 65))
        measurements.append(
            {"id": f"m{j + 1}", "outcomes": [f"o{i + 1}" for i in range(n)],
             "nums": _split(rng, den, n), "den": den}
        )
    return {"name": f"random{index}", "grid": None, "measurements": measurements}


def grid_family_spec(rng, index: int) -> dict:
    """Measurements on the 1/K grid plus the uniform K-outcome witness."""
    K = SMALL_GRID_KS[index % len(SMALL_GRID_KS)]
    measurements = []
    for j in range(1 + index % 4):
        n = 1 + (index + 2 * j) % 6
        measurements.append(
            {"id": f"m{j + 1}", "outcomes": [f"o{i + 1}" for i in range(n)],
             "nums": _split(rng, K, n), "den": K}
        )
    measurements.append(
        {"id": f"uniform-{K}", "outcomes": [f"u{i + 1}" for i in range(K)],
         "nums": [1] * K, "den": K}
    )
    return {"name": f"grid{index}", "grid": K, "measurements": measurements}


def totality_fault_spec() -> dict:
    """The two measurements of the known incomplete-relation defect."""
    return {
        "name": "totality",
        "grid": None,
        "measurements": [
            {"id": "a", "outcomes": ["x", "y"], "nums": [1, 2], "den": 3},
            {"id": "b", "outcomes": ["p", "q"], "nums": [1, 4], "den": 5},
        ],
        "cleared": [["a", ["x"]], ["b", ["p"]]],
    }


def random_unitary(rng, d: int) -> np.ndarray:
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def spectrum(rng, kind: str, d: int, clusters: int) -> np.ndarray:
    """Eigenvalue per column, sorted ascending, clusters exactly equal.

    Distinct levels are at least 0.5 apart, far outside the clustering
    tolerance, so the expected cluster count is exact.
    """
    if kind == "nondegenerate":
        return np.arange(1.0, d + 1) + rng.uniform(0.0, 0.5, size=d)
    levels = np.arange(clusters, dtype=float) * 2.0 + rng.uniform(0.0, 0.5, size=clusters)
    return np.repeat(levels, d // clusters)


def quantum_case(rng, kind: str, d: int, clusters: int) -> dict:
    """One Hermitian matrix with known eigenbasis, a state and events."""
    basis = random_unitary(rng, d)
    eigvals = spectrum(rng, kind, d, clusters)
    matrix = (basis * eigvals) @ basis.conj().T
    matrix = (matrix + matrix.conj().T) / 2.0
    psi = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi /= np.linalg.norm(psi)
    levels = np.unique(eigvals)
    events = []
    for _ in range(QUANTUM_EVENTS_PER_MATRIX):
        size = int(rng.integers(1, len(levels)))
        events.append(sorted(int(i) for i in rng.choice(len(levels), size, replace=False)))
    return {"basis": basis, "eigvals": eigvals, "matrix": matrix, "psi": psi,
            "levels": levels, "events": events}


def quadruple_doc(case: dict, event: list[int]) -> dict:
    """`canon` input in the v1 quadruple layout of docs/formats.md.

    Projectors come from the generator's eigenbasis, not from a
    decomposition by the program.
    """
    basis, eigvals = case["basis"], case["eigvals"]

    def pairs_of(a: np.ndarray) -> list:
        # complex128 viewed as float64 pairs: [..., [re, im]]
        return a.view(np.float64).reshape(a.shape + (2,)).tolist()

    pairs = []
    for level in case["levels"]:
        cols = basis[:, eigvals == level]
        proj = cols @ cols.conj().T
        proj = np.ascontiguousarray((proj + proj.conj().T) / 2.0)
        pairs.append({"eigenvalue": float(level), "projector": pairs_of(proj)})
    d = int(basis.shape[0])
    return {
        "schema": "v1",
        "dim": d,
        "state": {"dim": d, "components": pairs_of(np.ascontiguousarray(case["psi"]))},
        "observable": {"dim": d, "spectral_pairs": pairs},
        "event": [float(case["levels"][i]) for i in event],
    }


def prepare(workload: str, seed: int, out: Path) -> None:
    """Generate the workload's inputs from `seed` and write them to `out`."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    plan: dict = {"workload": workload, "seed": seed}
    if workload == "cli-pipeline":
        plan["K"] = CLI_K
        plan["cap_probe_K"] = CLI_CAP_PROBE_K
        plan["expected"] = rich_family_spec(CLI_K, CLI_K)
    elif workload == "rich-kernel":
        plan["families"] = [
            rich_family_spec(RICH_K, RICH_K, prefix=f"s{seed}f{i}.", rng=rng)
            for i in range(RICH_FAMILIES)
        ]
        plan["control"] = rich_family_spec(
            RICH_CONTROL_K, RICH_CONTROL_K, prefix=f"s{seed}c.", rng=rng
        )
    elif workload == "quantum-spectra":
        cases = []
        arrays = {}
        for kind, d, clusters in QUANTUM_KINDS:
            for _ in range(QUANTUM_PER_KIND):
                i = len(cases)
                case = quantum_case(rng, kind, d, clusters)
                for key in ("basis", "eigvals", "matrix", "psi", "levels"):
                    arrays[f"{key}{i}"] = case[key]
                cases.append({"kind": kind, "dim": d, "clusters": clusters,
                              "events": case["events"]})
                if i in QUANTUM_CANON_MATRICES:
                    path = out / f"quad{i}.json"
                    path.write_text(json.dumps(quadruple_doc(case, case["events"][0])))
                    cases[-1]["quad"] = path.name
        np.savez(out / "spectra.npz", **arrays)
        plan["cases"] = cases
    else:
        plan["random"] = [random_family_spec(rng, i) for i in range(SMALL_RANDOM)]
        plan["grid"] = [grid_family_spec(rng, i) for i in range(SMALL_GRID)]
        plan["erasure"] = {"ranges": list(SMALL_ERASURE_RANGES), "p_den": SMALL_ERASURE_P_DEN}
        plan["totality"] = totality_fault_spec()
    (out / "plan.json").write_text(json.dumps(plan))


def load(out: Path) -> dict:
    """Read back what `prepare` wrote; arrays are attached to the cases."""
    plan = json.loads((out / "plan.json").read_text())
    if plan["workload"] == "quantum-spectra":
        with np.load(out / "spectra.npz", allow_pickle=False) as arrays:
            for i, case in enumerate(plan["cases"]):
                for key in ("basis", "eigvals", "matrix", "psi", "levels"):
                    case[key] = arrays[f"{key}{i}"]
    return plan
