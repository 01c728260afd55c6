"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench -q

Each workload's round runs on inputs a few events large, so the checks
against the oracle, the known-fault operations and the tracer are all
exercised in a few seconds.
"""
from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gen  # noqa: E402
import harness  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_ENV  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_ENV)


def context(plan: dict, tmp_path: Path) -> workloads.Context:
    return workloads.Context(plan, tmp_path, tmp_path, ENV)


def tiny_plans(tmp_path: Path) -> dict:
    rng = np.random.default_rng(7)
    case = gen.quantum_case(rng, "nondegenerate", 6, 6)
    clustered = gen.quantum_case(rng, "clustered", 8, 2)
    (tmp_path / "quad0.json").write_text(json.dumps(gen.quadruple_doc(case, case["events"][0])))
    case["quad"] = "quad0.json"
    return {
        "cli-pipeline": {"K": 3, "cap_probe_K": gen.CLI_CAP_PROBE_K,
                         "expected": gen.rich_family_spec(3, 3)},
        "rich-kernel": {
            "families": [gen.rich_family_spec(4, 4, prefix=f"f{i}.", rng=rng) for i in range(2)],
            "control": gen.rich_family_spec(4, 4, prefix="c.", rng=rng),
        },
        "quantum-spectra": {"cases": [case, clustered]},
        "small-families": {
            "random": [gen.random_family_spec(rng, i) for i in range(4)],
            "grid": [gen.grid_family_spec(rng, i) for i in range(3)],
            "erasure": {"ranges": [2, 3], "p_den": 4},
            "totality": gen.totality_fault_spec(),
        },
    }


@pytest.fixture
def plans(tmp_path):
    return tiny_plans(tmp_path)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_round_passes_its_checks(workload, plans, tmp_path):
    outcomes = workloads.ROUNDS[workload](context(plans[workload], tmp_path), 0)
    unexpected = [(o.name, o.why) for o in outcomes if not o.ok and o.fault is None]
    assert unexpected == []
    assert all(o.seconds > 0 for o in outcomes)


@pytest.mark.parametrize("workload, fault", [("cli-pipeline", "gen-rich-size-cap"),
                                             ("small-families", "incomplete-relation")])
def test_known_fault_is_counted_as_failed(workload, fault, plans, tmp_path):
    outcomes = workloads.ROUNDS[workload](context(plans[workload], tmp_path), 0)
    assert [o.fault for o in outcomes if not o.ok] == [fault]


def test_prepare_is_deterministic_per_seed(tmp_path):
    for seed, name in ((3, "a"), (3, "b"), (4, "c")):
        gen.prepare("small-families", seed, tmp_path / name)
    a, b, c = ((tmp_path / n / "plan.json").read_bytes() for n in "abc")
    assert a == b and a != c


def test_event_table_matches_hand_count():
    spec = {"measurements": [{"id": "a", "outcomes": ["x", "y"], "nums": [1, 2], "den": 3},
                             {"id": "b", "outcomes": ["p"], "nums": [1], "den": 1}]}
    weights = oracle.event_weights(spec)
    assert weights[("a", frozenset({"y"}))] == Fraction(2, 3)
    assert weights[("b", frozenset({"p"}))] == 1
    assert len(weights) == 4 + 2
    table = oracle.event_table(spec)
    assert table[("a", frozenset({"x", "y"}))] == (3, 2)


def test_count_rule_witnesses_match_brute_force():
    spec = gen.random_family_spec(np.random.default_rng(5), 3)
    table = oracle.event_table(spec)
    brute = sum(1 for (wa, ca), (wb, cb) in itertools.product(table.values(), repeat=2)
                if wa == wb and ca < cb)
    assert oracle.count_rule_witnesses(table) == brute


def test_quantum_oracle_is_a_probability():
    case = gen.quantum_case(np.random.default_rng(2), "clustered", 8, 2)
    total = oracle.quantum_weight(case["basis"], case["eigvals"], case["psi"], case["levels"])
    assert total == pytest.approx(1.0, abs=1e-12)


def test_checks_reject_a_wrong_ordering():
    spec = gen.rich_family_spec(3, 3)
    family = workloads.build_family(spec)
    good = workloads.bk_ordering.induced_ordering(family)
    table = oracle.event_table(spec)
    assert workloads._ordering_mismatch(good, table) == ""
    matrix = good.matrix.copy()
    matrix[1, 2] = not matrix[1, 2]
    bad = workloads.bk_ordering.LikelihoodOrdering(family, good.refs, matrix)
    assert workloads._ordering_mismatch(bad, table) != ""


def test_an_exception_fails_only_its_operation(tmp_path):
    def broken(ctx, name):
        raise ValueError("program fault")

    out = workloads.guarded(broken, context({}, tmp_path), "op")
    assert (out.name, out.ok) == ("op", False) and "program fault" in out.why


def test_an_added_axiom_check_is_accepted():
    reports = [workloads.bk_ordering.AxiomReport(a, True, ())
               for a in workloads.AXIOMS + ("Totality",)]
    assert workloads._all_pass(reports) == ""
    assert workloads._all_pass(reports[1:]) != ""


def test_trace_reports_every_per_layer_metric(plans, tmp_path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    ctx = context(plans["rich-kernel"], tmp_path)
    derive = workloads.bk_representation.derive_representation
    rounds, metrics, same = harness.trace_run(
        workloads.rich_round, ctx, tmp_path / "trace.jsonl")
    assert same and len(rounds) == 3
    assert set(metrics) == names
    assert metrics["representation.derive_recheck_s"]["value"] > 0
    assert metrics["ordering.witnesses"]["value"] > 0
    assert workloads.bk_representation.derive_representation is derive
    spans = [json.loads(line) for line in (tmp_path / "trace.jsonl").read_text().splitlines()]
    assert {"name", "start", "end", "parent", "counts"} <= set(spans[0])


def test_cli_trace_runs_in_process(plans, tmp_path):
    ctx = context(plans["cli-pipeline"], tmp_path)
    rounds, metrics, same = harness.trace_run(
        workloads.cli_round, ctx, tmp_path / "trace.jsonl")
    assert same and len(rounds) == 3
    assert metrics["formats.pairs"]["value"] > 0
    assert metrics["cli.gen_rich_s"]["value"] > 0
    assert metrics["cli.self_s"]["value"] > 0


def test_end_to_end_metrics_match_the_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    op = workloads.Outcome("x", 0.5, True, None)
    metrics = harness.end_to_end([0.2, 0.3, 0.4], [[op, op], [op]])
    assert {n: m["unit"] for n, m in metrics.items()} == {
        m["name"]: m["unit"] for m in declared["end_to_end"]}
    assert metrics["wall_s"]["value"] == 0.75


def test_refuses_to_run_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rich-kernel", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == b""
