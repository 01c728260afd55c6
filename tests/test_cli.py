"""Command-line contract: exit codes 0/1/2 and reproducible reports."""
import gc
import json
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from born_kernel import (
    MeasurementFamily,
    MeasurementQuadruple,
    StateVector,
    WeightedMeasurement,
    generate_rich_family,
    induced_ordering,
    outcome_count_ordering,
    spectral_decompose,
    uniform_measurement,
)
from born_kernel import cli
from born_kernel.cli import WITNESS_LIMIT, InputError, _read_json
from born_kernel.formats import (
    canonical_dumps,
    event_ref_to_json,
    family_to_json,
    ordering_to_json,
    quadruple_to_json,
    tiers_to_json,
)
from conftest import subprocess_env
from test_total_preorder import listed_equivalence


def run_cli(*args: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "born_kernel", *args],
        text=True,
        capture_output=True,
        check=False,
        env=subprocess_env(),
        timeout=timeout,
    )


@pytest.fixture
def rich_files(tmp_path):
    family = tmp_path / "family.json"
    proc = run_cli(
        "gen-rich", "-K", "4", "--max-outcomes", "4", "--out", str(family)
    )
    assert proc.returncode == 0
    return family, family.with_suffix(".ordering.json")


class TestGenRich:
    def test_writes_family_and_ordering(self, rich_files):
        family, ordering = rich_files
        fam_doc = json.loads(family.read_text())
        assert fam_doc["schema"] == "v1"
        assert len(fam_doc["measurements"]) == 8
        ord_doc = json.loads(ordering.read_text())
        assert ord_doc["schema"] == "v2"

    def test_cap_exit_1(self, tmp_path):
        proc = run_cli(
            "gen-rich", "-K", "64", "--max-outcomes", "12",
            "--out", str(tmp_path / "big.json"),
        )
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["verdicts"][0]["result"] == "fail"

    def test_event_cap_exit_1_with_report(self, tmp_path):
        # 2,048 measurements with 354,294 events exceed the 20,000-event
        # cap of extensional orderings.
        out = tmp_path / "big.json"
        proc = run_cli("gen-rich", "-K", "12", "--max-outcomes", "12", "--out", str(out))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        assert report["command"] == "gen-rich"
        assert report["verdicts"] == [
            {"check": "size-cap", "result": "fail", "witness_count": 0, "witnesses": []}
        ]
        assert "354,294" in proc.stderr and "20,000" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "K, count",
        [
            ("20", "2,324,522,934"),
            # 2 * 3**19999 events: too many digits for Python to print.
            ("20000", f"at least 2**{(2 * 3**19999).bit_length() - 1:,}"),
        ],
        ids=["K=20", "K=20000"],
    )
    def test_event_cap_checked_before_generation(
        self, monkeypatch, capsys, tmp_path, K, count
    ):
        # K = 20 has 524,288 measurements and 2 * 3**19 events; the event
        # count alone must refuse it, before any measurement is built.
        from born_kernel import cli, representation

        def build(*args):
            raise AssertionError("a measurement of the rich family was built")

        monkeypatch.setattr(representation, "WeightedMeasurement", build)
        out = tmp_path / "big.json"
        rc = cli.main(["gen-rich", "-K", K, "--max-outcomes", K, "--out", str(out)])
        stdout, stderr = capsys.readouterr()
        assert rc == 1
        assert json.loads(stdout)["verdicts"] == [
            {"check": "size-cap", "result": "fail", "witness_count": 0, "witnesses": []}
        ]
        assert f"family has {count} events" in stderr and "20,000" in stderr
        assert not out.exists()

    def test_event_cap_refusal_at_K_10_8_builds_no_power_of_3(self, tmp_path):
        """2 * 3**(10**8 - 1) would take past a minute to build; the
        refusal names its bit length alone, well inside the timeout."""
        out = tmp_path / "big.json"
        K = str(10**8)
        proc = run_cli("gen-rich", "-K", K, "--max-outcomes", K, "--out", str(out), timeout=5)
        assert proc.returncode == 1
        assert "family has at least 2**158,496,249 events" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize(
        "max_outcomes, count",
        [("100000", "at least 2**158,495"), ("50000", "at least 399,998")],
        ids=["closed-form", "partial-sum"],
    )
    def test_event_cap_refusal_time_does_not_grow_with_K(
        self, capsys, tmp_path, max_outcomes, count
    ):
        # Every outcome count up to K sums to 2 * 3**(K - 1) events; a
        # partial sum stops once it is past the cap.  Summing term by term
        # to the end took seconds at this K.
        import time

        from born_kernel import cli

        out = tmp_path / "big.json"
        start = time.perf_counter()
        rc = cli.main(["gen-rich", "-K", "100000", "--max-outcomes", max_outcomes,
                       "--out", str(out)])
        elapsed = time.perf_counter() - start
        stdout, stderr = capsys.readouterr()
        assert rc == 1
        assert json.loads(stdout)["verdicts"] == [
            {"check": "size-cap", "result": "fail", "witness_count": 0, "witnesses": []}
        ]
        assert f"family has {count} events" in stderr
        assert elapsed < 0.5
        assert not out.exists()


class TestCheck:
    def test_induced_ordering_passes(self, rich_files):
        family, ordering = rich_files
        proc = run_cli("check", "--family", str(family), "--ordering", str(ordering))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        names = [v["check"] for v in report["verdicts"]]
        assert names == ["Transitivity", "Separation", "Dominance", "Equivalence", "Totality"]
        assert all(v["result"] == "pass" for v in report["verdicts"])

    def test_count_ordering_fails_equivalence_with_witnesses(self, tmp_path):
        family = MeasurementFamily(
            (
                WeightedMeasurement(
                    "a", ("o1", "o2"), (Fraction(1, 2), Fraction(1, 2))
                ),
                WeightedMeasurement(
                    "b",
                    ("o1", "o2", "o3"),
                    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
                ),
            )
        )
        fam_path = tmp_path / "family.json"
        ord_path = tmp_path / "count.json"
        fam_path.write_text(canonical_dumps(family_to_json(family)))
        ord_path.write_text(
            canonical_dumps(ordering_to_json(outcome_count_ordering(family)))
        )
        proc = run_cli("check", "--family", str(fam_path), "--ordering", str(ord_path))
        assert proc.returncode == 1
        report = json.loads(proc.stdout)
        by_name = {v["check"]: v for v in report["verdicts"]}
        assert by_name["Equivalence"]["result"] == "fail"
        assert by_name["Equivalence"]["witness_count"] > 0
        assert by_name["Equivalence"]["witnesses"]

    def test_long_witness_list_is_cut_and_counted_exactly(self, tmp_path):
        """The K=7 control fails Equivalence 91,276 times: the report
        counts them all and lists the first WITNESS_LIMIT in canonical
        order, where the whole list was 30.5 MB of stdout."""
        family = generate_rich_family(7, 7)
        control = outcome_count_ordering(family)
        fam_path, ord_path = tmp_path / "family.json", tmp_path / "control.json"
        fam_path.write_text(canonical_dumps(family_to_json(family)))
        ord_path.write_text(canonical_dumps(tiers_to_json(control)))
        proc = run_cli("check", "--family", str(fam_path), "--ordering", str(ord_path))
        assert proc.returncode == 1
        assert len(proc.stdout.encode()) < 10**6
        by_name = {v["check"]: v for v in json.loads(proc.stdout)["verdicts"]}
        equivalence = by_name["Equivalence"]
        assert equivalence["witness_count"] == 91276
        first = listed_equivalence(control).witnesses[:WITNESS_LIMIT]
        assert equivalence["witnesses"] == [[event_ref_to_json(r) for r in w] for w in first]

    def test_truncated_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"schema": "v1", "measurements": [')
        proc = run_cli("check", "--family", str(bad), "--ordering", str(bad))
        assert proc.returncode == 2
        assert "line" in proc.stderr

    def test_missing_file_exit_2(self, tmp_path):
        proc = run_cli(
            "check",
            "--family", str(tmp_path / "nope.json"),
            "--ordering", str(tmp_path / "nope.json"),
        )
        assert proc.returncode == 2

    def test_usage_error_exit_2(self):
        proc = run_cli("check")
        assert proc.returncode == 2


class TestDerive:
    def test_rich_family_output_matches_weights(self, rich_files, tmp_path):
        family, ordering = rich_files
        out = tmp_path / "assignment.json"
        proc = run_cli(
            "derive", "--family", str(family), "--ordering", str(ordering),
            "-K", "4", "--out", str(out),
        )
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdicts"][0]["result"] == "pass"

        # Field-for-field: every singleton probability equals the weight
        # recorded in the family file.
        fam_doc = json.loads(family.read_text())
        values = {
            (v["measurement"], tuple(v["event"])): v["probability"]
            for v in json.loads(out.read_text())["values"]
        }
        for m in fam_doc["measurements"]:
            for outcome, w in zip(m["outcomes"], m["weights"]):
                assert values[(m["id"], (outcome,))] == w

    def test_nonconforming_denominator_exit_1(self, tmp_path):
        family = MeasurementFamily(
            (
                uniform_measurement(4),
                WeightedMeasurement(
                    "thirds", ("a", "b"), (Fraction(1, 3), Fraction(2, 3))
                ),
            )
        )
        from born_kernel import induced_ordering

        fam_path = tmp_path / "family.json"
        ord_path = tmp_path / "ordering.json"
        fam_path.write_text(canonical_dumps(family_to_json(family)))
        ord_path.write_text(
            canonical_dumps(ordering_to_json(induced_ordering(family)))
        )
        proc = run_cli(
            "derive", "--family", str(fam_path), "--ordering", str(ord_path),
            "-K", "4", "--out", str(tmp_path / "pr.json"),
        )
        assert proc.returncode == 1
        assert "NonconformingDenominator" in proc.stdout

    def test_grid_refusal_prints_the_weight_measurement_and_grid(self, rich_files, tmp_path):
        family, ordering = rich_files
        proc = run_cli(
            "derive", "--family", str(family), "--ordering", str(ordering),
            "-K", "3", "--out", str(tmp_path / "pr.json"),
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: precondition failed: NonconformingDenominator: weight 1/4 of "
            "measurement 'k1-1-1-1' does not live on the 1/3 grid\n"
        )

    def test_missing_uniform_refusal_prints_K(self, tmp_path):
        family = tmp_path / "family.json"
        assert run_cli("gen-rich", "-K", "4", "--max-outcomes", "3",
                       "--out", str(family)).returncode == 0
        proc = run_cli(
            "derive", "--family", str(family),
            "--ordering", str(family.with_suffix(".ordering.json")),
            "-K", "4", "--out", str(tmp_path / "pr.json"),
        )
        assert proc.returncode == 1
        assert proc.stderr == (
            "error: precondition failed: MissingUniformMeasurement: "
            "family has no uniform 4-outcome measurement\n"
        )
        assert "precondition:MissingUniformMeasurement" in proc.stdout

    def test_failed_axiom_precondition_carries_the_checks_witnesses(self, tmp_path):
        """derive's precondition verdict is check's verdict on the failing
        axiom, renamed: the K=4 control's 111 Equivalence witnesses, not 0."""
        family = generate_rich_family(4, 4)
        fam_path, ord_path = tmp_path / "family.json", tmp_path / "control.json"
        fam_path.write_text(canonical_dumps(family_to_json(family)))
        ord_path.write_text(canonical_dumps(tiers_to_json(outcome_count_ordering(family))))
        files = ("--family", str(fam_path), "--ordering", str(ord_path))
        proc = run_cli("derive", *files, "-K", "4", "--out", str(tmp_path / "pr.json"))
        assert proc.returncode == 1
        (verdict,) = json.loads(proc.stdout)["verdicts"]
        checked = {v["check"]: v for v in json.loads(run_cli("check", *files).stdout)["verdicts"]}
        assert verdict == dict(checked["Equivalence"], check="precondition:Equivalence")
        assert verdict["witness_count"] == 111 == len(verdict["witnesses"])

    def test_certain_family_k1(self, tmp_path):
        fam_path = tmp_path / "family.json"
        out = tmp_path / "pr.json"
        proc = run_cli(
            "gen-rich", "-K", "1", "--max-outcomes", "1", "--out", str(fam_path)
        )
        assert proc.returncode == 0
        proc = run_cli(
            "derive", "--family", str(fam_path),
            "--ordering", str(fam_path.with_suffix(".ordering.json")),
            "-K", "1", "--out", str(out),
        )
        assert proc.returncode == 0
        doc = json.loads(out.read_text())
        singleton = [v for v in doc["values"] if v["event"] == ["o1"]]
        assert singleton[0]["probability"] == {"num": "1", "den": "1"}

    def test_nonpositive_k_exit_2(self, rich_files, tmp_path):
        family, ordering = rich_files
        proc = run_cli(
            "derive", "--family", str(family), "--ordering", str(ordering),
            "-K", "0", "--out", str(tmp_path / "pr.json"),
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr


class TestDemoErasure:
    def test_half_equal(self):
        proc = run_cli("demo-erasure", "--p-num", "1", "--p-den", "2")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdicts"][0]["result"] == "pass"
        sweep = {e["p"]: e["equal"] for e in report["artifacts"]["sweep"]}
        assert sweep["8/16"] is True
        assert sum(sweep.values()) == 1

    def test_quarter_unequal(self):
        proc = run_cli("demo-erasure", "--p-num", "1", "--p-den", "4")
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["verdicts"][0]["result"] == "fail"

    def test_index_range_past_the_cap_exit_1_with_report(self, capsys):
        from born_kernel import cli

        assert cli.MAX_ERASURE_CHOICES == 10_000
        rc = cli.main(["demo-erasure", "--p-num", "1", "--p-den", "2", "--index-range", "101"])
        out, err = capsys.readouterr()
        assert rc == 1
        assert json.loads(out)["verdicts"] == [
            {"check": "size-cap", "result": "fail", "witness_count": 0, "witnesses": []}
        ]
        assert "101" in err and "10,201" in err and "10,000" in err

    @pytest.mark.parametrize("index_range, rc", [(2, 0), (3, 0), (4, 1)])
    def test_cap_boundary(self, monkeypatch, capsys, index_range, rc):
        from born_kernel import cli

        # R = 3 is the boundary of a cap of 9 = 3**2 choices.
        monkeypatch.setattr(cli, "MAX_ERASURE_CHOICES", 9)
        argv = ["demo-erasure", "--p-num", "1", "--p-den", "2", "--index-range"]
        assert cli.main(argv + [str(index_range)]) == rc
        verdict = json.loads(capsys.readouterr().out)["verdicts"][0]["check"]
        assert verdict == ("size-cap" if rc else "reachable-sets-equal")

    def test_weights_equal_to_12_places_are_told_apart(self, capsys):
        """p = 1/2 + 10**-15: the listed weights round to 0.5, and the
        verdict compares the exact weights, which differ."""
        rc = cli.main(["demo-erasure", "--p-num", "500000000000001",
                       "--p-den", "1000000000000000", "--index-range", "2"])
        report = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert report["verdicts"][0]["result"] == "fail"
        artifacts = report["artifacts"]
        states = artifacts["game1_states"] + artifacts["game2_states"]
        assert len(states) == 8 and {b["weight"] for s in states for b in s} == {0.5}

    def test_only_the_listed_sets_build_their_states(self, monkeypatch, capsys):
        """The verdict and the 15-point sweep read each set's description;
        only game 1's and game 2's listed sets build their states."""
        from born_kernel import erasure

        made = []
        real = erasure.reachable_set

        def recorded(*args):
            made.append(real(*args))
            return made[-1]

        monkeypatch.setattr(erasure, "reachable_set", recorded)
        argv = ["demo-erasure", "--p-num", "1", "--p-den", "2", "--index-range", "2"]
        assert cli.main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(report["artifacts"]["game1_states"]) == 4
        assert len(made) == 32
        assert [i for i, s in enumerate(made) if "states" in vars(s)] == [0, 1]

    def test_degenerate_p_exit_2(self):
        for num, den in [(1, 1), (0, 2), (3, 2)]:
            proc = run_cli("demo-erasure", "--p-num", str(num), "--p-den", str(den))
            assert proc.returncode == 2


class TestCanon:
    def make_quad_file(self, tmp_path, amplitudes, event):
        state = StateVector(np.asarray(amplitudes, dtype=complex))
        obs = spectral_decompose(np.diag([1.0, -1.0]).astype(complex))
        q = MeasurementQuadruple(state, obs, event)
        path = tmp_path / "quad.json"
        path.write_text(canonical_dumps(quadruple_to_json(q)))
        return path

    def test_half_weight_twelve_digits(self, tmp_path):
        path = self.make_quad_file(
            tmp_path, np.array([1, 1]) / np.sqrt(2), frozenset({1.0})
        )
        proc = run_cli("canon", "--quad", str(path))
        assert proc.returncode == 0
        report = json.loads(proc.stdout)
        assert report["artifacts"]["c"] == "0.707106781187"
        assert report["artifacts"]["d"] == "0.707106781187"

    def test_empty_event(self, tmp_path):
        path = self.make_quad_file(tmp_path, [1.0, 0.0], frozenset())
        proc = run_cli("canon", "--quad", str(path))
        report = json.loads(proc.stdout)
        assert report["artifacts"]["weight"] == "0"
        assert report["artifacts"]["c"] == "0"
        assert report["artifacts"]["d"] == "1"

    def test_equivalent_quadruples_identical_output(self, tmp_path):
        # Same event weight through different dimensions: byte-identical
        # canonical artifacts.
        p1 = self.make_quad_file(
            tmp_path, np.array([1, 1]) / np.sqrt(2), frozenset({1.0})
        )
        out1 = run_cli("canon", "--quad", str(p1))
        state = StateVector(np.array([np.sqrt(0.5), 0.5, 0.5], dtype=complex))
        obs = spectral_decompose(np.diag([1.0, 2.0, 3.0]).astype(complex))
        q2 = MeasurementQuadruple(state, obs, frozenset({1.0}))
        p2 = tmp_path / "quad2.json"
        p2.write_text(canonical_dumps(quadruple_to_json(q2)))
        out2 = run_cli("canon", "--quad", str(p2))
        a1 = json.loads(out1.stdout)["artifacts"]
        a2 = json.loads(out2.stdout)["artifacts"]
        assert a1["canonical_quadruple"] == a2["canonical_quadruple"]
        assert (a1["weight"], a1["c"], a1["d"]) == (a2["weight"], a2["c"], a2["d"])

    def test_malformed_quad_exit_2(self, tmp_path):
        path = tmp_path / "quad.json"
        path.write_text('{"schema": "v1"}')
        proc = run_cli("canon", "--quad", str(path))
        assert proc.returncode == 2

    def test_numeric_policy_flag(self, tmp_path):
        path = self.make_quad_file(
            tmp_path, np.array([1, 1]) / np.sqrt(2), frozenset({1.0})
        )
        policy = tmp_path / "policy.json"
        policy.write_text('{"projector_tol": 1e-8}')
        proc = run_cli(
            "canon", "--quad", str(path), "--numeric-policy", str(policy)
        )
        assert proc.returncode == 0
        bad_policy = tmp_path / "bad_policy.json"
        bad_policy.write_text('{"unknown_knob": 1}')
        proc = run_cli(
            "canon", "--quad", str(path), "--numeric-policy", str(bad_policy)
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d.update(event=[None]),
            lambda d: d["state"]["components"].__setitem__(0, [0.6, None]),
            lambda d: d["state"].update(dim=None),
            lambda d: d["observable"]["spectral_pairs"][0].update(eigenvalue=None),
            lambda d: d["observable"]["spectral_pairs"][0].update(projector=[1.0, 0.0]),
        ],
        ids=["event", "state-component", "state-dim", "eigenvalue", "projector-row"],
    )
    def test_malformed_number_exit_2(self, tmp_path, edit):
        path = self.make_quad_file(tmp_path, [0.6, 0.8], frozenset({1.0}))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        proc = run_cli("canon", "--quad", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "policy", ['{"norm_tol": "nan", "projector_tol": "nan"}', '{"norm_tol": -1}']
    )
    def test_non_positive_or_nan_policy_exit_2(self, tmp_path, policy):
        # A state with squared norm 9 is rejected under the default policy;
        # a NaN tolerance would make every "> tol" test false and pass it.
        path = self.make_quad_file(tmp_path, [1.0, 0.0], frozenset({1.0}))
        doc = json.loads(path.read_text())
        doc["state"]["components"] = [[3.0, 0.0], [0.0, 0.0]]
        path.write_text(json.dumps(doc))
        assert run_cli("canon", "--quad", str(path)).returncode == 2
        policy_path = tmp_path / "policy.json"
        policy_path.write_text(policy)
        proc = run_cli("canon", "--quad", str(path), "--numeric-policy", str(policy_path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "finite and positive" in proc.stderr

    @pytest.mark.parametrize("tol", [1, 2])
    def test_eigenvalue_tol_of_one_or_more_exit_2(self, tmp_path, tol):
        # Eigenvalues 0, 5, 10 are separated under either tolerance, but the
        # normal form's indicator values 0 and 1 would merge into one.
        state = StateVector(np.array([0.6, 0.0, 0.8], dtype=complex))
        obs = spectral_decompose(np.diag([0.0, 5.0, 10.0]).astype(complex))
        quad = tmp_path / "quad.json"
        quad.write_text(canonical_dumps(
            quadruple_to_json(MeasurementQuadruple(state, obs, frozenset({0.0})))
        ))
        assert run_cli("canon", "--quad", str(quad)).returncode == 0
        policy = tmp_path / "policy.json"
        policy.write_text(json.dumps({"eigenvalue_tol": tol}))
        proc = run_cli("canon", "--quad", str(quad), "--numeric-policy", str(policy))
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error:") and "eigenvalue_tol" in line

    @pytest.mark.parametrize(
        "edit",
        [
            lambda d: d["state"]["components"].__setitem__(0, [1e308, 0.0]),
            lambda d: d["observable"]["spectral_pairs"][0]["projector"][0]
            .__setitem__(0, [1e308, 0.0]),
        ],
        ids=["state-component", "projector-entry"],
    )
    def test_huge_entry_exit_2_with_one_error_line(self, tmp_path, edit):
        path = self.make_quad_file(tmp_path, [0.6, 0.8], frozenset({1.0}))
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        proc = run_cli("canon", "--quad", str(path))
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.splitlines()
        assert line.startswith("error:")

    def test_normal_form_computed_once(self, monkeypatch, capsys, tmp_path):
        from born_kernel import cli, neutrality

        calls = []
        real = neutrality.canonical_form

        def counted(q):
            calls.append(q)
            return real(q)

        monkeypatch.setattr(neutrality, "canonical_form", counted)
        monkeypatch.setattr(cli, "canonical_form", counted, raising=False)
        path = self.make_quad_file(tmp_path, [0.6, 0.8], frozenset({1.0}))
        assert cli.main(["canon", "--quad", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["artifacts"]["c"] == "0.6"
        assert len(calls) == 1


class TestDeterministicReports:
    def test_byte_identical_across_runs(self, rich_files, tmp_path):
        family, ordering = rich_files
        quad = TestCanon().make_quad_file(
            tmp_path, np.array([1, 1]) / np.sqrt(2), frozenset({1.0})
        )
        commands = [
            ("check", "--family", str(family), "--ordering", str(ordering)),
            (
                "derive", "--family", str(family), "--ordering", str(ordering),
                "-K", "4", "--out", str(tmp_path / "pr.json"),
            ),
            ("demo-erasure", "--p-num", "3", "--p-den", "16"),
            ("canon", "--quad", str(quad)),
            (
                "gen-rich", "-K", "3", "--max-outcomes", "2",
                "--out", str(tmp_path / "fam3.json"),
            ),
        ]
        for cmd in commands:
            first = run_cli(*cmd)
            second = run_cli(*cmd)
            assert first.returncode == second.returncode, cmd
            assert first.stdout == second.stdout, cmd

    def test_written_files_byte_identical(self, rich_files, tmp_path):
        family, ordering = rich_files
        out1, out2 = tmp_path / "pr1.json", tmp_path / "pr2.json"
        for out in (out1, out2):
            assert (
                run_cli(
                    "derive", "--family", str(family), "--ordering",
                    str(ordering), "-K", "4", "--out", str(out),
                ).returncode
                == 0
            )
        assert out1.read_bytes() == out2.read_bytes()


QUANTUM_HALF = ("born_kernel.quantum", "born_kernel.neutrality", "born_kernel.erasure")


def run_fresh(script: str) -> list[str]:
    """The stderr lines of ``script`` run in a new interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", script], text=True, capture_output=True, check=False,
        env=subprocess_env(),
    )
    return proc.stderr.splitlines()


@pytest.mark.parametrize(
    "case", ["check-v2", "check-control", "check-v1", "derive", "gen-rich", "gen-rich-cap"]
)
def test_cli_runs_without_numpy_ma(tmp_path, case):
    """numpy.ma is about 1 MB and 8-13 ms of import, and `np.unique`
    imports it on its first call: no command, passing or failing, reads
    its witnesses or ranks through it.  Nor does `check`, `derive` or
    `gen-rich` load the quantum half of the package."""
    family = generate_rich_family(4, 4)
    fam_path = tmp_path / "family.json"
    fam_path.write_text(canonical_dumps(family_to_json(family)))
    ordering = induced_ordering(family)
    docs = {
        "check-v2": tiers_to_json(ordering),
        "check-control": tiers_to_json(outcome_count_ordering(family)),
        "check-v1": ordering_to_json(ordering),
        "derive": tiers_to_json(ordering),
    }
    ord_path = tmp_path / "ordering.json"
    if case.startswith("gen-rich"):
        K = "12" if case == "gen-rich-cap" else "4"
        argv = ["gen-rich", "-K", K, "--max-outcomes", K, "--out", str(tmp_path / "gen.json")]
    else:
        ord_path.write_text(canonical_dumps(docs[case]))
        argv = [case.split("-")[0], "--family", str(fam_path), "--ordering", str(ord_path)]
    if case == "derive":
        argv += ["-K", "4", "--out", str(tmp_path / "pr.json")]
    script = (
        "import sys\n"
        "from born_kernel import cli\n"
        f"rc = cli.main({argv!r})\n"
        "print(rc, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
        f"print([m for m in {QUANTUM_HALF!r} if m in sys.modules], file=sys.stderr)\n"
    )
    rc = 1 if case in ("check-control", "gen-rich-cap") else 0
    assert run_fresh(script)[-2:] == [f"{rc} False", "[]"]


def test_bare_import_loads_no_submodule():
    """Exports resolve on first use, so the package alone loads none of its modules."""
    script = (
        "import sys\n"
        "import born_kernel\n"
        "print(sorted(m for m in sys.modules if m.startswith('born_kernel.')), file=sys.stderr)\n"
    )
    assert run_fresh(script)[-1:] == ["[]"]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_read_json_pauses_the_collector_and_restores_it(tmp_path, monkeypatch, enabled):
    """The collector is off while the document is parsed and is left as the
    caller had it, after a good document and after an invalid one."""
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"a": [[1.0, 0.0]]}')
    bad.write_text('{"a": [')
    seen, loads = [], json.loads

    def recording_loads(text):
        seen.append(gc.isenabled())
        return loads(text)

    monkeypatch.setattr(cli.json, "loads", recording_loads)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert _read_json(str(good)) == (good.read_bytes(), {"a": [[1.0, 0.0]]})
        assert gc.isenabled() is enabled
        with pytest.raises(InputError, match="not valid UTF-8 JSON"):
            _read_json(str(bad))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False, False]


@pytest.mark.parametrize("text", ["[" * 100_000 + "]" * 100_000, "1" * 5_000],
                         ids=["nested-100000-deep", "int-of-5000-digits"])
@pytest.mark.parametrize("command", ["check", "derive", "canon --quad", "canon --numeric-policy"])
def test_unparsable_json_exits_2_with_one_error_line(tmp_path, capsys, command, text):
    """A document too deep for the parser, or an integer literal past
    Python's 4,300-digit conversion limit, is bad input: exit 2, not a
    traceback."""
    bad, family = tmp_path / "bad.json", tmp_path / "family.json"
    bad.write_text(text)
    family.write_text(canonical_dumps(family_to_json(generate_rich_family(2, 2))))
    quad = TestCanon().make_quad_file(tmp_path, [0.6, 0.8], frozenset({1.0}))
    argv = {
        "check": ["check", "--family", str(bad), "--ordering", str(bad)],
        "derive": ["derive", "-K", "2", "--family", str(family), "--ordering", str(bad),
                   "--out", str(tmp_path / "assignment.json")],
        "canon --quad": ["canon", "--quad", str(bad)],
        "canon --numeric-policy": ["canon", "--quad", str(quad), "--numeric-policy", str(bad)],
    }[command]
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {bad}: not valid UTF-8 JSON")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["gen-rich", "-K", "0", "--max-outcomes", "3", "--out", "fam.json"],
         "K and max outcomes must be positive"),
        (["gen-rich", "-K", "3", "--max-outcomes", "0", "--out", "fam.json"],
         "K and max outcomes must be positive"),
        (["demo-erasure", "--p-num", "1", "--p-den", "2", "--index-range", "0"],
         "index range must be at least 1"),
    ],
    ids=["gen-rich-K-0", "gen-rich-max-outcomes-0", "demo-erasure-index-range-0"],
)
def test_nonpositive_sizes_exit_2_with_one_error_line(tmp_path, monkeypatch, capsys, argv,
                                                      message):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"
    assert not (tmp_path / "fam.json").exists()


class BrokenPipeWriter:
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass


@pytest.mark.parametrize(
    "argv",
    [
        ["demo-erasure", "--p-num", "1", "--p-den", "2"],
        ["demo-erasure", "--p-num", "1", "--p-den", "2", "--text"],
        ["demo-erasure", "--p-num", "1", "--p-den", "2", "--index-range", "101"],
    ],
    ids=["json", "text", "json-domain-failure"],
)
def test_a_failing_stdout_write_exits_2_with_one_error_line(monkeypatch, capsys, argv):
    monkeypatch.setattr(sys, "stdout", BrokenPipeWriter())
    assert cli.main(argv) == 2
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith("error:") and "Broken pipe" in line
