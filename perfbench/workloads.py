"""The four workloads: one round of operations each, timed and checked.

A round is a fixed list of operations.  Each operation times only its
calls into born_kernel (a CLI subprocess, or library calls), then checks
the results against `oracle` outside the timed region.  Every run repeats
whole rounds, so the share of failed operations is the same in every run.

Two operations exercise known faults of the program and fail today; they
carry a `fault` name and are kept out of the verdict median:

* cli-pipeline, `gen-rich-size-cap`: `gen-rich -K 12 --max-outcomes 12`
  must exit 1 with a size-cap report on stdout, but dies with an uncaught
  ValueError from induced_ordering and prints nothing.
* small-families, `incomplete-relation`: a relation with both directions
  cleared between {x}|a and {p}|b is not total, yet run_all_checks
  reports all four axioms satisfied.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

import born_kernel.cli as bk_cli
import born_kernel.erasure as bk_erasure
import born_kernel.formats as bk_formats
import born_kernel.neutrality as bk_neutrality
import born_kernel.ordering as bk_ordering
import born_kernel.quantum as bk_quantum
import born_kernel.representation as bk_representation

import oracle

SUBPROCESS_TIMEOUT_S = 170
QUANTUM_TOL = 1e-9
AXIOMS = ("Transitivity", "Separation", "Dominance", "Equivalence")


@dataclass
class Outcome:
    """One operation: its timed program work and its independent check."""

    name: str
    seconds: float
    ok: bool
    verdict: object  # what the program concluded; traced and untraced runs must agree
    why: str = ""
    fault: str | None = None  # a known program fault this operation exercises
    in_median: bool = True  # counted in verdict_p50_s (not for faults or controls)

    def __post_init__(self) -> None:
        if self.fault:
            self.in_median = False


@dataclass
class Context:
    """What a round needs: inputs, a work directory and how to run the CLI."""

    plan: dict
    inputs: Path  # what the set-up wrote
    work: Path  # where CLI commands write
    env: dict
    in_process: bool = False  # run born_kernel.cli.main in this process
    tracer: object = None
    cli_seconds: dict = field(default_factory=dict)  # subcommand -> durations
    verified_files: set = field(default_factory=set)  # digests already checked

    @contextlib.contextmanager
    def timed(self, name: str, watch: list):
        """Time program work; under tracing, also open the operation's root span."""
        span = self.tracer.span("op", op=name) if self.tracer else contextlib.nullcontext()
        with span:
            start = time.perf_counter()
            try:
                yield
            finally:
                watch.append(time.perf_counter() - start)


@dataclass
class CliResult:
    rc: int
    stdout: bytes
    stderr: str
    seconds: float
    counts: dict


def run_cli(ctx: Context, name: str, argv: list[str]) -> CliResult:
    """One born-kernel command, as a subprocess or in this process."""
    watch: list[float] = []
    if not ctx.in_process:
        with ctx.timed(name, watch):
            proc = subprocess.run(
                [sys.executable, "-m", "born_kernel", *argv],
                env=ctx.env, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S,
            )
        ctx.cli_seconds.setdefault(name, []).append(watch[0])
        return CliResult(proc.returncode, proc.stdout, proc.stderr.decode(errors="replace"),
                         watch[0], {})
    out, err = io.StringIO(), io.StringIO()
    with ctx.timed(name, watch):
        span = (ctx.tracer.span("cli." + argv[0].replace("-", "_")) if ctx.tracer
                else contextlib.nullcontext({"counts": {}}))
        with span as record, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = bk_cli.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # the process boundary: an uncaught error exits 1
                traceback.print_exc(file=err)
                rc = 1
    return CliResult(rc, out.getvalue().encode(), err.getvalue(), watch[0], record["counts"])


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _event_key(doc: dict) -> tuple:
    return (doc["measurement"], frozenset(doc["event"]))


def _keys(refs) -> list[tuple]:
    return [(r.measurement_id, r.event) for r in refs]


def build_family(spec: dict):
    return bk_ordering.MeasurementFamily(tuple(
        bk_ordering.WeightedMeasurement(
            m["id"], tuple(m["outcomes"]),
            tuple(Fraction(n, m["den"]) for n in m["nums"]),
        )
        for m in spec["measurements"]
    ))


def with_prefix(spec: dict, prefix: str) -> dict:
    return dict(spec, measurements=[dict(m, id=prefix + m["id"]) for m in spec["measurements"]])


def _report_summary(reports) -> tuple:
    return tuple((r.axiom, r.satisfied, len(r.witnesses)) for r in reports)


def _axioms_missing(names) -> str:
    missing = set(AXIOMS) - set(names)
    return f"no verdict for {sorted(missing)}" if missing else ""


def _all_pass(reports) -> str:
    """Every check passes with no witnesses; checks beyond the four may be added."""
    bad = [r.axiom for r in reports if not r.satisfied or r.witnesses]
    return _first(_axioms_missing(r.axiom for r in reports),
                  f"axioms reported violated: {bad}" if bad else "")


def _ordering_mismatch(ordering, table) -> str:
    keys = _keys(ordering.refs)
    if len(keys) != len(table) or set(keys) != set(table):
        return "ordering event space differs from the family's events"
    if not np.array_equal(ordering.matrix, oracle.expected_matrix(table, keys)):
        return "ordering differs from the weight comparison"
    return ""


def _values_mismatch(assignment, ordering, weights) -> str:
    for ref in ordering.refs:
        if assignment.value(ref) != weights[(ref.measurement_id, ref.event)]:
            return f"value of {ref.label()} is {assignment.value(ref)}, not its weight"
    return ""


def _first(*reasons: str) -> str:
    return next((r for r in reasons if r), "")


def guarded(op, ctx: Context, *args) -> Outcome:
    """Run one operation; an exception it raises fails that operation, not the run.

    Every operation takes its name as its last argument.
    """
    try:
        return op(ctx, *args)
    except Exception as exc:  # a program fault is reported as a failed operation
        return Outcome(args[-1], 0.0, False, ("raised", repr(exc)),
                       traceback.format_exc(limit=-3))


# -- cli-pipeline ---------------------------------------------------------

def cli_outcome(name: str, res: CliResult, check, *args, fault: str | None = None) -> Outcome:
    """Outcome of one CLI command; output the check cannot read fails it."""
    try:
        why = check(res, *args)
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        why = f"unreadable output: {exc!r}"
    return Outcome(name, res.seconds, not why, (res.rc, _digest(res.stdout)), why, fault=fault)


def _exit_ok(res: CliResult) -> str:
    return "" if res.rc == 0 else f"exit {res.rc}: {res.stderr[-300:]}"


def _verdicts(res: CliResult) -> list[tuple]:
    return [(v["check"], v["result"], v["witness_count"]) for v in json.loads(res.stdout)["verdicts"]]


def _ordering_file_matrix(family_raw: bytes, doc: dict, keys: list) -> np.ndarray:
    """The relation an ordering file states, over `keys`.

    A v1 pair list is read here.  Any other layout is decoded by the
    program's own reader, and only the relation it yields is checked.
    """
    index = {k: i for i, k in enumerate(keys)}
    found = np.zeros((len(keys), len(keys)), dtype=bool)
    if "pairs" in doc:
        for a, b in doc["pairs"]:
            found[index[_event_key(a)], index[_event_key(b)]] = True
        return found
    family = bk_formats.family_from_json(json.loads(family_raw))
    ordering = bk_formats.ordering_from_json(doc, family)
    rows = [index[k] for k in _keys(ordering.refs)]
    found[np.ix_(rows, rows)] = ordering.matrix
    return found


def _check_ordering_file(ctx: Context, family_raw: bytes, ordering_raw: bytes,
                         table: dict) -> str:
    key = _digest(family_raw + ordering_raw)
    if key in ctx.verified_files:
        return ""
    doc = json.loads(ordering_raw)
    if doc.get("family_digest") != _digest(family_raw):
        return "ordering file's family_digest is not the family file's sha256"
    keys = list(table)
    found = _ordering_file_matrix(family_raw, doc, keys)
    if not np.array_equal(found, oracle.expected_matrix(table, keys)):
        return "ordering file differs from the weight comparison"
    ctx.verified_files.add(key)
    return ""


def _check_family_file(family_raw: bytes, spec: dict) -> str:
    doc = json.loads(family_raw)
    got = {m["id"]: [Fraction(int(w["num"]), int(w["den"])) for w in m["weights"]]
           for m in doc["measurements"]}
    want = {m["id"]: [Fraction(n, m["den"]) for n in m["nums"]] for m in spec["measurements"]}
    return "" if got == want else "family file is not the rich family"


def _gen_rich_ok(res: CliResult, ctx: Context, spec: dict, family: Path, ordering: Path) -> str:
    if res.rc != 0:
        return _exit_ok(res)
    family_raw, ordering_raw = family.read_bytes(), ordering.read_bytes()
    res.counts["ordering_file_mb"] = len(ordering_raw) / 1e6
    report = json.loads(res.stdout)
    return _first(
        "" if _verdicts(res) == [("size-cap", "pass", 0)] else "size-cap verdict is not pass",
        "" if report["artifacts"]["measurements"] == len(spec["measurements"])
        else "wrong measurement count",
        _check_family_file(family_raw, spec),
        _check_ordering_file(ctx, family_raw, ordering_raw, oracle.event_table(spec)),
    )


def _check_ok(res: CliResult, family: Path, ordering: Path) -> str:
    if res.rc != 0:
        return _exit_ok(res)
    verdicts = _verdicts(res)
    digest = _digest(family.read_bytes() + ordering.read_bytes())
    return _first(
        _axioms_missing(v[0] for v in verdicts),
        "" if all(v[1:] == ("pass", 0) for v in verdicts) else f"verdicts {verdicts}",
        "" if json.loads(res.stdout)["inputs_digest"] == digest
        else "inputs_digest is not the sha256 of the inputs",
    )


def _derive_ok(res: CliResult, family: Path, assignment: Path, weights: dict) -> str:
    if res.rc != 0:
        return _exit_ok(res)
    if _verdicts(res) != [("representation", "pass", 0)]:
        return "representation verdict is not a clean pass"
    doc = json.loads(assignment.read_bytes())
    got = {_event_key(v): Fraction(int(v["probability"]["num"]), int(v["probability"]["den"]))
           for v in doc["values"]}
    return _first(
        "" if doc["family_digest"] == _digest(family.read_bytes()) else "assignment family_digest",
        "" if got == weights else "assignment is not the weights k/K",
    )


def _size_cap_report_ok(res: CliResult) -> str:
    ok = res.rc == 1 and _verdicts(res) == [("size-cap", "fail", 0)]
    return "" if ok else f"exit {res.rc}, no size-cap report on stdout"


def cli_round(ctx: Context, r: int) -> list[Outcome]:
    """gen-rich -> check -> derive at K, then the size-cap probe."""
    plan = ctx.plan
    K, spec, big = str(plan["K"]), plan["expected"], str(plan["cap_probe_K"])
    family, ordering = ctx.work / "family.json", ctx.work / "family.ordering.json"
    assignment = ctx.work / "assignment.json"
    inputs = ["--family", str(family), "--ordering", str(ordering)]
    out = []
    res = run_cli(ctx, "gen-rich", ["gen-rich", "-K", K, "--max-outcomes", K, "--out", str(family)])
    out.append(cli_outcome("gen-rich", res, _gen_rich_ok, ctx, spec, family, ordering))
    res = run_cli(ctx, "check", ["check", *inputs])
    out.append(cli_outcome("check", res, _check_ok, family, ordering))
    res = run_cli(ctx, "derive", ["derive", *inputs, "-K", K, "--out", str(assignment)])
    out.append(cli_outcome("derive", res, _derive_ok, family, assignment,
                           oracle.event_weights(spec)))
    res = run_cli(ctx, "gen-rich-size-cap", ["gen-rich", "-K", big, "--max-outcomes", big,
                                             "--out", str(ctx.work / "capped.json")])
    out.append(cli_outcome("gen-rich-size-cap", res, _size_cap_report_ok,
                           fault="gen-rich-size-cap"))
    return out


# -- rich-kernel ----------------------------------------------------------

def _rich_family(ctx: Context, spec: dict, K: int, name: str) -> Outcome:
    watch: list[float] = []
    with ctx.timed(name, watch):
        family = build_family(spec)
        ordering = bk_ordering.induced_ordering(family)
        reports = bk_ordering.run_all_checks(ordering)
        assignment = bk_representation.derive_representation(ordering, K)
        ok, witnesses = bk_representation.verify_representation(assignment, ordering)
        nulls = bk_ordering.null_events(ordering)
    table = oracle.event_table(spec)
    zero = {k for k, (w, _) in table.items() if w == 0}
    why = _first(
        _all_pass(reports),
        _ordering_mismatch(ordering, table),
        _values_mismatch(assignment, ordering, oracle.event_weights(spec)),
        "" if ok and not witnesses else f"verify_representation: {len(witnesses)} witnesses",
        "" if set(_keys(nulls)) == zero else "null events are not the zero-weight events",
    )
    verdict = (_report_summary(reports), ok, len(witnesses), len(nulls))
    return Outcome(name, watch[0], not why, verdict, why)


def _count_rule_control(ctx: Context, spec: dict, name: str) -> Outcome:
    watch: list[float] = []
    with ctx.timed(name, watch):
        family = build_family(spec)
        ordering = bk_ordering.outcome_count_ordering(family)
        reports = bk_ordering.run_all_checks(ordering)
    expected = oracle.count_rule_witnesses(oracle.event_table(spec))
    got = _report_summary(reports)
    # The rule is total and transitive: only Equivalence fails.
    want = [(a, a != "Equivalence", expected if a == "Equivalence" else 0) for a, _, _ in got]
    why = _first(_axioms_missing(a for a, _, _ in got),
                 "" if list(got) == want else f"count-rule reports {got}, expected {want}")
    # A tenth of a family's cost: kept out of the verdict median.
    return Outcome(name, watch[0], not why, got, why, in_median=False)


def rich_round(ctx: Context, r: int) -> list[Outcome]:
    """One K=8 family, a different one each round, and the K=7 control."""
    families = ctx.plan["families"]
    spec = families[r % len(families)]
    return [
        guarded(_rich_family, ctx, with_prefix(spec, f"r{r}."), spec["grid"], spec["name"]),
        guarded(_count_rule_control, ctx, with_prefix(ctx.plan["control"], f"r{r}."),
                "count-rule"),
    ]


# -- quantum-spectra ------------------------------------------------------

def _spectrum_case(ctx: Context, case: dict, name: str) -> Outcome:
    levels = [float(x) for x in case["levels"]]
    labels = tuple(f"x{j}" for j in range(len(levels)))
    watch: list[float] = []
    with ctx.timed(name, watch):
        obs = bk_quantum.spectral_decompose(case["matrix"])
        state = bk_quantum.StateVector(case["psi"])
        model = bk_quantum.MeasurementModel(name, state, obs, labels, dict(zip(labels, levels)))
        weights = [bk_quantum.weight(model, [labels[j] for j in ev]) for ev in case["events"]]
        quad = bk_neutrality.MeasurementQuadruple(
            state, obs, frozenset(levels[j] for j in case["events"][0]))
        form = bk_neutrality.canonical_form(quad)
    expected = [oracle.quantum_weight(case["basis"], case["eigvals"], case["psi"],
                                      [levels[j] for j in ev]) for ev in case["events"]]
    eigenvalues = sorted(obs.eigenvalues)
    why = _first(
        "" if len(eigenvalues) == len(levels)
        and np.allclose(eigenvalues, levels, rtol=0, atol=QUANTUM_TOL)
        else f"{len(eigenvalues)} eigenvalues, expected {len(levels)}",
        "" if np.allclose(weights, expected, rtol=0, atol=QUANTUM_TOL)
        else f"weights off by {np.max(np.abs(np.subtract(weights, expected))):.3e}",
        "" if abs(form.weight_value - expected[0]) <= QUANTUM_TOL
        and abs(form.c ** 2 - expected[0]) <= QUANTUM_TOL else "canonical form weight",
    )
    verdict = (len(eigenvalues), tuple(round(w, 9) for w in weights), round(form.c, 9))
    return Outcome(name, watch[0], not why, verdict, why)


def _canon_ok(res: CliResult, expected: float) -> str:
    if res.rc != 0:
        return _exit_ok(res)
    artifacts = json.loads(res.stdout)["artifacts"]
    w, c = float(artifacts["weight"]), float(artifacts["c"])
    return _first(
        "" if _verdicts(res) == [("canonicalize", "pass", 0)] else "canonicalize verdict",
        "" if abs(w - expected) <= QUANTUM_TOL else f"canon weight {w}, expected {expected}",
        "" if abs(c * c - w) <= QUANTUM_TOL else "canon c^2 differs from its weight",
    )


def _canon_case(ctx: Context, case: dict, name: str) -> Outcome:
    res = run_cli(ctx, "canon", ["canon", "--quad", str(ctx.inputs / case["quad"])])
    levels = [float(case["levels"][j]) for j in case["events"][0]]
    expected = oracle.quantum_weight(case["basis"], case["eigvals"], case["psi"], levels)
    return cli_outcome(name, res, _canon_ok, expected)


def quantum_round(ctx: Context, r: int) -> list[Outcome]:
    cases = ctx.plan["cases"]
    out = [guarded(_spectrum_case, ctx, case, f"matrix{i}") for i, case in enumerate(cases)]
    out += [_canon_case(ctx, case, f"canon{i}") for i, case in enumerate(cases) if "quad" in case]
    return out


# -- small-families -------------------------------------------------------

def _random_family(ctx: Context, spec: dict, name: str) -> Outcome:
    singletons = {(m["id"], o): Fraction(n, m["den"])
                  for m in spec["measurements"] for o, n in zip(m["outcomes"], m["nums"])}
    watch: list[float] = []
    with ctx.timed(name, watch):
        family = build_family(spec)
        ordering = bk_ordering.induced_ordering(family)
        reports = bk_ordering.run_all_checks(ordering)
        assignment = bk_representation.ProbabilityAssignment.from_singletons(family, singletons)
        ok, witnesses = bk_representation.verify_representation(assignment, ordering)
        control = bk_ordering.check_equivalence(bk_ordering.outcome_count_ordering(family))
        nulls = bk_ordering.null_events(ordering)
    table = oracle.event_table(spec)
    zero = {k for k, (w, _) in table.items() if w == 0}
    expected = oracle.count_rule_witnesses(table)
    why = _first(
        _all_pass(reports),
        _ordering_mismatch(ordering, table),
        "" if ok and not witnesses else f"verify_representation: {len(witnesses)} witnesses",
        "" if len(control.witnesses) == expected and control.satisfied == (expected == 0)
        else f"count rule: {len(control.witnesses)} witnesses, expected {expected}",
        "" if set(_keys(nulls)) == zero else "null events are not the zero-weight events",
    )
    verdict = (_report_summary(reports), ok, len(control.witnesses), len(nulls))
    return Outcome(name, watch[0], not why, verdict, why)


def _grid_family(ctx: Context, spec: dict, name: str) -> Outcome:
    K = spec["grid"]
    watch: list[float] = []
    with ctx.timed(name, watch):
        family = build_family(spec)
        ordering = bk_ordering.induced_ordering(family)
        reports = bk_ordering.run_all_checks(ordering)
        assignment = bk_representation.derive_representation(ordering, K)
        ok, witnesses = bk_representation.verify_representation(assignment, ordering)
        found = bk_representation.uniqueness_search(ordering, K)
    weights = oracle.event_weights(spec)
    why = _first(
        _all_pass(reports),
        _ordering_mismatch(ordering, oracle.event_table(spec)),
        _values_mismatch(assignment, ordering, weights),
        "" if ok and not witnesses else f"verify_representation: {len(witnesses)} witnesses",
        "" if len(found) == 1 else f"uniqueness_search found {len(found)} assignments",
        _values_mismatch(found[0], ordering, weights) if len(found) == 1 else "",
    )
    verdict = (_report_summary(reports), ok, len(witnesses), len(found))
    return Outcome(name, watch[0], not why, verdict, why)


def _erasure_sweep(ctx: Context, R: int, den: int, name: str) -> Outcome:
    """Both games' reachable sets at index range R for p = k/den, k = 1..den-1.

    One sweep is one verdict: single comparisons cost a millisecond and
    would otherwise outnumber the families in the verdict median.
    """
    reward_up = bk_erasure.GameSpec(frozenset({"up"}))
    reward_down = bk_erasure.GameSpec(frozenset({"down"}))
    results = []
    watch: list[float] = []
    with ctx.timed(name, watch):
        for k in range(1, den):
            prep = [("up", Fraction(k, den)), ("down", 1 - Fraction(k, den))]
            first = bk_erasure.reachable_set(prep, reward_up, R)
            second = bk_erasure.reachable_set(prep, reward_down, R)
            results.append((bk_erasure.sets_equal(first, second), len(first), len(second)))
    count = oracle.erasure_state_count(R)
    expected = [(oracle.erasure_sets_equal(k, den), count, count) for k in range(1, den)]
    why = "" if results == expected else f"(equal, states, states) per p: {results}"
    return Outcome(name, watch[0], not why, tuple(results), why)


def _incomplete_relation(ctx: Context, spec: dict, name: str) -> Outcome:
    watch: list[float] = []
    with ctx.timed(name, watch):
        family = build_family(spec)
        induced = bk_ordering.induced_ordering(family)
        i, j = (induced.index[bk_ordering.EventRef(mid, frozenset(ev))]
                for mid, ev in spec["cleared"])
        matrix = induced.matrix.copy()
        matrix[i, j] = matrix[j, i] = False
        ordering = bk_ordering.LikelihoodOrdering(family, induced.refs, matrix)
        reports = bk_ordering.run_all_checks(ordering)
    ok = not all(r.satisfied for r in reports)
    return Outcome(name, watch[0], ok, _report_summary(reports),
                   "" if ok else "a relation that is not total passes all four checks",
                   fault="incomplete-relation")


def small_round(ctx: Context, r: int) -> list[Outcome]:
    plan = ctx.plan
    prefix = f"r{r}."
    out = [guarded(_random_family, ctx, with_prefix(s, prefix), s["name"])
           for s in plan["random"]]
    out += [guarded(_grid_family, ctx, with_prefix(s, prefix), s["name"]) for s in plan["grid"]]
    sweep = plan["erasure"]
    out += [guarded(_erasure_sweep, ctx, R, sweep["p_den"], f"erasure-R{R}")
            for R in sweep["ranges"]]
    out.append(guarded(_incomplete_relation, ctx, plan["totality"], "incomplete-relation"))
    return out


ROUNDS = {
    "cli-pipeline": cli_round,
    "rich-kernel": rich_round,
    "quantum-spectra": quantum_round,
    "small-families": small_round,
}
