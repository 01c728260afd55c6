"""The rank test for total preorders, the stored ranks, and the lazy
witness sequences, against the materialized code they replace.

`LikelihoodOrdering.ranks` decides "is a total preorder".  An ordering
built from ranks keeps them; any other matrix is ranked by the rank
test.  Transitivity, Totality and `verify_representation` return at once
when the ranks settle the verdict; otherwise they list or count their
witnesses.  The oracles below are the listing code as it ran on
every relation: the float32 composition cube, the blocked Totality scan,
the whole-matrix comparison of `verify_representation` and the
Equivalence loop over `Fraction` weight groups.

Every check, and `verify_representation`, reports its witnesses as a
`Witnesses` sequence over positions: a position array, or for the pairs
of Equivalence, Totality and `verify_representation` a row source that
counts its rows and lists only those read.  The oracle `_report` builds
the tuple of ref tuples those witnesses stand for, as the checks did
before.  The Separation oracle is the check's old code, and the
Dominance oracle tests every pair of nested events directly.
"""
import ast
import gc
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import born_kernel
import born_kernel.ordering as ordering_module
from born_kernel import (
    AxiomReport,
    EventRef,
    LikelihoodOrdering,
    MeasurementFamily,
    ProbabilityAssignment,
    WeightedMeasurement,
    check_dominance,
    check_equivalence,
    check_separation,
    check_totality,
    check_transitivity,
    derive_representation,
    generate_rich_family,
    induced_ordering,
    null_events,
    outcome_count_ordering,
    replay_witness,
    run_all_checks,
    uniqueness_search,
    verify_representation,
)
from born_kernel.formats import ordering_from_json, ordering_to_json, tiers_to_json
from born_kernel.ordering import (
    _PairRows,
    _from_relation,
    dense_ranks,
    weight_ranks,
    weight_vector,
)
from conftest import order_matrix, own_weights, random_family, whole_matrix_verify


def cube_transitivity(ordering) -> AxiomReport:
    h = ordering.matrix
    reach = (h.astype(np.float32) @ h.astype(np.float32)) > 0
    witnesses = []
    for i, k in zip(*np.nonzero(reach & ~h)):
        j = np.nonzero(h[i, :] & h[:, k])[0][0]
        witnesses.append((int(i), int(j), int(k)))
    return _report(ordering, "Transitivity", witnesses)


def blocked_totality(ordering) -> AxiomReport:
    h = ordering.matrix
    witnesses = []
    for s in range(0, len(h), 256):
        i, j = np.nonzero(~(h[s:s + 256, s:] | h[s:, s:s + 256].T))
        witnesses += [(s + a, s + b) for a, b in zip(i.tolist(), j.tolist()) if a <= b]
    return _report(ordering, "Totality", witnesses)


def null_mask(ordering) -> np.ndarray:
    h = ordering.matrix
    return np.concatenate(
        [h[sl, sl.start] & h[sl.start, sl] for sl in ordering.family.slices.values()]
    )


def listed_separation(ordering) -> AxiomReport:
    null = null_mask(ordering)
    if not null.all():
        return AxiomReport("Separation", True, (), evidence=ordering.refs[int(np.argmin(null))])
    return _report(ordering, "Separation", ((i,) for i in range(len(null))))


def listed_dominance(ordering) -> AxiomReport:
    h, null = ordering.matrix, null_mask(ordering)
    witnesses = []
    for sl in ordering.family.slices.values():
        for f in range(sl.stop - sl.start):
            for e in range(f + 1):
                if e & ~f:
                    continue
                i, j, d = sl.start + e, sl.start + f, sl.start + (f & ~e)
                if not h[j, i] or bool(h[i, j]) != bool(null[d]):
                    witnesses.append((i, j))
    return _report(ordering, "Dominance", witnesses)


def listed_equivalence(ordering) -> AxiomReport:
    groups: dict[Fraction, list[int]] = {}
    for i, w in enumerate(weight_vector(ordering.family)):
        groups.setdefault(w, []).append(i)
    h = ordering.matrix
    witnesses = []
    for idx in groups.values():
        block = h[np.ix_(idx, idx)]
        if block.all():
            continue
        for a, b in zip(*np.nonzero(~block)):
            witnesses.append((idx[int(a)], idx[int(b)]))
    return _report(ordering, "Equivalence", witnesses)


ORACLES = {
    check_transitivity: cube_transitivity,
    check_separation: listed_separation,
    check_dominance: listed_dominance,
    check_equivalence: listed_equivalence,
    check_totality: blocked_totality,
}


def _report(ordering, axiom, witnesses) -> AxiomReport:
    found = tuple(tuple(ordering.refs[i] for i in w) for w in sorted(witnesses))
    return AxiomReport(axiom, satisfied=not found, witnesses=found)


def _ordering(family, matrix) -> LikelihoodOrdering:
    return LikelihoodOrdering(family, family.refs, matrix)


small_families = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(
    lambda sizes: MeasurementFamily(tuple(
        WeightedMeasurement(f"m{i}", tuple(f"o{j}" for j in range(n)), (Fraction(1, n),) * n)
        for i, n in enumerate(sizes)
    ))
)


@st.composite
def relations(draw, family=None):
    """A total preorder from integer scores, as a matrix or as its ranks
    alone, one with an entry flipped, or a random boolean matrix, on a
    small family."""
    family = family or draw(small_families)
    n = family.event_count()
    kind = draw(st.sampled_from(["preorder", "ranks", "flipped", "random"]))
    if kind == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        density = draw(st.sampled_from([0.3, 0.7, 0.95]))
        return _ordering(family, np.random.default_rng(seed).random((n, n)) < density)
    scores = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    if kind == "ranks":
        return _from_relation(family, dense_ranks(scores))
    matrix = order_matrix(scores)
    if kind == "flipped":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrix[i, j] = not matrix[i, j]
    return _ordering(family, matrix)


@settings(max_examples=200, deadline=None)
@given(relations())
def test_checks_match_the_cube_and_the_blocked_scan(ordering):
    is_preorder = ordering.ranks is not None
    transitivity, totality = check_transitivity(ordering), check_totality(ordering)
    assert transitivity == cube_transitivity(ordering)
    assert totality == blocked_totality(ordering)
    assert is_preorder == (transitivity.satisfied and totality.satisfied)


def assert_stands_for(got, want, data, refs):
    """`got` behaves as the tuple `want` under every sequence operation."""
    assert tuple(got) == want and len(got) == len(want)
    assert got == want and want == got and not (got != want)
    assert hash(got) == hash(want)
    a, b = data.draw(st.integers(-3, len(want) + 3)), data.draw(st.integers(-3, len(want) + 3))
    assert got[a:b] == want[a:b] and got[::-1] == want[::-1]
    if want:
        i = data.draw(st.integers(-len(want), len(want) - 1))
        assert got[i] == want[i] and got[-1] == want[-1]
        assert want[i] in got and got.index(want[i]) == want.index(want[i])
    with pytest.raises(IndexError):
        got[len(want)]
    assert (refs[0],) * 4 not in got


@settings(max_examples=200, deadline=None)
@given(relations(), st.data())
def test_witness_sequences_stand_for_the_materialized_tuples(ordering, data):
    for check, oracle in ORACLES.items():
        report, expected = check(ordering), oracle(ordering)
        assert_stands_for(report.witnesses, expected.witnesses, data, ordering.refs)
        assert report == expected and expected == report
        assert hash(report) == hash(expected)


def _outcome(fn, *args):
    """What a call returns, or the type and message of the ValueError it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(small_families, st.data())
def test_rank_orderings_report_as_their_matrix_twins(family, data):
    """Path invariance: an ordering that holds only ranks and the
    three-field ordering on ``r[:, None] >= r`` give every check the same
    report, witnesses and Separation evidence included, and that report
    is the oracle's.  ``null_events`` and ``derive_representation``
    agree too, on the value or on the exception raised."""
    n = family.event_count()
    ranks = dense_ranks(data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n)))
    ordering = _from_relation(family, ranks)
    twin = _ordering(family, ranks[:, None] >= ranks)
    for check, oracle in ORACLES.items():
        report = check(ordering)
        assert report == oracle(twin) and report == check(twin)
    assert null_events(ordering) == null_events(twin)
    K = data.draw(st.sampled_from(sorted({len(m.outcomes) for m in family.measurements})))
    assert _outcome(derive_representation, ordering, K) == _outcome(derive_representation, twin, K)


def test_rank_chain_builds_no_matrix_and_no_ref_list():
    """The kernel's path on a rank ordering reads ranks only: no n x n
    array, and no ``family.refs``."""
    family = generate_rich_family(6, 6)
    ordering = induced_ordering(family)
    assert all(r.satisfied for r in run_all_checks(ordering))
    assignment = derive_representation(ordering, 6)
    assert verify_representation(assignment, ordering)[0]
    assert null_events(ordering) == {EventRef(m.id, ()) for m in family.measurements}
    assert uniqueness_search(ordering, 6) == [assignment]
    assert "matrix" not in vars(ordering)
    assert "refs" not in vars(family)


def test_replay_failed_verify_and_v1_writer_build_no_matrix():
    """Replaying a witness of each axiom, a failing `verify_representation`
    and the v1 writer read a rank ordering through its ranks too; each of
    them used to build its n x n matrix and leave it on the ordering."""
    family = generate_rich_family(4, 2)
    ordering = induced_ordering(family)
    m = family.canonical[0]
    empty, full = EventRef(m.id, ()), EventRef(m.id, m.outcomes)
    replays = {
        "Transitivity": (full, empty, full),
        "Separation": (empty,),
        "Dominance": (empty, full),
        "Equivalence": (empty, full),
        "Totality": (empty, full),
    }
    for axiom, witness in replays.items():
        assert replay_witness(ordering, axiom, witness) == (axiom == "Separation")
        assert "matrix" not in vars(ordering), axiom
    values = dict(own_weights(family).singletons)
    values[("k1-3", "o1")] = values[("k1-3", "o2")] = Fraction(1, 2)
    wrong = ProbabilityAssignment(family, values)
    ok, witnesses = verify_representation(wrong, ordering)
    assert not ok and "matrix" not in vars(ordering)
    doc = ordering_to_json(ordering)
    assert "matrix" not in vars(ordering)
    twin = _ordering(family, ordering.ranks[:, None] >= ordering.ranks)
    assert doc == ordering_to_json(twin)
    assert witnesses == whole_matrix_verify(wrong, twin)[1]


def test_matrix_is_read_only_where_the_relation_is_decided():
    """Outside `LikelihoodOrdering` itself, only `_ge` and the path of
    Transitivity that runs on a relation with no ranks read `.matrix`:
    every other read of the relation asks `_ge`, which picks ranks or
    matrix in one place."""
    readers = set()
    for path in sorted(Path(born_kernel.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr == "matrix":
                    readers.add((path.name, getattr(top, "name", None)))
    assert readers == {
        ("ordering.py", "LikelihoodOrdering"),
        ("ordering.py", "_ge"),
        ("ordering.py", "check_transitivity"),
    }


def test_one_constructor_builds_every_ordering():
    """Only `_from_relation` stores an ordering's fields, through `vars`,
    and only it calls `__new__`: an ordering is built one way."""
    writers, news = set(), set()
    for path in sorted(Path(born_kernel.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(
                    node.value, ast.Call
                ) and getattr(node.value.func, "id", None) == "vars" and (
                    isinstance(node, ast.Subscript) or node.attr == "update"
                ):
                    writers.add((path.name, fn.name))
                if isinstance(node, ast.Attribute) and node.attr == "__new__":
                    news.add((path.name, fn.name))
    assert writers == {("ordering.py", "_from_relation")}
    assert news == {("ordering.py", "_from_relation")}


def test_no_module_calls_np_unique():
    """`np.unique` imports numpy.ma, about 1 MB and 8-13 ms, on its first
    call in a process; no command needs it."""
    calls = [
        (path.name, node.lineno)
        for path in sorted(Path(born_kernel.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "unique"
        and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")
    ]
    assert calls == []


def test_no_true_division_where_weights_are_ranked():
    """Exact weights and values are compared as integers or `Fraction`s;
    a float quotient could merge two close weights."""
    package = Path(born_kernel.__file__).parent
    divisions = [
        (name, node.lineno)
        for name in ("ordering.py", "representation.py")
        for node in ast.walk(ast.parse((package / name).read_text(encoding="utf-8")))
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
    ]
    assert divisions == []


def test_erasure_keys_hold_no_float():
    """Erased states are keyed by exact weights: `erasure.py` rounds
    nothing and imports no `cmath`, so no float key can come back."""
    tree = ast.parse((Path(born_kernel.__file__).parent / "erasure.py").read_text(encoding="utf-8"))
    rounds = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "round"]
    imports = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names] + [
        node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert rounds == [] and "cmath" not in imports


def test_denominators_are_read_by_one_function_per_module():
    """Exact weights are scaled to integer numerators over their least
    common denominator by one helper in `ordering.py`, and every other
    exact-weight computation there reads that form; in
    `representation.py` only the grid precondition reads a denominator."""
    package = Path(born_kernel.__file__).parent
    for name, reader in (("ordering.py", "_scale"), ("representation.py", "_require_grid")):
        tree = ast.parse((package / name).read_text(encoding="utf-8"))
        (function,) = (node for node in ast.walk(tree)
                       if isinstance(node, ast.FunctionDef) and node.name == reader)

        def reads(node):
            return sum(isinstance(n, ast.Attribute) and n.attr == "denominator"
                       for n in ast.walk(node))

        assert reads(tree) == reads(function) > 0, name


def test_derive_reads_values_off_ranks_not_weights():
    """`derive_representation` reads each outcome's value off the uniform
    blocks' ranks: its body reads no weight, numerator or denominator.
    The grid and uniform preconditions stay in `_require_grid` and
    `_find_uniform`."""
    path = Path(born_kernel.__file__).parent / "representation.py"
    derive = next(
        node for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "derive_representation"
    )
    reads = [
        (node.attr, node.lineno) for node in ast.walk(derive)
        if isinstance(node, ast.Attribute)
        and node.attr in ("weights", "numerator", "denominator")
    ]
    assert reads == []
    called = {node.func.id for node in ast.walk(derive)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert {"_require_grid", "_find_uniform"} <= called


def _random_relation(family):
    n = family.event_count()
    return _ordering(family, np.random.default_rng(20).random((n, n)) < 0.7)


def _permuted_ranks(family):
    scores = weight_ranks(family).tolist()
    a = family.slices["a"]
    scores[a] = np.random.default_rng(20).permutation(scores[a]).tolist()
    return _from_relation(family, dense_ranks(scores))


def _broken_cover(weights_by_mask):
    """Ranks of the weights with some events of measurement a given new
    weights, which break its covering pair E = {o0}, F = {o0, o1}."""
    def build(family):
        weights = weight_vector(family)
        for mask, w in weights_by_mask.items():
            weights[family.slices["a"].start + mask] = w
        return _from_relation(family, dense_ranks(weights))
    return build


DOMINANCE_CASES = {
    "random-relation": _random_relation,
    "permuted-ranks": _permuted_ranks,
    # F ranked below E.
    "below": _broken_cover({0b11: Fraction(1, 6) - Fraction(1, 100)}),
    # F tied with E while the added outcome is not null.
    "tied-not-null": _broken_cover({0b11: Fraction(1, 6)}),
    # F above E while the added outcome is null.
    "above-null": _broken_cover({0b10: Fraction(0)}),
}


@pytest.mark.parametrize("case", DOMINANCE_CASES)
def test_dominance_matches_the_oracle_on_six_outcomes(case):
    """The covering-pair pass and the nested-pair generator against the
    listed oracle past the three outcomes the hypothesis draws reach: two
    6-outcome measurements and a 2-outcome one, under a random relation,
    and under ranks where only measurement a breaks covering pairs: its
    events permuted, or one covering pair broken in each of the three
    ways Dominance fails."""
    family = MeasurementFamily(tuple(
        WeightedMeasurement(mid, tuple(f"o{j}" for j in range(k)), (Fraction(1, k),) * k)
        for mid, k in (("a", 6), ("b", 2), ("c", 6))
    ))
    ordering = DOMINANCE_CASES[case](family)
    report = check_dominance(ordering)
    assert not report.satisfied and report == listed_dominance(ordering)
    if ordering.ranks is not None:
        assert {w[0].measurement_id for w in report.witnesses} == {"a"}
    if case in ("below", "tied-not-null", "above-null"):
        cover = tuple(EventRef("a", frozenset(e)) for e in (("o0",), ("o0", "o1")))
        assert cover in report.witnesses


def test_reading_one_witness_builds_only_its_refs():
    family = generate_rich_family(6, 6)
    control = outcome_count_ordering(family)
    first = check_equivalence(control).witnesses[0]
    assert "refs" not in vars(family)
    assert first == listed_equivalence(control).witnesses[0]


@st.composite
def rank_orderings(draw):
    """The outcome-count control or a rank ordering from random scores,
    on a family `ranked_families` draws."""
    family = draw(ranked_families())
    if draw(st.booleans()):
        return outcome_count_ordering(family)
    n = family.event_count()
    scores = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    return _from_relation(family, dense_ranks(scores))


@st.composite
def pair_cases(draw):
    """(kind, ordering, assignment): Equivalence on a rank ordering, on
    its matrix twin, or on any relation `relations` draws; Totality on
    any such relation; or `verify_representation` of an assignment
    against a relation (assignment None for the checks)."""
    kind = draw(st.sampled_from(["equivalence-ranks", "equivalence", "totality", "verify"]))
    if kind == "verify":
        return kind, *draw(assignments_and_orderings())[::-1]
    if kind != "equivalence-ranks":
        return kind, draw(relations()), None
    ordering = draw(rank_orderings())
    if draw(st.booleans()):
        ordering = _ordering(ordering.family, ordering.matrix)
    return kind, ordering, None


@settings(max_examples=300, deadline=None)
@given(pair_cases(), st.one_of(st.integers(1, 200), st.just(2**16)), st.data())
def test_equivalence_row_source_is_the_listing(case, block, data):
    """Equivalence, Totality on a relation with no ranks, and a failing
    `verify_representation` take their witnesses from one row source
    that builds only the rows read; those rows are the listed oracle's,
    in its order, under every int and slice index, and a check's replay
    as violations.  The scan's block size is drawn too, so reads cross
    block bounds on these small families."""
    kind, ordering, assignment = case
    with mock.patch.object(ordering_module, "_BLOCK", block):
        if kind == "verify":
            got = verify_representation(assignment, ordering)[1]
            want = whole_matrix_verify(assignment, ordering)[1]
        elif kind == "totality":
            got, want = check_totality(ordering).witnesses, blocked_totality(ordering).witnesses
        else:
            got = check_equivalence(ordering).witnesses
            want = listed_equivalence(ordering).witnesses
        n = len(want)
        assert isinstance(got._rows, _PairRows) or not want
        assert len(got) == n and tuple(got) == want
        for i in data.draw(st.lists(st.integers(-n, n - 1), max_size=6)) if n else ():
            assert got[i] == want[i]
        for outside in (n, n + 7, -n - 1):
            with pytest.raises(IndexError):
                got[outside]
        for step in (1, 2, -1, 3, -5, 17, -64, data.draw(st.integers(2, n + 2))):
            a, b = data.draw(st.integers(-n - 2, n + 2)), data.draw(st.integers(-n - 2, n + 2))
            assert got[a:b:step] == want[a:b:step]
            assert got[::step] == want[::step]
        for empty in (slice(n, None), slice(2, 2), slice(1, 0), slice(0, 1, -1)):
            assert got[empty] == want[empty] == ()
    if kind != "verify":
        axiom = "Totality" if kind == "totality" else "Equivalence"
        assert all(replay_witness(ordering, axiom, w) for w in got[:50])


def test_cached_reports_hold_no_cycle_back_to_their_ordering():
    """A pair source holds the relation's arrays, never the ordering it
    came from, so the reports cached on an ordering form no cycle: a
    dropped ordering is freed at once, not by the cycle collector, and
    its reports stay readable."""
    family = generate_rich_family(4, 4)
    flipped = outcome_count_ordering(family).matrix.copy()
    flipped[3, 5] = not flipped[3, 5]
    builds = (induced_ordering, outcome_count_ordering, lambda f: _ordering(f, flipped))
    gc.disable()
    try:
        for build in builds:
            ordering = build(family)
            reports, gone = run_all_checks(ordering), weakref.ref(ordering)
            del ordering
            assert gone() is None
            for report in reports:
                assert len(report.witnesses[:3]) == min(3, len(report.witnesses))
    finally:
        gc.enable()


def test_k9_control_is_counted_without_listing_its_witnesses():
    """The K=9 outcome-count control fails Equivalence 7,349,313 times,
    the sum over weight groups G of (|G|**2 - sum of c**2) / 2, c over the
    sizes of G's rank classes.  The five checks count them without
    listing them: a 412 MB tracemalloc peak when they did."""
    family = generate_rich_family(9, 9)
    control = outcome_count_ordering(family)
    weights = weight_vector(family)
    group_sizes = Counter(weights).values()
    class_sizes = Counter(zip(weights, control.ranks.tolist())).values()
    expected = (sum(g * g for g in group_sizes) - sum(c * c for c in class_sizes)) // 2
    tracemalloc.start()
    try:
        reports = {r.axiom: r for r in run_all_checks(control)}
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports["Equivalence"].witnesses) == expected == 7_349_313
    assert peak < 60 * 2**20


def test_repr_of_a_long_witness_list_is_short():
    """The repr shows the count and the first few witnesses: on the K=8
    control's 822,609 it built every ref, 130 MB in 16 s."""
    report = check_equivalence(outcome_count_ordering(generate_rich_family(8, 8)))
    text = repr(report)
    assert len(text) < 2000
    assert f"Witnesses(822609 rows: {report.witnesses[0]!r}, " in text and ", ...)" in text
    assert repr(check_equivalence(induced_ordering(generate_rich_family(3, 3))).witnesses) == (
        "Witnesses(0 rows)"
    )


def test_iterating_witnesses_builds_each_ref_once(monkeypatch):
    """One iteration shares its refs across all its 4,096-row slices: on
    the K=7 control's 91,276 witnesses each slice built its own."""
    report = check_equivalence(outcome_count_ordering(generate_rich_family(7, 7)))
    calls = []
    ref_at = MeasurementFamily.ref_at
    monkeypatch.setattr(
        MeasurementFamily, "ref_at", lambda self, p: calls.append(p) or ref_at(self, p)
    )
    witnesses = tuple(report.witnesses)
    assert len(witnesses) == 91276
    assert len(calls) == len(set(calls))
    assert witnesses == report.witnesses[:]


@settings(max_examples=100, deadline=None)
@given(small_families)
def test_ref_at_is_refs_by_position(family):
    n = family.event_count()
    assert tuple(family.ref_at(i) for i in range(n)) == family.refs
    for outside in (-1, n):
        with pytest.raises(IndexError):
            family.ref_at(outside)


@st.composite
def assignments_and_orderings(draw):
    """A random assignment against its own order, that order with one
    entry flipped, or any relation `relations` draws."""
    family = draw(small_families)
    values = {}
    for m in family.measurements:
        parts = draw(st.lists(st.integers(0, 3), min_size=len(m.outcomes),
                              max_size=len(m.outcomes)))
        parts = parts if sum(parts) else [1] * len(parts)
        values.update({(m.id, o): Fraction(p, sum(parts)) for o, p in zip(m.outcomes, parts)})
    assignment = ProbabilityAssignment(family, values)
    kind = draw(st.sampled_from(["own", "own-flipped", "other"]))
    if kind == "other":
        return assignment, draw(relations(family))
    matrix = order_matrix(assignment.vector)
    if kind == "own-flipped":
        n = len(matrix)
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        matrix[i, j] = not matrix[i, j]
    return assignment, _ordering(family, matrix)


@settings(max_examples=200, deadline=None)
@given(assignments_and_orderings(), st.data())
def test_verify_matches_the_whole_matrix_formula(case, data):
    """`verify_representation` gives the oracle's verdict, and its
    witnesses stand for the oracle's (E, F) pairs."""
    assignment, ordering = case
    ok, got = verify_representation(assignment, ordering)
    want_ok, want = whole_matrix_verify(assignment, ordering)
    assert ok == want_ok
    assert_stands_for(got, want, data, ordering.refs)


@pytest.mark.parametrize("flip", [None, (480, 3), (3, 480), (300, 300), "outcome-count"])
def test_rank_test_across_blocks_matches_the_oracles(flip):
    """486 events: the rank test runs in four blocks, and a flipped entry
    in the first, third or last changes the verdict.  Every check's
    witnesses, in order, are its oracle's on a family past the hypothesis
    sizes; the outcome-count control has 9,989 Equivalence witnesses."""
    family = generate_rich_family(6, 6)
    build = outcome_count_ordering if flip == "outcome-count" else induced_ordering
    matrix = build(family).matrix.copy()
    if isinstance(flip, tuple):
        matrix[flip] = not matrix[flip]
    ordering = _ordering(family, matrix)
    assert (ordering.ranks is None) == isinstance(flip, tuple)
    for check, oracle in ORACLES.items():
        assert check(ordering) == oracle(ordering)


def test_tiers_form_and_checks_read_the_one_rank_test():
    """`tiers_to_json` and the checks take their verdict from
    `ordering.ranks` and derive none of their own: told that a total
    preorder given as a matrix has none, `tiers_to_json` refuses it, while
    the checks fall back to the whole-relation code and still find
    nothing wrong."""
    family = generate_rich_family(3, 3)
    ordering = _ordering(family, induced_ordering(family).matrix)
    tiers_to_json(ordering)
    vars(ordering)["ranks"] = None  # where cached_property keeps it
    with pytest.raises(ValueError, match="not a total preorder"):
        tiers_to_json(ordering)
    for check in ORACLES:
        assert check(ordering).satisfied


@st.composite
def ranked_families(draw):
    """A small uniform family, a random one, or a rich family up to K=4."""
    kind = draw(st.sampled_from(["small", "random", "rich"]))
    if kind == "small":
        return draw(small_families)
    if kind == "random":
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        return random_family(rng, max_measurements=3, max_outcomes=5)
    K = draw(st.integers(1, 4))
    return generate_rich_family(K, draw(st.integers(1, K)))


@settings(max_examples=150, deadline=None)
@given(ranked_families(), st.sampled_from([induced_ordering, outcome_count_ordering]))
def test_orderings_built_from_ranks_store_the_rank_tests_ranks(family, build):
    """An ordering built from ranks, directly or read back from its tiers
    form, holds them from construction on, so the rank test never runs on
    it; and they are the ranks the test gives the same matrix."""
    built = build(family)
    assert "ranks" in vars(built)
    back = ordering_from_json(tiers_to_json(built), family)
    assert "ranks" in vars(back)
    for ordering in (built, back):
        tested = LikelihoodOrdering(family, family.refs, ordering.matrix.copy()).ranks
        assert tested is not None and ordering.ranks.dtype == np.int64
        assert np.array_equal(ordering.ranks, tested)
        assert not ordering.ranks.flags.writeable
