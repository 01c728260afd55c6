"""One mutant per axiom check: a relation that only that check rejects.

Each mutant is checked three ways: exactly its check fails, every witness
replays, and `derive` exits 1 naming that check as the failed
precondition.  The last two tests are about the relation none of the five
checks rejects but `verify_representation` does.
"""
import contextlib
import io
import itertools
import json
from fractions import Fraction

import numpy as np
import pytest

from born_kernel import (
    LikelihoodOrdering,
    MeasurementFamily,
    WeightedMeasurement,
    induced_ordering,
    outcome_count_ordering,
    replay_witness,
    run_all_checks,
    uniform_measurement,
    verify_representation,
)
from born_kernel.cli import main
from born_kernel.formats import (
    canonical_dumps,
    family_to_json,
    ordering_from_json,
    ordering_to_json,
    tiers_to_json,
)
from born_kernel.ordering import weight_vector
from conftest import order_matrix, own_weights, whole_matrix_verify

# a: x = 1/3, y = 2/3.  b: p = 1/5, q = 4/5.  Positions: a's events at
# 0..3 (bitmask: {} {x} {y} {x,y}), then b's at 4..7 ({} {p} {q} {p,q}).
FAMILY = MeasurementFamily((
    WeightedMeasurement("a", ("x", "y"), (Fraction(1, 3), Fraction(2, 3))),
    WeightedMeasurement("b", ("p", "q"), (Fraction(1, 5), Fraction(4, 5))),
))
X, Y, P = 1, 2, 5


def _with(entries):
    """The induced ordering of FAMILY with the given (i, j) entries set."""
    matrix = induced_ordering(FAMILY).matrix.copy()
    for (i, j), value in entries.items():
        matrix[i, j] = value
    return LikelihoodOrdering(FAMILY, FAMILY.refs, matrix)


def _from_scores(scores, family=FAMILY):
    return LikelihoodOrdering(family, family.refs, order_matrix(scores))


def transitivity_mutant():
    # {p}|b (1/5) above {y}|a (2/3): p > y >= x, yet not p >= x.
    return _with({(P, Y): True, (Y, P): False})


def separation_mutant():
    n = FAMILY.event_count()
    return LikelihoodOrdering(FAMILY, FAMILY.refs, np.ones((n, n), bool))


def dominance_mutant():
    # {x}|a judged null, yet {x,y}|a is strictly above {y}|a.
    scores = weight_vector(FAMILY)
    scores[X] = Fraction(0)
    return _from_scores(scores)


def equivalence_mutant():
    # Outcome counts: {o1}|b and {o2,o3}|b both weigh 1/2, but count 1 and 2.
    return outcome_count_ordering(MeasurementFamily((
        WeightedMeasurement("a", ("o1", "o2"), (Fraction(1, 2), Fraction(1, 2))),
        WeightedMeasurement(
            "b", ("o1", "o2", "o3"), (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))
        ),
    )))


def totality_mutant():
    # Neither {x}|a >= {p}|b nor {p}|b >= {x}|a.
    return _with({(X, P): False, (P, X): False})


MUTANTS = {
    "Transitivity": transitivity_mutant,
    "Separation": separation_mutant,
    "Dominance": dominance_mutant,
    "Equivalence": equivalence_mutant,
    "Totality": totality_mutant,
}


def run_main(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        rc = main(list(argv))
    return rc, out.getvalue()


@pytest.mark.parametrize("axiom", sorted(MUTANTS))
def test_only_its_check_rejects_the_mutant(axiom, tmp_path):
    ordering = MUTANTS[axiom]()
    reports = run_all_checks(ordering)
    assert [r.axiom for r in reports if not r.satisfied] == [axiom]
    (report,) = [r for r in reports if not r.satisfied]
    assert all(replay_witness(ordering, axiom, w) for w in report.witnesses)

    fam, ords = tmp_path / "f.json", tmp_path / "o.json"
    fam.write_text(canonical_dumps(family_to_json(ordering.family)))
    ords.write_text(canonical_dumps(ordering_to_json(ordering)))
    rc, out = run_main("derive", "--family", str(fam), "--ordering", str(ords),
                       "-K", "60", "--out", str(tmp_path / "a.json"))
    assert rc == 1
    assert [v["check"] for v in json.loads(out)["verdicts"]] == [f"precondition:{axiom}"]
    assert not (tmp_path / "a.json").exists()


@pytest.mark.parametrize("axiom", sorted(MUTANTS))
def test_tiers_form_exists_exactly_for_total_preorders(axiom):
    """The Transitivity and Totality mutants are not total preorders, so
    they have no v2 tiers form; every other mutant round-trips through it."""
    ordering = MUTANTS[axiom]()
    reports = {r.axiom: r.satisfied for r in run_all_checks(ordering)}
    total_preorder = reports["Transitivity"] and reports["Totality"]
    assert total_preorder == (axiom not in ("Transitivity", "Totality"))
    if not total_preorder:
        with pytest.raises(ValueError, match="not a total preorder"):
            tiers_to_json(ordering)
    else:
        back = ordering_from_json(tiers_to_json(ordering), ordering.family)
        assert np.array_equal(back.matrix, ordering.matrix)


def test_no_check_rejects_a_total_preorder_the_weights_disagree_with():
    """The five checks tie measurements together only through events of
    exactly equal weight.  Ranking {p}|b (1/5) between {x}|a (1/3) and
    {y}|a (2/3) keeps the relation a total, monotone preorder that
    passes all five; only `verify_representation` rejects it."""
    scores = weight_vector(FAMILY)
    scores[P] = Fraction(1, 2)
    ordering = _from_scores(scores)
    assert all(r.satisfied for r in run_all_checks(ordering))
    weights = own_weights(FAMILY)
    ok, witnesses = verify_representation(weights, ordering)
    assert not ok and witnesses
    assert witnesses == whole_matrix_verify(weights, ordering)[1]


def test_with_a_uniform_measurement_no_such_mutant_exists():
    """With a uniform K-outcome measurement and weights on the 1/K grid,
    the five checks pin the relation: of all 4,683 total preorders on the
    six events of {uniform-2, a certain outcome}, only the induced one
    passes them, so nothing is left for `verify_representation` to reject."""
    family = MeasurementFamily(
        (uniform_measurement(2), WeightedMeasurement("c", ("o",), (Fraction(1),)))
    )
    n = family.event_count()
    passing = []
    for ranks in itertools.product(range(n), repeat=n):
        if set(ranks) != set(range(max(ranks) + 1)):
            continue  # each total preorder once: ranks 0..k-1 all used
        ordering = _from_scores(list(ranks), family)
        if all(r.satisfied for r in run_all_checks(ordering)):
            passing.append(ordering)
    assert len(passing) == 1
    assert np.array_equal(passing[0].matrix, induced_ordering(family).matrix)
