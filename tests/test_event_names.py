"""An event's one name is built from its canonical position: no kernel
path builds the family's whole list of event refs."""
import ast
import json
from pathlib import Path

import born_kernel
from born_kernel import (
    MeasurementFamily,
    RefinementSpec,
    coarse_event_probability_invariance,
    derive_representation,
    generate_rich_family,
    induced_ordering,
    outcome_count_ordering,
)
from born_kernel.cli import main
from born_kernel.formats import assignment_to_json, ordering_to_json, tiers_to_json


def test_pipeline_writers_and_refinement_never_build_family_refs(monkeypatch, tmp_path, capsys):
    def refuse(family):
        raise AssertionError("MeasurementFamily.refs was built")

    monkeypatch.setattr(MeasurementFamily, "refs", property(refuse))
    family, ordering = tmp_path / "fam.json", tmp_path / "fam.ordering.json"
    assert main(["gen-rich", "-K", "5", "--max-outcomes", "5", "--out", str(family)]) == 0
    inputs = ["--family", str(family), "--ordering", str(ordering)]
    assert main(["check", *inputs]) == 0
    assert main(["derive", *inputs, "-K", "5", "--out", str(tmp_path / "a.json")]) == 0
    capsys.readouterr()

    rich = generate_rich_family(4, 4)
    induced = induced_ordering(rich)
    assert json.dumps(ordering_to_json(induced)) and json.dumps(tiers_to_json(induced))
    assert json.dumps(ordering_to_json(outcome_count_ordering(rich)))
    assert json.dumps(assignment_to_json(derive_representation(induced, 4)))
    assert coarse_event_probability_invariance(rich, RefinementSpec("k1-3", "o2", 2), 4)


def test_only_likelihood_ordering_reads_refs():
    """``LikelihoodOrdering`` keeps its three-field constructor, ``refs``
    and ``index``; every other module and class names events by position."""
    reads, inside = [], []
    for path in sorted(Path(born_kernel.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr == "refs":
                reads.append((path.name, node.lineno))
            if isinstance(node, ast.ClassDef) and node.name == "LikelihoodOrdering":
                inside += [(path.name, n.lineno) for n in ast.walk(node)
                           if isinstance(n, ast.Attribute) and n.attr == "refs"]
    assert inside and sorted(reads) == sorted(inside)
