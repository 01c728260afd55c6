"""The option surface: every setting a caller can pass, counted.

A tolerance record is passed only where an object is validated, the
package reads no environment variable, and the CLI and `NumericPolicy`
offer exactly the options listed here; `uniqueness_search` takes none.
A new setting has to change this file, and so does a new name that
`born_kernel` exports or a new public attribute of `LikelihoodOrdering`,
`MeasurementFamily`, `ProbabilityAssignment` or `WeightedMeasurement`.
"""
import argparse
import importlib
import inspect
import pkgutil
from dataclasses import fields
from pathlib import Path

import pytest

import born_kernel
from born_kernel import (
    LikelihoodOrdering,
    MeasurementFamily,
    NumericPolicy,
    ProbabilityAssignment,
    WeightedMeasurement,
)
from born_kernel.cli import build_parser

PACKAGE_DIR = Path(born_kernel.__file__).parent


def public_callables():
    """(qualified name, callable) for every public function, class and
    public method defined in the package's modules."""
    for info in pkgutil.iter_modules([str(PACKAGE_DIR)]):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"born_kernel.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{info.name}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{info.name}.{name}", obj
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    if isinstance(member, (classmethod, staticmethod)):
                        member = member.__func__
                    if inspect.isfunction(member):
                        yield f"{info.name}.{name}.{attr}", member


def parameters(obj):
    try:
        return inspect.signature(obj).parameters
    except ValueError:  # a class whose __init__ is built in, such as an exception
        return {}


def test_policy_is_taken_only_where_an_object_is_validated():
    takes_policy = {
        name for name, obj in public_callables() if "policy" in parameters(obj)
    }
    assert takes_policy == {
        "quantum.StateVector",
        "quantum.Observable",
        "quantum.Observable.from_pairs",
        "quantum.spectral_decompose",
        "quantum.make_rich_measurement",
        "formats.state_from_json",
        "formats.observable_from_json",
        "formats.model_from_json",
        "formats.quadruple_from_json",
    }


def test_no_environment_variable_is_read():
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        assert "environ" not in source and "getenv" not in source, path.name


def test_cli_options_per_subcommand():
    (subcommands,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    options = {
        name: sorted(
            s
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
            for s in a.option_strings
        )
        for name, sub in subcommands.choices.items()
    }
    output = ["--text"]
    assert options == {
        "check": sorted(["--family", "--ordering", *output]),
        "derive": sorted(["--family", "--ordering", "-K", "--out", *output]),
        "demo-erasure": sorted(["--p-num", "--p-den", "--index-range", *output]),
        "canon": sorted(["--quad", "--numeric-policy", *output]),
        "gen-rich": sorted(["-K", "--max-outcomes", "--out", *output]),
    }
    assert sum(len(v) for v in options.values()) == 19


def test_numeric_policy_fields():
    assert [f.name for f in fields(NumericPolicy)] == [
        "norm_tol", "projector_tol", "eigenvalue_tol", "rational_tol",
    ]


def test_package_exports():
    assert set(born_kernel.__all__) == {
        # numeric
        "DEFAULT_POLICY", "NumericPolicy",
        # quantum
        "DegenerateClustering", "MeasurementModel", "NoRationalWithinTolerance",
        "NonHermitianInput", "NonpositiveWeight", "Observable", "StateVector",
        "UnknownOutcomeLabel", "WeightsDontSumToOne", "make_rich_measurement",
        "rational_weight", "spectral_decompose", "weight",
        # ordering
        "AxiomReport", "EventRef", "LikelihoodOrdering", "MeasurementFamily",
        "WeightedMeasurement", "check_dominance", "check_equivalence",
        "check_separation", "check_totality", "check_transitivity",
        "induced_ordering", "null_events", "outcome_count_ordering",
        "replay_witness", "run_all_checks",
        # representation
        "FamilyMismatch", "MissingUniformMeasurement", "NonconformingDenominator",
        "PreconditionViolated", "ProbabilityAssignment", "SearchSpaceTooLarge",
        "SizeLimitExceeded", "derive_representation", "generate_rich_family",
        "uniform_measurement", "uniqueness_search", "verify_representation",
        # neutrality
        "CanonicalForm", "IntertwiningFails", "MeasurementQuadruple", "NotUnitary",
        "canonical_form", "canonical_quadruple", "relabel", "same_equivalence_class",
        "unitary_transform",
        # erasure
        "BranchCollision", "BranchLabel", "BranchState", "GameSpec",
        "IndexOutOfRange", "ReachableSet", "RefinementSpec", "UnknownOutcome",
        "WeightOutOfRange", "ZeroWeightRefinement", "apply_branch_phase",
        "coarse_event_probability_invariance", "erase", "play_game",
        "reachable_set", "refine", "refine_family", "sets_equal",
        "suboutcome_image", "three_outcome_game",
    }


def test_exports_resolve_to_their_defining_modules():
    """Each export is its defining module's object, listed by ``dir``;
    any other name is an AttributeError, so submodules still import."""
    listed = dir(born_kernel)
    for name in born_kernel.__all__:
        obj = getattr(born_kernel, name)
        assert obj is getattr(importlib.import_module(obj.__module__), name), name
        assert name in listed, name
    with pytest.raises(AttributeError, match="no_such_export"):
        born_kernel.no_such_export


def test_likelihood_ordering_surface():
    """Three constructor arguments, and positions are read from ``matrix``
    or ``ranks`` directly: no accessor keyed by event ref.  ``matrix`` and
    ``refs`` are read lazily, so an ordering built from ranks holds
    neither until asked."""
    assert list(inspect.signature(LikelihoodOrdering).parameters) == ["family", "refs", "matrix"]
    public = sorted(a for a in vars(LikelihoodOrdering) if not a.startswith("_"))
    assert public == ["index", "matrix", "ranks", "refs", "reports"]


def test_measurement_family_surface():
    """One field; the canonical order, the positions and the names of the
    events are derived from it."""
    assert [f.name for f in fields(MeasurementFamily)] == ["measurements"]
    public = sorted(a for a in vars(MeasurementFamily) if not a.startswith("_"))
    assert public == ["by_id", "canonical", "event_count", "position", "ref_at", "refs", "slices"]


def test_weighted_measurement_surface():
    """Three fields; the weights' scaled form, integer numerators over
    their least common denominator, stays private."""
    assert [f.name for f in fields(WeightedMeasurement)] == ["id", "outcomes", "weights"]
    public = sorted(a for a in vars(WeightedMeasurement) if not a.startswith("_"))
    assert public == ["event_mask", "event_weight", "mask_event"]


def test_probability_assignment_surface():
    """Built from a family and its outcome values; ``measure``, the family
    re-weighted by them, is derived."""
    assert list(inspect.signature(ProbabilityAssignment).parameters) == ["family", "singletons"]
    assert [f.name for f in fields(ProbabilityAssignment)] == ["family", "singletons", "measure"]
    public = sorted(a for a in vars(ProbabilityAssignment) if not a.startswith("_"))
    assert public == ["from_singletons", "value", "vector"]


def test_uniqueness_search_takes_no_settings():
    """One step cap, a module constant, bounds the search: no parameter."""
    assert list(inspect.signature(born_kernel.uniqueness_search).parameters) == ["ordering", "K"]
