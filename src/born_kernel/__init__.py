"""Verification kernel for weight-based likelihood orderings.

The package splits into a floating-point quantum layer (states,
observables stored as an eigenbasis, the weight function) and an
exact-rational decision kernel (likelihood orderings, rationality
axioms, representing probability measures), plus the neutrality
transforms, the erasure games, and a command-line front end.

Each export is imported from its defining module on first use (PEP 562),
so ``import born_kernel`` loads no submodule and a caller loads only the
layers it reads.
"""
import importlib

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in {
    "numeric": "DEFAULT_POLICY NumericPolicy",
    "quantum": "DegenerateClustering MeasurementModel NoRationalWithinTolerance "
               "NonHermitianInput NonpositiveWeight Observable StateVector "
               "UnknownOutcomeLabel WeightsDontSumToOne make_rich_measurement "
               "rational_weight spectral_decompose weight",
    "ordering": "AxiomReport EventRef LikelihoodOrdering MeasurementFamily "
                "WeightedMeasurement check_dominance check_equivalence check_separation "
                "check_totality check_transitivity induced_ordering null_events "
                "outcome_count_ordering replay_witness run_all_checks",
    "representation": "FamilyMismatch MissingUniformMeasurement NonconformingDenominator "
                      "PreconditionViolated ProbabilityAssignment SearchSpaceTooLarge "
                      "SizeLimitExceeded derive_representation generate_rich_family "
                      "uniform_measurement uniqueness_search verify_representation",
    "neutrality": "CanonicalForm IntertwiningFails MeasurementQuadruple NotUnitary "
                  "canonical_form canonical_quadruple relabel same_equivalence_class "
                  "unitary_transform",
    "erasure": "BranchCollision BranchLabel BranchState GameSpec IndexOutOfRange "
               "ReachableSet RefinementSpec UnknownOutcome WeightOutOfRange "
               "ZeroWeightRefinement coarse_event_probability_invariance "
               "erase play_game reachable_set refine refine_family sets_equal "
               "suboutcome_image three_outcome_game",
}.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """An export, imported from its module and kept here; AttributeError
    for any other name, so ``from born_kernel import cli`` finds the submodule."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_MODULE_OF[name]}", __name__)
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
