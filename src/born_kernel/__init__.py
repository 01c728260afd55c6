"""Verification kernel for weight-based likelihood orderings.

The package splits into a floating-point quantum layer (states,
observables stored as an eigenbasis, the weight function) and an
exact-rational decision kernel (likelihood orderings, rationality
axioms, representing probability measures), plus the neutrality
transforms, the erasure games, and a command-line front end.
"""
from .numeric import DEFAULT_POLICY, NumericPolicy
from .quantum import (
    DegenerateClustering,
    MeasurementModel,
    NoRationalWithinTolerance,
    NonHermitianInput,
    NonpositiveWeight,
    Observable,
    StateVector,
    UnknownOutcomeLabel,
    WeightsDontSumToOne,
    make_rich_measurement,
    rational_weight,
    spectral_decompose,
    weight,
)
from .ordering import (
    AxiomReport,
    EventRef,
    LikelihoodOrdering,
    MeasurementFamily,
    WeightedMeasurement,
    check_dominance,
    check_equivalence,
    check_separation,
    check_totality,
    check_transitivity,
    induced_ordering,
    null_events,
    outcome_count_ordering,
    replay_witness,
    run_all_checks,
)
from .representation import (
    FamilyMismatch,
    MissingUniformMeasurement,
    NonconformingDenominator,
    PreconditionViolated,
    ProbabilityAssignment,
    SearchSpaceTooLarge,
    SizeLimitExceeded,
    derive_representation,
    generate_rich_family,
    uniform_measurement,
    uniqueness_search,
    verify_representation,
)
from .neutrality import (
    CanonicalForm,
    IntertwiningFails,
    MeasurementQuadruple,
    NotUnitary,
    canonical_form,
    canonical_quadruple,
    relabel,
    same_equivalence_class,
    unitary_transform,
)
from .erasure import (
    BranchCollision,
    BranchLabel,
    BranchState,
    GameSpec,
    IndexOutOfRange,
    ReachableSet,
    RefinementSpec,
    UnknownOutcome,
    WeightOutOfRange,
    ZeroWeightRefinement,
    apply_branch_phase,
    coarse_event_probability_invariance,
    erase,
    play_game,
    reachable_set,
    refine,
    refine_family,
    sets_equal,
    suboutcome_image,
    three_outcome_game,
)

__version__ = "0.1.0"
