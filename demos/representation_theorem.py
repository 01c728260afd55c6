#!/usr/bin/env python3
"""The representation theorem, mechanized on a small instance.

An ordering that is transitive, separates some possible event, respects
dominance, and judges equal-weight events equally likely is represented
by exactly one probability measure on the 1/K grid: the weight function.
The script checks the axioms, derives the measure constructively, and
confirms by exhaustive search that nothing else survives.  A weight-blind
counting rule serves as the negative control.
"""
from fractions import Fraction

from born_kernel import (
    MeasurementFamily,
    WeightedMeasurement,
    derive_representation,
    generate_rich_family,
    induced_ordering,
    null_events,
    outcome_count_ordering,
    run_all_checks,
    uniqueness_search,
    verify_representation,
)
from born_kernel.ordering import weight_vector

# A rich family at grid 4: every composition of 4 into at most 4 parts.
family = generate_rich_family(4, 4)
print(f"rich family at K=4: {len(family.measurements)} measurements")
for m in sorted(family.measurements, key=lambda m: m.id):
    print(f"  {m.id}: weights {[str(w) for w in m.weights]}")

ordering = induced_ordering(family)
weights = weight_vector(family)  # by canonical position
print()
print("axiom checks on the weight-induced ordering:")
for report in run_all_checks(ordering):
    print(f"  {report.axiom}: {'pass' if report.satisfied else 'FAIL'}")

print()
print("null events are exactly the zero-weight ones:",
      all(weights[family.position(r.measurement_id, r.event)] == 0
          for r in null_events(ordering)))

pr = derive_representation(ordering, 4)
ok, _ = verify_representation(pr, ordering)
print(f"derived measure verifies: {ok}")

found = uniqueness_search(ordering, 4)
print(f"exhaustive search found {len(found)} representing assignment(s)")
print("and it equals the weight function:", found[0].vector == weights)

# Negative control: rank events by how many possible outcomes they
# contain.  Equal-weight events with different outcome counts break the
# equivalence requirement, and no additive measure represents the rule.
print()
trap = MeasurementFamily(
    (
        WeightedMeasurement("a", ("o1", "o2"), (Fraction(1, 2), Fraction(1, 2))),
        WeightedMeasurement(
            "b", ("o1", "o2", "o3"),
            (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        ),
    )
)
count_rule = outcome_count_ordering(trap)
for report in run_all_checks(count_rule):
    marker = "" if report.satisfied else f"   <- {len(report.witnesses)} witnesses"
    print(f"  count rule, {report.axiom}: "
          f"{'pass' if report.satisfied else 'FAIL'}{marker}")
print("representing assignments for the count rule:",
      uniqueness_search(count_rule, 4))
