"""Perturbation stability: how far can a family drift and stay a frame.

Each report lists its hypotheses as checks, with the measured value and
the limit it was held to.  The reports also show the recorded-only bound
policy: constants quoted from the source derivation appear in the
details as ``claimed_lower``/``claimed_upper`` next to the achieved
spectrum, but only the qualitative frame conclusion is asserted.
"""

import numpy as np

from gframes import (
    AdjointableOp,
    FamilyTarget,
    GenSpec,
    adjoint_op,
    compose,
    final_corollary_check,
    gen_family,
    gen_weights,
    prop_mixed_check,
    scale_family,
    t12_check,
)


def show_checks(report):
    for c in report.hypothesis_checks:
        print(f"  {c.name}: {c.measured:.6g} vs limit {c.limit:.6g}"
              f" -> {'pass' if c.passed else 'FAIL'}")


def claimed(report):
    return (round(report.details["claimed_lower"], 4),
            round(report.details["claimed_upper"], 4))


family = gen_family(GenSpec(11, 2, 2, (2, 2), FamilyTarget.bounds(1.0, 2.0)))

print("== norm-difference perturbation ==")
drifted = scale_family(family, 1.03)
weights = gen_weights(12, 2, family.size, 0.9, 1.1)
report = prop_mixed_check(family, drifted, weights, 0.5, 0.5)
print("verdict:", report.verdict.value)
show_checks(report)
print("margin at the pencil witness:",
      f"{report.details['witness_margin']:.3e}", "(<= 0 passes)")
print(f"least pencil eigenvalue kappa: {report.details['kappa']:.6f}")
print("claimed bounds (recorded only):", claimed(report))
print("achieved bounds of the drifted family:",
      (round(report.achieved.lower, 6), round(report.achieved.upper, 6)))

print()
print("== frame-operator budget with subset scan ==")
eps = 0.3
n, d = family.algebra_dim, family.source_len
bump = (eps / family.size) * np.eye(n * d)
deltas = [
    AdjointableOp(m.flat @ m.flat.conj().T + bump, n) for m in family.members
]
report = t12_check(family, deltas)
print("verdict:", report.verdict.value)
show_checks(report)
print(f"contraction norm:     {report.details['contraction_norm']:.6f}"
      f" (limit {report.details['contraction_limit']})")
print("shifted spectrum:",
      (round(report.achieved.lower, 9), round(report.achieved.upper, 9)))
print("claimed bounds (recorded only):", claimed(report))
print("  (the first reads as a bound on ||K^-1||, which a Neumann argument"
      " puts at D/(C(D-1)))")

print()
print("== frame-operator proximity ==")
shrunk = scale_family(family, 0.95)
report = final_corollary_check(family, shrunk, 0.5)
print("verdict:", report.verdict.value)
show_checks(report)
print("shrunk family bounds:",
      (round(report.achieved.lower, 6), round(report.achieved.upper, 6)))

print()
print("== exact summands reproduce the input spectrum ==")
exact = [compose(adjoint_op(m), m) for m in family.members]
report = t12_check(family, exact)
print("verdict:", report.verdict.value,
      "| deviation:", f"{report.hypothesis_checks[-1].measured:.2e}",
      "| bounds:", (round(report.achieved.lower, 9), round(report.achieved.upper, 9)))
