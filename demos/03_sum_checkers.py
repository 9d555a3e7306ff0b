"""Run the sum checkers and compare predicted bounds with achieved ones.

Each checker measures its hypotheses, builds the combined family, and
reports achieved optimal bounds next to the bound the statement
predicts.  A ConclusionFails verdict would flag an instance violating
the implemented claim even though every hypothesis held.
"""

import numpy as np

from gframes import (
    FamilyTarget,
    GenSpec,
    ScalarWeights,
    gen_family,
    gen_isometry,
    gen_orthogonal_pair,
    gen_weights,
    identity,
    identity_op,
    isometry_sum_check,
    perturb_lambda,
    scale_family,
    t11_check,
    tight_sum_check,
)


def show(report):
    checks = ", ".join(
        f"{c.name}={'ok' if c.passed else 'FAIL'}" for c in report.hypothesis_checks
    )
    print(f"  verdict:   {report.verdict.value}")
    if checks:
        print(f"  checks:    {checks}")
    print(f"  predicted: ({report.predicted_lower}, {report.predicted_upper})")
    print(f"  achieved:  ({report.achieved.lower:.9f}, {report.achieved.upper:.9f})")
    print(f"  kind:      {report.result_kind}")


print("== composing with (I + L), L = I doubles every member ==")
family = gen_family(GenSpec(1, 2, 2, (2, 2), FamilyTarget.bounds(1.0, 2.0)))
report = perturb_lambda(family, identity_op(2, 2))
show(report)

print()
print("== orthogonal tight pair: the tight constants add ==")
first, second = gen_orthogonal_pair(GenSpec(2, 2, 2, (2, 2), FamilyTarget.parseval()))
report = tight_sum_check(
    scale_family(first, np.sqrt(2.0)), scale_family(second, np.sqrt(3.0))
)
show(report)
print(f"  tight constant: {report.details['achieved_tight_constant']:.9f} (target 5)")

print()
print("== weighted sum of two frames with positive mixed operator ==")
pair = gen_orthogonal_pair(GenSpec(3, 2, 2, (2, 2), FamilyTarget.parseval()))
weights = gen_weights(4, 2, pair[0].size, 0.7, 1.4)
report = t11_check(pair[0], pair[1], weights)
show(report)

print()
print("== the same checker catches a violating instance ==")
parseval = gen_family(GenSpec(5, 2, 2, (2, 2), FamilyTarget.parseval()))
eye = identity(2)
cancelling = ScalarWeights(
    (eye,) * parseval.size, ((-1.0) * eye,) * parseval.size, 0.5, 2.0
)
report = t11_check(parseval, parseval, cancelling)
show(report)
print("  (opposite-phase weights cancel identical members: the printed")
print("   claim needs more than the stated hypotheses, and the checker")
print("   records exactly that)")

print()
print("== composing a frame-plus-Bessel sum with an isometry ==")
frame = gen_family(GenSpec(6, 2, 2, (2, 2), FamilyTarget.bounds(1.0, 2.0)))
bessel = scale_family(frame, 0.5)
report = isometry_sum_check(frame, bessel, gen_isometry(7, 2, 2))
show(report)
