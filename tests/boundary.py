"""Boundary instances: a generated instance with one check's measured
value moved to a signed distance from the theorem's bare limit.

Each constructor in ``CASES`` takes the inputs that a checker receives
on a default instance and a step from ``STEPS``, and returns new inputs
whose measured value lies that step beyond the bare limit, with that
target value.  It moves the value along the extreme eigenvector that the
check reads.  A positive step puts the value where the bare hypothesis
fails, a negative one where it holds.  The property: no instance whose
bare hypothesis fails reads ``ConclusionFails``, so checks err only
towards ``HypothesisFails``.  ``NO_CONSTRUCTOR`` lists the checks that
have no constructor yet.

The tier-1 suite runs seed 0 of each case (``tests/test_boundary.py``).
A wider run prints each case's verdict counts and exits 1 on a breach:

    python tests/boundary.py --seeds 50
"""

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gframes import AdjointableOp, GFrameFamily, Verdict, registry, scale_family  # noqa: E402
from gframes.algebra import hermitian_part  # noqa: E402
from gframes.frames import (  # noqa: E402
    cross_operator,
    frame_operator,
    member_grams,
    optimal_bounds,
)
from gframes.registry import THEOREMS, build_and_run  # noqa: E402

# Signed steps beyond a bare limit: units in the last place of the limit
# (of the check's scale, for a zero limit), then fractions of it.
STEPS = [
    (kind, sign * size)
    for kind, sizes in (("ulps", (1, 10, 1000)), ("rel", (1e-12, 1e-9, 1e-6)))
    for size in sizes
    for sign in (1, -1)
]


def beyond(limit: float, scale: float, step, upper: bool) -> float:
    """The value ``step`` beyond ``limit``: above it for a hypothesis that
    bounds the value from above (``upper``), else below it."""
    kind, amount = step
    reference = abs(limit) or scale
    distance = amount * (np.spacing(reference) if kind == "ulps" else reference)
    return limit + distance if upper else limit - distance


def generated_inputs(theorem: str, seed: int) -> tuple:
    """The inputs that the checker of ``theorem`` receives on the default
    instance at ``seed``, its tolerance left out."""
    name = THEOREMS[theorem].checker
    checker, captured = getattr(registry, name), []
    setattr(registry, name, lambda *args: captured.append(args[:-1]))
    try:
        build_and_run(theorem, {}, seed)
    finally:
        setattr(registry, name, checker)
    return captured[0]


def _outer(v: np.ndarray) -> np.ndarray:
    return v @ v.conj().T


def _split(family: GFrameFamily, tau: float) -> tuple:
    """T12 inputs whose one deviation is tau vv*, v the least eigenvector
    of S: v's component moves out of every member into a new member of
    Gram C vv*, which leaves S as it was, and that member's summand is
    (C - tau) vv*.  So the subset supremum is tau and K = S - tau vv*."""
    n = family.algebra_dim
    c_low = optimal_bounds(family).lower
    v = np.linalg.eigh(frame_operator(family).flat)[1][:, :1]
    kept = family.analysis.flat - v @ (v.conj().T @ family.analysis.flat)
    extra = np.hstack([np.sqrt(c_low) * v, np.zeros((v.shape[0], n - 1))])
    split = GFrameFamily(AdjointableOp(np.hstack([kept, extra]), n), family.member_dims + (1,))
    summands = member_grams(split)
    summands[-1] = (c_low - tau) * _outer(v)
    return split, [AdjointableOp(s, n) for s in summands]


def t12_budget(inputs: tuple, step) -> tuple:
    family, _ = inputs
    bounds = optimal_bounds(family)
    budget = bounds.lower / bounds.upper
    tau = beyond(budget, budget, step, upper=True)
    return _split(family, tau), tau


def t12_companion(inputs: tuple, step) -> tuple:
    """The family scaled to D = 1 + 1e-10 first, so that C lies within the
    budget check's slack of the budget C/D and the companion decides."""
    family, _ = inputs
    family = scale_family(family, np.sqrt((1.0 + 1e-10) / optimal_bounds(family).upper))
    c_low = optimal_bounds(family).lower
    tau = beyond(c_low, c_low, step, upper=True)
    return _split(family, tau), tau


def _proximate(family: GFrameFamily, distance: float) -> GFrameFamily:
    """A one-member family G with ||S_F - S_G|| = distance: S_G is S_F less
    distance vv*, v the least eigenvector of S_F, or, past C, S_F less
    C vv* plus distance ww*, w the top eigenvector."""
    s_flat = frame_operator(family).flat
    c_low = optimal_bounds(family).lower
    vecs = np.linalg.eigh(s_flat)[1]
    moved = s_flat - min(distance, c_low) * _outer(vecs[:, :1])
    if distance > c_low:
        moved = moved + distance * _outer(vecs[:, -1:])
    eigs, vecs = np.linalg.eigh(moved)
    root = (vecs * np.sqrt(np.maximum(eigs, 0.0))) @ vecs.conj().T
    return GFrameFamily.of((AdjointableOp(root, family.algebra_dim),))


def final_alpha(inputs: tuple, step) -> tuple:
    family, _, alpha = inputs
    distance = beyond(alpha, alpha, step, upper=True)
    return (family, _proximate(family, distance), alpha), distance


def final_companion(inputs: tuple, step) -> tuple:
    """With alpha one ulp below C, so that the alpha check passes near C."""
    family, _, _ = inputs
    c_low = optimal_bounds(family).lower
    distance = beyond(c_low, c_low, step, upper=True)
    alpha = float(np.nextafter(c_low, 0.0))
    return (family, _proximate(family, distance), alpha), distance


def mixed_positive(inputs: tuple, step) -> tuple:
    """The second family's analysis T_G plus E S_F^-1 T_F, so that the
    mixed operator X = T_G T_F* gains E: E sets the least eigenvalue of
    X's Hermitian part to the target, along its eigenvector, and lifts
    any other eigenvalue below the target to it."""
    family, other, *rest = inputs
    eigs, vecs = np.linalg.eigh(hermitian_part(cross_operator(family, other).flat))
    scale = float(np.abs(eigs).max()) or optimal_bounds(family).upper
    target = beyond(0.0, scale, step, upper=False)
    moved = np.maximum(eigs, target)
    moved[0] = target
    shift = (vecs * (moved - eigs)) @ vecs.conj().T
    lifted = np.linalg.solve(frame_operator(family).flat, family.analysis.flat)
    flat = other.analysis.flat + shift @ lifted
    second = GFrameFamily(AdjointableOp(flat, family.algebra_dim), other.member_dims)
    return (family, second, *rest), target


CASES = {
    ("T12_OPERATOR", "subset_sup_within_budget"): t12_budget,
    ("T12_OPERATOR", "subset_sup_below_lower"): t12_companion,
    ("FINAL_COROLLARY", "proximity_within_alpha"): final_alpha,
    ("FINAL_COROLLARY", "proximity_below_lower"): final_companion,
    ("T3_COROLLARY", "mixed_operator_positive"): mixed_positive,
    ("T11_POSITIVE", "mixed_operator_positive"): mixed_positive,
    ("ISOMETRY_SUM", "mixed_operator_positive"): mixed_positive,
}

# The checks that no constructor reaches yet, with where else, if
# anywhere, an instance at their limit is built.
_SCALAR = "bisected on a scalar field in tests/test_verdicts.py"
NO_CONSTRUCTOR = {
    ("PERTURB_LAMBDA", "input_is_frame"): "",
    ("PERTURB_LAMBDA", "conjugation_dominates"): "",
    ("T3_COROLLARY", "aux_either_input_frame"): "a disjunction, with no one limit",
    ("T7_SCALAR", "input_is_frame"): "",
    ("T7_SCALAR", "weights_in_band"): "cannot fail: ScalarWeights raises BadRange",
    ("T7_SCALAR", "weighted_bessel_below_weighted_frame"): _SCALAR,
    ("T11_POSITIVE", "first_is_frame"): "",
    ("T11_POSITIVE", "second_is_frame"): "",
    ("T11_POSITIVE", "weights_in_band"): "cannot fail: ScalarWeights raises BadRange",
    ("TIGHT_SUM", "mixed_operator_vanishes"): "",
    ("ISOMETRY_SUM", "first_is_frame"): "",
    ("ISOMETRY_SUM", "lam_is_isometry"): "",
    ("LAMBDA_LOWER", "input_is_frame"): "",
    ("LAMBDA_LOWER", "n_bounded_below"): _SCALAR,
    ("LAMBDA_LOWER", "bessel_below_frame_lower"): _SCALAR,
    ("LAMBDA_LOWER", "aux_m_dominates_n"): "",
    ("TIGHT_MN", "mixed_operator_vanishes"): "",
    ("PROP_MIXED", "input_is_frame"): "",
    ("PROP_MIXED", "first_weighted_is_frame"): "",
    ("PROP_MIXED", "norm_difference_within"): _SCALAR,
    ("THM_DIFFERENCE", "input_is_frame"): "",
    ("THM_DIFFERENCE", "difference_dominated"): _SCALAR,
    ("T12_OPERATOR", "input_is_frame"): "",
    ("T12_OPERATOR", "upper_above_one"): "",
    ("T12_OPERATOR", "summands_positive"): "",
    ("FINAL_COROLLARY", "input_is_frame"): "",
}


def boundary_report(theorem: str, check: str, seed: int, step):
    """The report on the instance that the case's constructor builds from
    the default instance at ``seed``, its checked item, and the target."""
    inputs, target = CASES[theorem, check](generated_inputs(theorem, seed), step)
    report = getattr(registry, THEOREMS[theorem].checker)(*inputs)
    item = next(c for c in report.hypothesis_checks if c.name == check)
    return report, item, target


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=20, help="seeds 0 to N-1 (default 20)")
    args = parser.parse_args(argv)
    breaches = 0
    for theorem, check in CASES:
        verdicts = Counter()
        for seed in range(args.seeds):
            for step in STEPS:
                report, _, _ = boundary_report(theorem, check, seed, step)
                side = "fails" if step[1] > 0 else "holds"
                verdicts[side, report.verdict.value] += 1
                if side == "fails" and report.verdict is Verdict.CONCLUSION_FAILS:
                    breaches += 1
                    print(f"breach: {theorem} {check} seed {seed} step {step}")
        print(theorem, check, dict(sorted(verdicts.items())))
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
