"""Perturbation-stability checkers.

Hypotheses stated "for all x" are decided exactly through a spectral
reformulation: an operator inequality, or the least eigenvalue of a
Hermitian-definite pencil, whose eigenvector gives a witness vector.
Numeric bound formulas quoted from the source derivations are recorded
for comparison but never asserted; the verdict concerns only the
qualitative conclusion (the perturbed family classifies as a frame).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from enum import Enum

import numpy as np

from .algebra import DEFAULT_TOL, Tolerance, hermitian_part, positivity, spectral_norm
from .errors import AlphaOutOfRange, DimensionMismatch
from .frames import (
    FrameKind,
    GFrameFamily,
    classify,
    frame_operator,
    is_frame_bounds,
    member_grams,
    optimal_bounds,
    require_compatible,
    require_endomorphism,
    spectrum_bounds,
)
from .hilbert import AdjointableOp, _op
from .sums import ScalarWeights, TheoremReport, _verdict, weighted_pair


class StabilityId(str, Enum):
    PROP_MIXED = "PROP_MIXED"
    THM_DIFFERENCE = "THM_DIFFERENCE"
    T12_OPERATOR = "T12_OPERATOR"
    FINAL_COROLLARY = "FINAL_COROLLARY"


def _frame_conclusion_report(
    other: GFrameFamily, hypotheses_hold: bool, tol: Tolerance, **fields
) -> TheoremReport:
    """Shared tail of the family-based checks: the claim is that the
    perturbed family classifies as a frame; its bounds are the achieved ones."""
    cls = classify(other, tol)
    return TheoremReport(
        achieved=cls.bounds,
        verdict=_verdict(hypotheses_hold, cls.kind is not FrameKind.BESSEL_ONLY),
        **fields,
    )


def _weighted_preamble(
    family: GFrameFamily,
    other: GFrameFamily,
    weights: ScalarWeights,
    alpha1: float,
    alpha2: float,
) -> tuple[GFrameFamily, GFrameFamily, np.ndarray, np.ndarray]:
    """The two weighted families and their flattened frame operators,
    after validating the coefficients and the pair."""
    outside = [
        f"{name!r} = {value!r}"
        for name, value in (("alpha1", alpha1), ("alpha2", alpha2))
        if not 0.0 < value < 1.0
    ]
    if outside:
        raise AlphaOutOfRange(
            f"perturbation coefficients must lie in (0, 1): {', '.join(outside)}"
        )
    require_compatible(family, other)
    left, right = weighted_pair(family, other, weights)
    return left, right, frame_operator(left).flat, frame_operator(right).flat


_NOTE_RECORDED_ONLY = (
    "claimed constants recorded from the source derivation; direction and"
    " coefficients there are inconsistent, so only the qualitative frame"
    " conclusion is asserted"
)


def prop_mixed_check(
    family: GFrameFamily,
    other: GFrameFamily,
    weights: ScalarWeights,
    alpha1: float,
    alpha2: float,
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
    """Norm-difference perturbation condition, decided exactly.

    Hypothesis for every x, with a(x) and b(x) the norms of the two
    weighted sums: sqrt(max(a - b, 0)) <= alpha1 sqrt(a) + alpha2 sqrt(b).
    Conclusion: the second family is a frame.

    Divided by a, the condition reads g(b/a) >= 0 with
    g(r) = alpha1 + alpha2 sqrt(r) - sqrt(max(1 - r, 0)), which increases
    in r.  With kappa the least eigenvalue of S_L^-1/2 S_R S_L^-1/2,
    S_R >= kappa S_L, so b(x) >= kappa a(x) for every x, and the rank-one
    vector e_1 u* with u = S_L^-1/2 v (v the least eigenvector) attains
    b/a = kappa.  The condition holds for all x exactly when it holds at
    that witness.  An S_L too close to singular to whiten fails it.
    """
    _, _, s_left, s_right = _weighted_preamble(family, other, weights, alpha1, alpha2)
    left_eigs, left_vecs = np.linalg.eigh(hermitian_part(s_left))
    whitened = bool(left_eigs[0] > tol.rel * left_eigs[-1])
    if whitened:
        whitener = (left_vecs / np.sqrt(left_eigs)) @ left_vecs.conj().T
        pencil = hermitian_part(whitener @ s_right @ whitener)
        pencil_eigs, pencil_vecs = np.linalg.eigh(pencil)
        kappa = float(pencil_eigs[0])
        witness = whitener @ pencil_vecs[:, 0]
    else:
        kappa = math.nan
        witness = left_vecs[:, 0]
    witness = witness / np.linalg.norm(witness)
    a, b = (
        max(float((witness.conj() @ s @ witness).real), 0.0) for s in (s_left, s_right)
    )
    measured_lhs = math.sqrt(max(a - b, 0.0))
    allowed_rhs = alpha1 * math.sqrt(a) + alpha2 * math.sqrt(b)
    hypothesis_ok = whitened and measured_lhs <= allowed_rhs + tol.margin(
        math.sqrt(max(a, b, 1.0))
    )

    base = optimal_bounds(family)
    input_frame = is_frame_bounds(base, tol)
    claimed = (
        base.lower
        * weights.band_lower
        * (1.0 - alpha1) ** 2
        / (weights.band_upper * (1.0 + alpha2) ** 2),
        weights.band_upper
        * base.upper
        * (1.0 + alpha2) ** 2
        / (weights.band_lower * (1.0 - alpha1) ** 2),
    )
    return _frame_conclusion_report(
        other,
        hypothesis_ok and input_frame,
        tol,
        theorem_id=StabilityId.PROP_MIXED.value,
        alphas=(alpha1, alpha2),
        measured_lhs=measured_lhs,
        allowed_rhs=allowed_rhs,
        claimed_bounds=claimed,
        bound_discrepancy_note=_NOTE_RECORDED_ONLY,
        details={
            "input_lower": base.lower,
            "input_upper": base.upper,
            "input_is_frame": float(input_frame),
            "witness_margin": measured_lhs - allowed_rhs,
            "kappa": kappa,
        },
    )


def difference_check(
    family: GFrameFamily,
    other: GFrameFamily,
    weights: ScalarWeights,
    alpha1: float,
    alpha2: float,
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
    """Quadratic-difference perturbation condition.

    Hypothesis: the frame operator of the weighted difference family is
    dominated by alpha1 and alpha2 times the two weighted frame
    operators, decided by the top eigenvalue of the difference of the
    two sides.  Conclusion: the second family is a frame.
    """
    left, right, s_left, s_right = _weighted_preamble(
        family, other, weights, alpha1, alpha2
    )
    diff = GFrameFamily(left.analysis - right.analysis, left.member_dims)
    s_diff = frame_operator(diff).flat
    combo = alpha1 * s_left + alpha2 * s_right

    # Worst direction of the spectral form: quadratic values there give
    # the measured/allowed pair, and domination is their comparison.
    gap_eigs, gap_vecs = np.linalg.eigh(hermitian_part(s_diff - combo))
    worst_vec = gap_vecs[:, -1]
    measured_lhs = float((worst_vec.conj() @ s_diff @ worst_vec).real)
    allowed_rhs = float((worst_vec.conj() @ combo @ worst_vec).real)
    scale = max(*spectral_norm(np.stack([combo, s_diff])).tolist(), 1.0)
    spectral_ok = float(gap_eigs[-1]) <= tol.margin(scale)

    base = optimal_bounds(family)
    input_frame = is_frame_bounds(base, tol)
    claimed = (
        base.lower
        * weights.band_lower
        * (1.0 + 2.0 * math.sqrt(alpha2)) ** 2
        / (weights.band_upper * (1.0 - math.sqrt(alpha1)) ** 2),
        base.upper
        * weights.band_upper
        * (1.0 + 2.0 * math.sqrt(alpha2)) ** 2
        / (base.lower * (1.0 - math.sqrt(alpha1)) ** 2)
        if base.lower > 0.0
        else math.inf,
    )
    return _frame_conclusion_report(
        other,
        spectral_ok and input_frame,
        tol,
        theorem_id=StabilityId.THM_DIFFERENCE.value,
        alphas=(alpha1, alpha2),
        measured_lhs=measured_lhs,
        allowed_rhs=allowed_rhs,
        claimed_bounds=claimed,
        bound_discrepancy_note=_NOTE_RECORDED_ONLY,
        details={
            "input_lower": base.lower,
            "input_upper": base.upper,
            "input_is_frame": float(input_frame),
            "domination_gap": float(gap_eigs[-1]),
        },
    )


def operators_from_family(other: GFrameFamily) -> list[AdjointableOp]:
    """Lift a family to candidate frame-operator summands adjoint(Q).Q."""
    return [_op(gram, other.algebra_dim, scan=True) for gram in member_grams(other)]


# Subset enumeration is exact up to this family size; beyond it the
# supremum over finite subsets is bracketed (see _subset_sup_bracket).
_SUBSET_LIMIT = 12
# Subsets summed per step of the enumeration: a block of subset sums takes
# 16 * _SUBSET_BLOCK * (n*d)^2 bytes, instead of one array for all of them.
_SUBSET_BLOCK = 256


def _subset_sup_bracket(deviations: np.ndarray) -> tuple[float, float]:
    """Ends of the supremum over index subsets S of ||sum_S D_i||, found
    without enumerating the subsets.

    Upper: max(lmax(sum_i D_i^+), lmax(sum_i D_i^-)), as in the Loewner
    order sum_S D_i <= sum_i D_i^+ and -sum_S D_i <= sum_i D_i^-.  Lower:
    the best of the full sum, the singletons and, per sign, the members
    positive along the top eigenvector of that part sum.
    """
    herm = hermitian_part(deviations)
    eigs, vecs = np.linalg.eigh(herm)
    candidates = [herm.sum(axis=0), *herm]
    upper = 0.0
    for sign in (1.0, -1.0):
        clipped = np.maximum(sign * eigs, 0.0)
        part = np.einsum("mij,mj,mkj->ik", vecs, clipped, vecs.conj())
        part_eigs, part_vecs = np.linalg.eigh(part)
        upper = max(upper, float(part_eigs[-1]))
        top = part_vecs[:, -1]
        along = np.einsum("i,mij,j->m", top.conj(), herm, top).real
        candidates.append(herm[sign * along > 0].sum(axis=0))
    lower = max(float(np.abs(np.linalg.eigvalsh(c)).max()) for c in candidates)
    return lower, upper


def t12_check(
    family: GFrameFamily,
    delta_ops: Sequence[AdjointableOp],
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
    """Frame-operator perturbation with explicit norm budget.

    Hypothesis: over every index subset, the summed deviation between
    adjoint(P).P and the candidate summand stays within C/D, where
    (C, D) are the input's optimal bounds and D > 1.  Conclusion: the
    summand total K is positive and invertible; the proof-step
    contraction ||I - S^-1 K|| <= 1/D is verified alongside.
    """
    n, d = family.algebra_dim, family.source_len
    if len(delta_ops) != family.size:
        raise DimensionMismatch("one candidate summand per member required")
    for op in delta_ops:
        require_endomorphism(op, family, "candidate summands")

    base = optimal_bounds(family)
    c_low, d_high = base.lower, base.upper
    input_frame = is_frame_bounds(base, tol)
    d_above_one = d_high > 1.0
    budget = c_low / d_high if d_high > 0.0 else math.inf

    summands = np.stack([op.flat for op in delta_ops])
    summands_pos = bool(positivity(summands, tol)[0].all())
    deviations = member_grams(family) - summands
    size = n * d
    bracket = {}
    if family.size <= _SUBSET_LIMIT:
        count, stop = family.size, 1 << family.size
        measured_lhs = 0.0
        for start in range(1, stop, _SUBSET_BLOCK):
            subsets = np.arange(start, min(start + _SUBSET_BLOCK, stop))
            masks = ((subsets[:, None] >> np.arange(count)) & 1).astype(np.complex128)
            sums = (masks @ deviations.reshape(count, -1)).reshape(-1, size, size)
            eigs = np.linalg.eigvalsh(hermitian_part(sums))
            measured_lhs = max(measured_lhs, float(np.abs(eigs).max()))
        subset_note = "exact over all index subsets"
    else:
        # Too many subsets to enumerate: the sound upper end is held to
        # the budget, so the check errs only towards HypothesisFails.
        sup_lower, measured_lhs = _subset_sup_bracket(deviations)
        bracket = {"subset_sup_lower": sup_lower, "subset_sup_upper": measured_lhs}
        subset_note = "bracketed; the upper end of the bracket is measured"

    hypothesis_ok = (
        input_frame
        and d_above_one
        and summands_pos
        and measured_lhs <= budget + tol.margin(max(budget, 1.0))
    )

    k_flat = sum(op.flat for op in delta_ops)
    achieved = spectrum_bounds(k_flat)
    if input_frame:
        contraction = spectral_norm(_contraction(frame_operator(family).flat, k_flat))
    else:
        contraction = math.inf
    contraction_limit = 1.0 / d_high if d_high > 0.0 else math.inf
    contraction_ok = contraction <= contraction_limit + tol.margin(1.0)
    k_invertible = is_frame_bounds(achieved, tol)
    conclusion = k_invertible and contraction_ok

    claimed = (
        (1.0 / c_low) * ((d_high + 1.0) / d_high) if c_low > 0.0 else math.inf,
        budget + d_high,
    )
    inverse_norm = 1.0 / achieved.lower if achieved.lower > 0.0 else math.inf
    note = (
        "first claimed value reads as a bound on ||K^-1||; the derivation"
        " overstates it (a Neumann argument yields D/(C(D-1))), so it is"
        f" recorded, not asserted; subset condition: {subset_note}"
    )
    return TheoremReport(
        theorem_id=StabilityId.T12_OPERATOR.value,
        measured_lhs=measured_lhs,
        allowed_rhs=budget,
        claimed_bounds=claimed,
        achieved=achieved,
        verdict=_verdict(hypothesis_ok, conclusion),
        bound_discrepancy_note=note,
        details={
            "contraction_norm": contraction,
            "contraction_limit": contraction_limit,
            "inverse_norm": inverse_norm,
            "summands_positive": float(summands_pos),
            "input_lower": c_low,
            "input_upper": d_high,
            **bracket,
        },
    )


def final_corollary_check(
    family: GFrameFamily,
    other: GFrameFamily,
    alpha: float,
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
    """Frame-operator proximity: ||S_F - S_G|| <= alpha < C forces the
    second family to be a frame; the contraction ||I - S_F^-1 S_G||
    <= alpha / C is recorded as the proof step."""
    if family.algebra_dim != other.algebra_dim or family.source_len != other.source_len:
        raise DimensionMismatch("families live on different modules")
    base = optimal_bounds(family)
    c_low = base.lower
    if not (0.0 < alpha < c_low):
        raise AlphaOutOfRange(
            f"alpha must lie in (0, {c_low:.6g}), the input's lower bound"
        )
    s_left = frame_operator(family).flat
    s_right = frame_operator(other).flat
    measured_lhs, contraction = spectral_norm(
        np.stack([s_left - s_right, _contraction(s_left, s_right)])
    ).tolist()
    hypothesis_ok = (
        is_frame_bounds(base, tol)
        and measured_lhs <= alpha + tol.margin(max(alpha, 1.0))
    )
    return _frame_conclusion_report(
        other,
        hypothesis_ok,
        tol,
        theorem_id=StabilityId.FINAL_COROLLARY.value,
        measured_lhs=measured_lhs,
        allowed_rhs=alpha,
        bound_discrepancy_note="",
        details={
            "alpha": alpha,
            "contraction_norm": contraction,
            "contraction_limit": alpha / c_low,
            "input_lower": c_low,
            "input_upper": base.upper,
        },
    )


def _contraction(s_flat: np.ndarray, k_flat: np.ndarray) -> np.ndarray:
    """I - S^-1 K for an invertible S; a norm below one makes K invertible."""
    eye = np.eye(s_flat.shape[0], dtype=np.complex128)
    return eye - np.linalg.solve(s_flat, k_flat)
