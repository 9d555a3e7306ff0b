"""Perturbation-stability checkers.

Hypotheses stated "for all x" are evaluated spectrally whenever an
exact operator reformulation exists, and on seeded sample batches where
only the pointwise form exists.  Numeric bound formulas quoted from the
source derivations are recorded for comparison but never asserted; the
verdict concerns only the qualitative conclusion (the perturbed family
classifies as a frame).
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from ._rand import make_rng, sample_flat_vectors
from .algebra import (
    AlgebraElement,
    DEFAULT_TOL,
    Tolerance,
    hermitian_part,
    is_positive,
    spectral_norm,
)
from .errors import AlphaOutOfRange, DimensionMismatch
from .frames import (
    FrameBounds,
    FrameKind,
    GFrameFamily,
    batched_gram,
    batched_quadratic,
    classify,
    frame_operator,
    is_frame_bounds,
    optimal_bounds,
    require_compatible,
    require_endomorphism,
)
from .hilbert import AdjointableOp, adjoint_op, compose
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
    samples: int,
    seed: int,
) -> tuple[GFrameFamily, GFrameFamily, np.ndarray, np.ndarray, np.ndarray]:
    """The two weighted families, their flattened frame operators and the
    seeded sample batch, after validating the coefficients and the pair."""
    if not (0.0 < alpha1 < 1.0 and 0.0 < alpha2 < 1.0):
        raise AlphaOutOfRange("perturbation coefficients must lie in (0, 1)")
    require_compatible(family, other)
    left, right = weighted_pair(family, other, weights)
    rng = make_rng(seed)
    xs = sample_flat_vectors(rng, samples, family.algebra_dim, family.source_len)
    return left, right, frame_operator(left).flat, frame_operator(right).flat, xs


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
    samples: int = 500,
    seed: int = 0,
) -> TheoremReport:
    """Norm-difference perturbation condition, sampled pointwise.

    Hypothesis per sample x, with a(x) and b(x) the norms of the two
    weighted sums: sqrt(max(a - b, 0)) <= alpha1 sqrt(a) + alpha2 sqrt(b).
    Conclusion: the second family is a frame.
    """
    _, _, s_left, s_right, xs = _weighted_preamble(
        family, other, weights, alpha1, alpha2, samples, seed
    )
    a = _batched_psd_norm(s_left, xs)
    b = _batched_psd_norm(s_right, xs)
    lhs = np.sqrt(np.maximum(a - b, 0.0))
    rhs = alpha1 * np.sqrt(a) + alpha2 * np.sqrt(b)
    margins = tol.abs + tol.rel * np.sqrt(np.maximum(np.maximum(a, b), 1.0))
    worst = int(np.argmax(lhs - rhs))
    measured_lhs = float(lhs[worst])
    allowed_rhs = float(rhs[worst])
    hypothesis_ok = bool((lhs <= rhs + margins).all())

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
            "worst_sample_margin": float(measured_lhs - allowed_rhs),
        },
    )


def difference_check(
    family: GFrameFamily,
    other: GFrameFamily,
    weights: ScalarWeights,
    alpha1: float,
    alpha2: float,
    tol: Tolerance = DEFAULT_TOL,
    samples: int = 500,
    seed: int = 0,
) -> TheoremReport:
    """Quadratic-difference perturbation condition.

    Hypothesis: the frame operator of the weighted difference family is
    dominated by alpha1 and alpha2 times the two weighted frame
    operators.  This has an exact spectral form, which is checked
    together with a sampled pointwise corroboration.  Conclusion: the
    second family is a frame.
    """
    left, right, s_left, s_right, xs = _weighted_preamble(
        family, other, weights, alpha1, alpha2, samples, seed
    )
    diff = GFrameFamily(
        tuple(p - q for p, q in zip(left.members, right.members))
    )
    s_diff = frame_operator(diff).flat
    combo = alpha1 * s_left + alpha2 * s_right

    # Worst direction of the spectral form: quadratic values there give
    # the measured/allowed pair, and domination is their comparison.
    gap_eigs, gap_vecs = np.linalg.eigh(hermitian_part(s_diff - combo))
    worst_vec = gap_vecs[:, -1]
    measured_lhs = float((worst_vec.conj() @ s_diff @ worst_vec).real)
    allowed_rhs = float((worst_vec.conj() @ combo @ worst_vec).real)
    scale = max(spectral_norm(combo), spectral_norm(s_diff), 1.0)
    spectral_ok = float(gap_eigs[-1]) <= tol.margin(scale)

    resid = batched_quadratic(combo - s_diff, xs)
    resid_eigs = np.linalg.eigvalsh((resid + resid.conj().swapaxes(1, 2)) / 2)
    gram_scale = np.linalg.norm(batched_gram(xs), axis=(1, 2))
    sample_margins = tol.abs + tol.rel * scale * np.maximum(gram_scale, 1.0)
    sampled_ok = bool((resid_eigs[:, 0] >= -sample_margins).all())

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
        spectral_ok and sampled_ok and input_frame,
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
            "sampled_ok": float(sampled_ok),
            "domination_gap": float(gap_eigs[-1]),
        },
    )


def operators_from_family(other: GFrameFamily) -> list[AdjointableOp]:
    """Lift a family to candidate frame-operator summands adjoint(Q).Q."""
    return [compose(adjoint_op(q), q) for q in other.members]


# Subset enumeration is exact up to this family size; beyond it the
# supremum over finite subsets is bracketed (see _subset_sup_bracket).
_SUBSET_LIMIT = 12


def _subset_sup_bracket(deviations: np.ndarray) -> tuple[float, float]:
    """Ends of the supremum over index subsets S of ||sum_S D_i||, found
    without enumerating the subsets.

    Upper: max(lmax(sum_i D_i^+), lmax(sum_i D_i^-)), as in the Loewner
    order sum_S D_i <= sum_i D_i^+ and -sum_S D_i <= sum_i D_i^-.  Lower:
    the best of the full sum, the singletons and, per sign, the members
    positive along the top eigenvector of that part sum.
    """
    herm = (deviations + deviations.conj().swapaxes(1, 2)) / 2
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
    delta_ops: list[AdjointableOp],
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
    """Frame-operator perturbation with explicit norm budget.

    Hypothesis: over every index subset, the summed deviation between
    adjoint(P).P and the candidate summand stays within C/D, where
    (C, D) are the input's optimal bounds and D > 1.  Conclusion: the
    summand total K is positive and invertible; the proof-step
    contraction ||I - K S^-1|| <= 1/D is verified alongside.
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

    summands_pos = all(
        is_positive(AlgebraElement(op.flat), tol) for op in delta_ops
    )
    deviations = np.stack(
        [
            m.flat @ m.flat.conj().T - op.flat
            for m, op in zip(family.members, delta_ops)
        ]
    )
    size = n * d
    bracket = {}
    if family.size <= _SUBSET_LIMIT:
        count = family.size
        masks = (
            (np.arange(1, 1 << count)[:, None] >> np.arange(count)) & 1
        ).astype(np.complex128)
        subset_sums = (masks @ deviations.reshape(count, -1)).reshape(-1, size, size)
        herm = (subset_sums + subset_sums.conj().swapaxes(1, 2)) / 2
        measured_lhs = float(np.abs(np.linalg.eigvalsh(herm)).max())
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
    k_eigs = np.linalg.eigvalsh(hermitian_part(k_flat))
    achieved = FrameBounds.from_spectrum(k_eigs[0], k_eigs[-1])
    s_flat = frame_operator(family).flat
    eye = np.eye(size, dtype=np.complex128)
    if input_frame:
        contraction = spectral_norm(eye - np.linalg.solve(s_flat, k_flat))
    else:
        contraction = math.inf
    contraction_limit = 1.0 / d_high if d_high > 0.0 else math.inf
    contraction_ok = contraction <= contraction_limit + tol.margin(1.0)
    k_invertible = achieved.lower > tol.margin(max(achieved.upper, 1.0))
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
    second family to be a frame; the contraction ||I - S_G S_F^-1||
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
    measured_lhs = spectral_norm(s_left - s_right)
    hypothesis_ok = (
        is_frame_bounds(base, tol)
        and measured_lhs <= alpha + tol.margin(max(alpha, 1.0))
    )
    size = s_left.shape[0]
    contraction = spectral_norm(
        np.eye(size, dtype=np.complex128) - np.linalg.solve(s_left, s_right)
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


def _batched_psd_norm(flat_op: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Spectral norms of the PSD quadratic forms <Tx, x> over a batch."""
    quads = batched_quadratic(flat_op, xs)
    herm = (quads + quads.conj().swapaxes(1, 2)) / 2
    eigs = np.linalg.eigvalsh(herm)
    return np.maximum(eigs[:, -1], 0.0)
