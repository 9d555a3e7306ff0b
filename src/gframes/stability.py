"""Perturbation-stability checkers.

Hypotheses stated "for all x" are decided exactly through a spectral
reformulation: an operator inequality, or the least eigenvalue of a
Hermitian-definite pencil, whose eigenvector gives a witness vector.
Each hypothesis is one check.  Numeric bound formulas quoted from the
source derivations are recorded in ``details`` as ``claimed_lower`` and
``claimed_upper`` but never asserted; the verdict concerns only the
qualitative conclusion: the second family, or T12's summand total K,
has frame bounds.  T12 and FINAL_COROLLARY conclude from K >= C - ||S - K||
and share one companion check, ``_below_lower``, that holds the deviation,
slack included, below C.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .algebra import DEFAULT_TOL, Tolerance, hermitian_part, positivity, spectral_norm
from .errors import AlphaOutOfRange, DimensionMismatch
from .frames import (
    Classification,
    FrameBounds,
    GFrameFamily,
    frame_operator,
    is_frame_bounds,
    member_grams,
    optimal_bounds,
    require_compatible,
    require_endomorphism,
    spectrum_bounds,
)
from .hilbert import AdjointableOp, _op
from .sums import (
    ScalarWeights,
    TheoremReport,
    _family,
    _frame_check,
    check,
    theorem_report,
    weighted_pair,
)


def _frame_report(
    theorem_id: str,
    base: FrameBounds,
    achieved: FrameBounds,
    checks: tuple,
    details: dict,
    tol: Tolerance,
) -> TheoremReport:
    """Tail of the checkers that conclude a perturbed family or operator
    is a frame: the input's frame check, with bounds ``base``, leads the
    hypotheses, and those bounds join ``details``.  With no predicted
    bounds and no result kind, ``theorem_report`` concludes that bounds
    ``achieved`` are frame bounds."""
    checks = (_frame_check("input_is_frame", base, tol), *checks)
    details = {**details, "input_lower": base.lower, "input_upper": base.upper}
    cls = Classification(None, achieved)
    return theorem_report(theorem_id, cls, checks, None, None, tol, details)


def _below_lower(name: str, deviation: float, base: FrameBounds, tol: Tolerance):
    """``deviation`` below the input's lower bound C.  K with ||S - K|| <=
    deviation has K >= C - deviation and ||K|| <= D + deviation, so a pass
    at this slack leaves K a frame by ``is_frame_bounds``."""
    return check(name, deviation, "<", base.lower, tol.margin(base.upper + deviation))


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
    whitened = check(
        "first_weighted_is_frame", float(left_eigs[0]), ">", 0.0, tol.rel * float(left_eigs[-1])
    )
    if whitened.passed:
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
    measured = math.sqrt(max(a - b, 0.0))
    allowed = alpha1 * math.sqrt(a) + alpha2 * math.sqrt(b)
    slack = tol.margin(math.sqrt(max(a, b, 1.0)))
    checks = (whitened, check("norm_difference_within", measured, "<=", allowed, slack))
    base = optimal_bounds(family)
    ratio = (1.0 + alpha2) ** 2 / (1.0 - alpha1) ** 2
    band = weights.band_upper / weights.band_lower
    details = {
        "alpha1": alpha1,
        "alpha2": alpha2,
        "claimed_lower": base.lower / (band * ratio),
        "claimed_upper": band * base.upper * ratio,
        "witness_margin": measured - allowed,
        "kappa": kappa,
    }
    return _frame_report("PROP_MIXED", base, optimal_bounds(other), checks, details, tol)


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
    diff = _family(left.analysis._flat - right.analysis._flat, left)
    s_diff = frame_operator(diff).flat
    combo = alpha1 * s_left + alpha2 * s_right
    gap = float(np.linalg.eigh(hermitian_part(s_diff - combo))[0][-1])
    scale = max(*spectral_norm(np.stack([combo, s_diff])).tolist(), 1.0)

    base = optimal_bounds(family)
    checks = (check("difference_dominated", gap, "<=", 0.0, tol.margin(scale)),)
    ratio = (1.0 + 2.0 * math.sqrt(alpha2)) ** 2 / (1.0 - math.sqrt(alpha1)) ** 2
    band = weights.band_upper / weights.band_lower
    details = {
        "alpha1": alpha1,
        "alpha2": alpha2,
        "claimed_lower": base.lower * ratio / band,
        "claimed_upper": (
            weights.band_upper * base.upper * ratio / base.lower
            if base.lower > 0.0
            else math.inf
        ),
    }
    return _frame_report("THM_DIFFERENCE", base, optimal_bounds(other), checks, details, tol)


def operators_from_family(other: GFrameFamily) -> list[AdjointableOp]:
    """Lift a family to candidate frame-operator summands adjoint(Q).Q."""
    return [_op(gram, other.algebra_dim) for gram in member_grams(other)]


# Subset enumeration is exact up to this many indefinite members; beyond
# it the supremum over finite subsets is bracketed (see _subset_sup_bracket).
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


def _subset_sup(deviations: np.ndarray) -> tuple[float, dict]:
    """Supremum over nonempty index subsets S of ||sum_S D_i||, and the
    bracket's ends for ``details`` when it is bracketed instead.

    For a fixed x, the subset that maximises x*(sum_S D_i)x takes every
    positive semidefinite member (the set P) and no negative semidefinite
    one (N).  So sup_S lmax(sum_S D_i) is the largest lmax(sum_P D_i +
    sum_S' D_i) over subsets S' of the indefinite members I, and the
    bottom end is the same with N and -lmin.  One ``eigvalsh`` call
    classes the members and decomposes the full sum, which is the
    supremum when every member is positive semidefinite or every one is
    negative semidefinite.  Otherwise the 2^|I| subsets of I are laid on
    the sum over P and on the sum over N (with P and N both empty, on
    nothing: plain enumeration), and each subset sum is read by its
    largest |eigenvalue|.  Past ``_SUBSET_LIMIT`` indefinite members the
    supremum is bracketed.

    A member classed semidefinite from its computed eigenvalues may be
    indefinite by O(eps ||D_i||); that moves the supremum by no more than
    the eigensolver's own error, far inside the checks' slack.
    """
    count, size = deviations.shape[0], deviations.shape[-1]
    flat = deviations.reshape(count, -1)
    # Two masks: numpy forms a one-row product by another BLAS path, which
    # rounds differently from a row of the enumeration's blocks.
    full = (np.ones((2, count), dtype=np.complex128) @ flat)[:1].reshape(1, size, size)
    eigs = np.linalg.eigvalsh(hermitian_part(np.concatenate([deviations, full])))
    psd, nsd = eigs[:count, 0] >= 0.0, eigs[:count, -1] <= 0.0
    sup = float(np.abs(eigs[-1]).max())
    if psd.all() or nsd.all():
        return sup, {}
    indefinite = np.flatnonzero(~(psd | nsd))
    if indefinite.size > _SUBSET_LIMIT:
        # Too many subsets to enumerate: the sound upper end is held to
        # the budget, so the check errs only towards HypothesisFails.
        lower, upper = _subset_sup_bracket(deviations)
        return upper, {"subset_sup_lower": lower, "subset_sup_upper": upper}
    # Subset s of the rows is the bits of s; a base sum is the last row,
    # so its subsets run from 2^|I| up.
    stop = 1 << indefinite.size
    members = flat[indefinite]
    pos, neg = psd & ~nsd, nsd & ~psd
    if pos.any() or neg.any():
        bases = np.stack([pos, neg]).astype(np.complex128) @ flat
        groups = [(np.vstack([members, base]), range(stop, 2 * stop)) for base in bases]
    else:
        groups = [(members, range(1, stop))]
    for rows, subsets in groups:
        for start in subsets[::_SUBSET_BLOCK]:
            block = np.arange(start, min(start + _SUBSET_BLOCK, subsets.stop))
            masks = ((block[:, None] >> np.arange(len(rows))) & 1).astype(np.complex128)
            sums = hermitian_part((masks @ rows).reshape(-1, size, size))
            sup = max(sup, float(np.abs(np.linalg.eigvalsh(sums)).max()))
    return sup, {}


def t12_check(
    family: GFrameFamily,
    delta_ops: Sequence[AdjointableOp],
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
    """Frame-operator perturbation with explicit norm budget.

    Hypothesis: over every index subset, the summed deviation between
    adjoint(P).P and the candidate summand stays within C/D, where
    (C, D) are the input's optimal bounds and D > 1.  Conclusion: the
    summand total K is a frame operator: K >= C - ||S - K||, and the
    subset supremum bounds ||S - K||.  The proof-step contraction
    ||I - S^-1 K|| and its limit 1/D are recorded in ``details``.
    """
    if len(delta_ops) != family.size:
        raise DimensionMismatch("one candidate summand per member required")
    for op in delta_ops:
        require_endomorphism(op, family, "candidate summands")

    base = optimal_bounds(family)
    c_low, d_high = base.lower, base.upper
    budget = c_low / d_high if d_high > 0.0 else math.inf

    summands = np.stack([op.flat for op in delta_ops])
    least, margin = positivity(summands, tol)
    # The first summand that fails, else the one nearest its margin.
    worst = int(np.argmin(np.where(least >= -margin, least + margin, -np.inf)))
    deviations = member_grams(family) - summands
    subset_sup, bracket = _subset_sup(deviations)
    checks = (
        check("upper_above_one", d_high, ">", 1.0),
        check("summands_positive", float(least[worst]), ">=", 0.0, float(margin[worst])),
        check("subset_sup_within_budget", subset_sup, "<=", budget, tol.margin(max(budget, 1.0))),
        _below_lower("subset_sup_below_lower", subset_sup, base, tol),
    )

    k_flat = sum(op.flat for op in delta_ops)
    achieved = spectrum_bounds(k_flat)
    if is_frame_bounds(base, tol):
        contraction = spectral_norm(_contraction(frame_operator(family).flat, k_flat))
    else:
        contraction = math.inf
    details = {
        # The first claimed value reads as a bound on ||K^-1||, which a
        # Neumann argument puts at D/(C(D-1)): recorded, not asserted.
        "claimed_lower": (
            (1.0 / c_low) * ((d_high + 1.0) / d_high) if c_low > 0.0 else math.inf
        ),
        "claimed_upper": budget + d_high,
        "contraction_norm": contraction,
        "contraction_limit": 1.0 / d_high if d_high > 0.0 else math.inf,
        "inverse_norm": 1.0 / achieved.lower if achieved.lower > 0.0 else math.inf,
        **bracket,
    }
    return _frame_report("T12_OPERATOR", base, achieved, checks, details, tol)


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
    distance, contraction = spectral_norm(
        np.stack([s_left - s_right, _contraction(s_left, s_right)])
    ).tolist()
    checks = (
        check("proximity_within_alpha", distance, "<=", alpha, tol.margin(max(alpha, 1.0))),
        _below_lower("proximity_below_lower", distance, base, tol),
    )
    details = {
        "alpha": alpha,
        "contraction_norm": contraction,
        "contraction_limit": alpha / c_low,
    }
    return _frame_report("FINAL_COROLLARY", base, optimal_bounds(other), checks, details, tol)


def _contraction(s_flat: np.ndarray, k_flat: np.ndarray) -> np.ndarray:
    """I - S^-1 K for an invertible S; a norm below one makes K invertible."""
    eye = np.eye(s_flat.shape[0], dtype=np.complex128)
    return eye - np.linalg.solve(s_flat, k_flat)
