"""Checkers for sums and compositions of g-frame families.

Each checker constructs the combined family, measures the stated
hypotheses numerically, compares achieved optimal bounds against the
bounds the statement predicts, and reports a verdict:

* ``HypothesisFails``   - a hypothesis did not hold; nothing asserted.
* ``ConclusionHolds``   - hypotheses held and the combined family behaves
  as claimed (including predicted-bound conservativeness).
* ``ConclusionFails``   - hypotheses held but the claim is violated.

Checkers never raise on hypothesis failure, only on malformed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .algebra import (
    AlgebraElement,
    DEFAULT_TOL,
    Tolerance,
    hermitian_part,
    positivity,
    spectral_norm,
)
from .errors import BadRange, DimensionMismatch, NotTight
from .frames import (
    Classification,
    FrameBounds,
    GFrameFamily,
    classify,
    cross_operator,
    frame_operator,
    is_frame_bounds,
    optimal_bounds,
    require_compatible,
    require_endomorphism,
    spectrum_bounds,
    synthesis_op,
)
from .hilbert import (
    AdjointableOp,
    adjoint_op,
    compose,
    identity_op,
    is_surjective,
    isometry_defect,
    op_norm,
)


class TheoremId(str, Enum):
    PERTURB_LAMBDA = "PERTURB_LAMBDA"
    T3_EQUIV = "T3_EQUIV"
    T3_COROLLARY = "T3_COROLLARY"
    T7_SCALAR = "T7_SCALAR"
    T11_POSITIVE = "T11_POSITIVE"
    TIGHT_SUM = "TIGHT_SUM"
    ISOMETRY_SUM = "ISOMETRY_SUM"
    LAMBDA_LOWER = "LAMBDA_LOWER"
    TIGHT_MN = "TIGHT_MN"


class Verdict(str, Enum):
    CONCLUSION_HOLDS = "ConclusionHolds"
    HYPOTHESIS_FAILS = "HypothesisFails"
    CONCLUSION_FAILS = "ConclusionFails"


# Closed-form frame-operator expressions must match the directly
# assembled operator to this relative accuracy.
FORMULA_AGREEMENT_REL = 1e-10


@dataclass(frozen=True)
class CheckItem:
    """One named hypothesis check with its measured value."""

    name: str
    passed: bool
    measured: float | None = None
    limit: float | None = None


@dataclass(frozen=True)
class TheoremReport:
    """The outcome of one checker run.  Perturbation checkers fill
    ``alphas`` to ``bound_discrepancy_note`` and leave ``result_kind``
    None; the other checkers fill the fields up to ``result_kind``."""

    theorem_id: str
    achieved: FrameBounds
    verdict: Verdict
    hypothesis_checks: tuple[CheckItem, ...] = ()
    predicted_lower: float | None = None
    predicted_upper: float | None = None
    result_kind: str | None = None
    alphas: tuple[float, float] | None = None
    measured_lhs: float | None = None
    allowed_rhs: float | None = None
    claimed_bounds: tuple[float, float] | None = None
    bound_discrepancy_note: str | None = None
    details: dict[str, float] = field(default_factory=dict)

    @property
    def hypotheses_pass(self) -> bool:
        # From the verdict: perturbation reports list no hypothesis checks.
        return self.verdict is not Verdict.HYPOTHESIS_FAILS


@dataclass(frozen=True)
class ScalarWeights:
    """Two sequences of algebra coefficients with a strict spectral band.

    Every theta and delta must satisfy band_lower < eig(w* w) < band_upper
    elementwise on the spectrum; violations raise BadRange at construction.
    """

    thetas: tuple[AlgebraElement, ...]
    deltas: tuple[AlgebraElement, ...]
    band_lower: float
    band_upper: float
    # Smallest and largest eig(w* w) over all weights, set at construction.
    spectrum_range: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "thetas", tuple(self.thetas))
        object.__setattr__(self, "deltas", tuple(self.deltas))
        if not (0.0 < self.band_lower < self.band_upper):
            raise BadRange("weight band must satisfy 0 < lower < upper")
        if len(self.thetas) != len(self.deltas) or not self.thetas:
            raise BadRange("weight sequences must be nonempty and equally long")
        if len({w.dim for w in self.thetas + self.deltas}) != 1:
            raise DimensionMismatch("weights must all lie in one algebra")
        entries = np.stack([w.entries for w in self.thetas + self.deltas])
        eigs = np.linalg.eigvalsh(entries.conj().swapaxes(-1, -2) @ entries)
        least, most = eigs[:, 0], eigs[:, -1]
        outside = np.flatnonzero((least <= self.band_lower) | (most >= self.band_upper))
        if outside.size:
            first = int(outside[0])
            seq_name = "theta" if first < self.count else "delta"
            raise BadRange(
                f"{seq_name} weight spectrum [{least[first]:.6g}, {most[first]:.6g}]"
                f" leaves the open band ({self.band_lower}, {self.band_upper})"
            )
        object.__setattr__(
            self, "spectrum_range", (float(least.min()), float(most.max()))
        )

    @property
    def count(self) -> int:
        return len(self.thetas)

    @property
    def algebra_dim(self) -> int:
        return self.thetas[0].dim


def _verdict(hypotheses_hold: bool, conclusion_holds: bool) -> Verdict:
    if not hypotheses_hold:
        return Verdict.HYPOTHESIS_FAILS
    return Verdict.CONCLUSION_HOLDS if conclusion_holds else Verdict.CONCLUSION_FAILS


def _bound_slack(achieved: FrameBounds, tol: Tolerance) -> float:
    return tol.margin(max(1.0, achieved.upper))


def theorem_report(
    theorem_id: str,
    cls: Classification,
    checks: tuple[CheckItem, ...],
    predicted_lower: float | None,
    predicted_upper: float | None,
    tol: Tolerance,
    details: dict[str, float] | None = None,
    conclusion: bool | None = None,
) -> TheoremReport:
    """The shared checker tail: ``achieved`` and ``result_kind`` come from
    the one classification of the combined family.  Unless the checker
    states its own conclusion, the claim is a frame within the predicted
    bounds."""
    achieved = cls.bounds
    if conclusion is None:
        slack = _bound_slack(achieved, tol)
        conclusion = (
            is_frame_bounds(achieved, tol)
            and (predicted_lower is None or achieved.lower >= predicted_lower - slack)
            and (predicted_upper is None or achieved.upper <= predicted_upper + slack)
        )
    return TheoremReport(
        theorem_id=theorem_id,
        hypothesis_checks=checks,
        predicted_lower=predicted_lower,
        predicted_upper=predicted_upper,
        achieved=achieved,
        verdict=_verdict(all(c.passed for c in checks), conclusion),
        result_kind=cls.kind.value,
        details=details or {},
    )


def _positivity_check(name: str, op: AdjointableOp, tol: Tolerance) -> CheckItem:
    passed, least, margin = positivity(op.flat, tol)
    return CheckItem(name=name, passed=passed, measured=least, limit=-margin)


def _frame_check(name: str, bounds: FrameBounds, tol: Tolerance) -> CheckItem:
    return CheckItem(
        name=name,
        passed=is_frame_bounds(bounds, tol),
        measured=bounds.lower,
        limit=tol.margin(bounds.upper),
    )


def _member_sums(family: GFrameFamily, other: GFrameFamily) -> GFrameFamily:
    """Members P_i + Q_i: analysis operator T_P + T_Q."""
    return GFrameFamily(family.analysis + other.analysis, family.member_dims)


def _mn_family(
    family: GFrameFamily, other: GFrameFamily, m_op: AdjointableOp, n_op: AdjointableOp
) -> GFrameFamily:
    """Members P_i.M + Q_i.N: analysis operator T_P.M + T_Q.N."""
    return GFrameFamily(
        compose(family.analysis, m_op) + compose(other.analysis, n_op),
        family.member_dims,
    )


def _s_formula_residual(formula: AdjointableOp, family: GFrameFamily) -> float:
    direct = frame_operator(family).flat
    denom = max(spectral_norm(direct), 1.0)
    return spectral_norm(formula.flat - direct) / denom


def weighted_family(family: GFrameFamily, coeffs) -> GFrameFamily:
    """Family whose members are the originals composed with the lifted
    algebra coefficients on their target modules: every n-column block
    of the analysis flattening times its member's coefficient."""
    coeffs = tuple(coeffs)
    if len(coeffs) != family.size:
        raise DimensionMismatch("one coefficient per family member required")
    n = family.algebra_dim
    if any(w.dim != n for w in coeffs):
        raise DimensionMismatch("coefficients live over a different algebra")
    rows = n * family.source_len
    blocks = family.analysis.flat.reshape(rows, -1, n).swapaxes(0, 1)
    lifted = np.repeat([w.entries for w in coeffs], family.member_dims, axis=0)
    weighted = (blocks @ lifted).swapaxes(0, 1).reshape(rows, -1)
    return GFrameFamily(AdjointableOp(weighted, n), family.member_dims)


def weighted_pair(
    family: GFrameFamily, other: GFrameFamily, weights: ScalarWeights
) -> tuple[GFrameFamily, GFrameFamily]:
    """The first family weighted by the thetas, the second by the deltas."""
    left = weighted_family(family, weights.thetas)
    return left, weighted_family(other, weights.deltas)


def _weight_band_check(weights: ScalarWeights) -> CheckItem:
    worst_low, worst_high = weights.spectrum_range
    passed = weights.band_lower < worst_low and worst_high < weights.band_upper
    return CheckItem("weights_in_band", passed, worst_low, weights.band_lower)


def perturb_lambda(
    family: GFrameFamily, lam: AdjointableOp, tol: Tolerance = DEFAULT_TOL
) -> tuple[GFrameFamily, TheoremReport]:
    """Members composed with (I + lam); a frame again whenever the
    conjugated frame operator dominates the original."""
    require_endomorphism(lam, family, "lam")
    shifted = identity_op(family.algebra_dim, family.source_len) + lam
    new_family = GFrameFamily(compose(family.analysis, shifted), family.member_dims)

    base = optimal_bounds(family)
    s_op = frame_operator(family)
    conjugated = adjoint_op(shifted) @ s_op @ shifted
    checks = (
        _frame_check("input_is_frame", base, tol),
        _positivity_check("conjugation_dominates", conjugated - s_op, tol),
    )
    report = theorem_report(
        TheoremId.PERTURB_LAMBDA.value,
        classify(new_family, tol),
        checks,
        base.lower,
        2.0 * base.upper * (1.0 + op_norm(lam) ** 2),
        tol,
        details={"s_formula_residual": _s_formula_residual(conjugated, new_family)},
    )
    return new_family, report


def op_weighted_sum(
    family: GFrameFamily,
    other: GFrameFamily,
    m_op: AdjointableOp,
    n_op: AdjointableOp,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[GFrameFamily, TheoremReport]:
    """Equivalence checker for members P.M + Q.N.

    The three conditions (combined family is a frame; the combined
    synthesis operator is surjective; the closed-form frame operator is
    strictly positive) must agree pairwise; their agreement is the
    conclusion.
    """
    require_compatible(family, other)
    require_endomorphism(m_op, family, "m_op")
    require_endomorphism(n_op, family, "n_op")
    new_family = _mn_family(family, other, m_op, n_op)

    mh, nh = adjoint_op(m_op), adjoint_op(n_op)
    combined_synthesis = mh @ synthesis_op(family) + nh @ synthesis_op(other)

    s_left = frame_operator(family)
    s_right = frame_operator(other)
    cross = cross_operator(family, other)
    s_formula = (
        mh @ s_left @ m_op
        + mh @ cross @ n_op
        + nh @ adjoint_op(cross) @ m_op
        + nh @ s_right @ n_op
    )

    cls = classify(new_family, tol)
    cond_frame = is_frame_bounds(cls.bounds, tol)
    cond_surjective = is_surjective(combined_synthesis, tol)
    cond_positive = is_frame_bounds(spectrum_bounds(s_formula.flat), tol)
    residual = _s_formula_residual(s_formula, new_family)

    agree = cond_frame == cond_surjective == cond_positive
    predicted_upper = 2.0 * (
        optimal_bounds(family).upper * op_norm(m_op) ** 2
        + optimal_bounds(other).upper * op_norm(n_op) ** 2
    )
    slack = _bound_slack(cls.bounds, tol)
    conclusion = agree and residual <= FORMULA_AGREEMENT_REL and (
        cls.bounds.upper <= predicted_upper + slack
    )
    report = theorem_report(
        TheoremId.T3_EQUIV.value,
        cls,
        (),
        None,
        predicted_upper,
        tol,
        conclusion=conclusion,
        details={
            "condition_frame": float(cond_frame),
            "condition_surjective": float(cond_surjective),
            "condition_positive": float(cond_positive),
            "s_formula_residual": residual,
        },
    )
    return new_family, report


def t3_corollary_check(
    family: GFrameFamily, other: GFrameFamily, tol: Tolerance = DEFAULT_TOL
) -> TheoremReport:
    """Plain member sums form a frame when the mixed operator is positive.

    The printed statement admits degenerate inputs (both families merely
    Bessel), so an auxiliary hypothesis requires at least one input to
    classify as a frame before the conclusion is asserted.
    """
    require_compatible(family, other)
    cross = cross_operator(family, other)
    bounds_left = optimal_bounds(family)
    bounds_right = optimal_bounds(other)
    either_frame = is_frame_bounds(bounds_left, tol) or is_frame_bounds(
        bounds_right, tol
    )
    checks = (
        _positivity_check("mixed_operator_positive", cross, tol),
        CheckItem(
            "aux_either_input_frame",
            either_frame,
            max(bounds_left.lower, bounds_right.lower),
            None,
        ),
    )

    new_family = _member_sums(family, other)
    s_formula = (
        frame_operator(family)
        + cross
        + adjoint_op(cross)
        + frame_operator(other)
    )
    return theorem_report(
        TheoremId.T3_COROLLARY.value,
        classify(new_family, tol),
        checks,
        bounds_left.lower + bounds_right.lower,
        2.0 * (bounds_left.upper + bounds_right.upper),
        tol,
        details={"s_formula_residual": _s_formula_residual(s_formula, new_family)},
    )


def scalar_weighted_sum(
    family: GFrameFamily,
    other: GFrameFamily,
    weights: ScalarWeights,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[GFrameFamily, TheoremReport]:
    """Coefficient-weighted member sums.

    Hypotheses: the first family is a frame with lower bound D, the
    second is Bessel with bound B_delta, the weights stay in their band,
    and band_upper * B_delta < band_lower * D.  The predicted lower
    bound is (sqrt(band_lower * D) - sqrt(band_upper * B_delta))^2.
    """
    require_compatible(family, other)
    new_family = _member_sums(*weighted_pair(family, other, weights))

    bounds_left = optimal_bounds(family)
    bounds_right = optimal_bounds(other)
    d_low, d_high = bounds_left.lower, bounds_left.upper
    bessel = bounds_right.upper
    lhs = weights.band_upper * bessel
    rhs = weights.band_lower * d_low
    checks = (
        _frame_check("input_is_frame", bounds_left, tol),
        _weight_band_check(weights),
        CheckItem("weighted_bessel_below_weighted_frame", lhs < rhs, lhs, rhs),
    )
    predicted_lower = (
        math.sqrt(weights.band_lower * d_low) - math.sqrt(weights.band_upper * bessel)
    ) ** 2
    report = theorem_report(
        TheoremId.T7_SCALAR.value,
        classify(new_family, tol),
        checks,
        predicted_lower,
        2.0 * weights.band_upper * (bessel + d_high),
        tol,
        details={"bessel_bound": bessel, "frame_lower": d_low},
    )
    return new_family, report


def t11_check(
    family: GFrameFamily,
    other: GFrameFamily,
    weights: ScalarWeights,
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
    """Weighted sum of two frames with a positive mixed operator.

    Predicted lower bound: band_lower * (alpha + beta) where alpha and
    beta are the input lower bounds.
    """
    require_compatible(family, other)
    bounds_left = optimal_bounds(family)
    bounds_right = optimal_bounds(other)
    cross = cross_operator(family, other)
    checks = (
        _frame_check("first_is_frame", bounds_left, tol),
        _frame_check("second_is_frame", bounds_right, tol),
        _weight_band_check(weights),
        _positivity_check("mixed_operator_positive", cross, tol),
    )
    new_family = _member_sums(*weighted_pair(family, other, weights))
    return theorem_report(
        TheoremId.T11_POSITIVE.value,
        classify(new_family, tol),
        checks,
        weights.band_lower * (bounds_left.lower + bounds_right.lower),
        2.0 * weights.band_upper * (bounds_left.upper + bounds_right.upper),
        tol,
    )


def _tight_constant(bounds: FrameBounds) -> float:
    return (bounds.lower + bounds.upper) / 2.0


def _tight_pair(
    family: GFrameFamily, other: GFrameFamily, tol: Tolerance
) -> tuple[float, float, tuple[CheckItem, ...]]:
    """Tight constants of two families that must be tight frames, with
    the check that their mixed operator vanishes."""
    left, right = optimal_bounds(family), optimal_bounds(other)
    for label, bounds in (("first family", left), ("second family", right)):
        if not bounds.tight or not is_frame_bounds(bounds, tol):
            raise NotTight(
                f"{label} must be a tight frame, has bounds"
                f" ({bounds.lower:.6g}, {bounds.upper:.6g})"
            )
    cross_norm = op_norm(cross_operator(family, other))
    limit = tol.margin(max(1.0, left.upper, right.upper))
    checks = (
        CheckItem("mixed_operator_vanishes", cross_norm <= limit, cross_norm, limit),
    )
    return _tight_constant(left), _tight_constant(right), checks


def _tight_at(achieved: FrameBounds, constant: float, tol: Tolerance) -> bool:
    """A tight frame whose constant matches ``constant`` to 1e-8 relative."""
    return (
        is_frame_bounds(achieved, tol)
        and achieved.tight
        and abs(_tight_constant(achieved) - constant) <= 1e-8 * max(1.0, constant)
    )


def tight_sum_check(
    family: GFrameFamily, other: GFrameFamily, tol: Tolerance = DEFAULT_TOL
) -> TheoremReport:
    """Member sums of two tight frames with vanishing mixed operator are
    tight with constant the sum of the two tight constants."""
    require_compatible(family, other)
    alpha1, alpha2, checks = _tight_pair(family, other, tol)
    cls = classify(_member_sums(family, other), tol)
    target = alpha1 + alpha2
    return theorem_report(
        TheoremId.TIGHT_SUM.value,
        cls,
        checks,
        target,
        target,
        tol,
        conclusion=_tight_at(cls.bounds, target, tol),
        details={
            "achieved_tight_constant": _tight_constant(cls.bounds),
            "target_tight_constant": target,
        },
    )


def isometry_sum_check(
    family: GFrameFamily,
    other: GFrameFamily,
    lam: AdjointableOp,
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
    """Member sums composed with an isometry keep the first family's
    lower bound when the mixed operator is positive."""
    require_compatible(family, other)
    require_endomorphism(lam, family, "lam")
    bounds_left = optimal_bounds(family)
    bounds_right = optimal_bounds(other)
    cross = cross_operator(family, other)
    gram_dev, limit = isometry_defect(lam), tol.margin(1.0)
    checks = (
        _frame_check("first_is_frame", bounds_left, tol),
        _positivity_check("mixed_operator_positive", cross, tol),
        CheckItem("lam_is_isometry", gram_dev <= limit, gram_dev, limit),
    )
    summed = family.analysis + other.analysis
    new_family = GFrameFamily(compose(summed, lam), family.member_dims)
    return theorem_report(
        TheoremId.ISOMETRY_SUM.value,
        classify(new_family, tol),
        checks,
        bounds_left.lower,
        2.0 * (bounds_left.upper + bounds_right.upper),
        tol,
    )


def lambda_lower_check(
    family: GFrameFamily,
    other: GFrameFamily,
    m_op: AdjointableOp,
    n_op: AdjointableOp,
    lam_bound: float,
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
    """Members P.M + Q.N with N bounded below by lam_bound.

    The derivation quietly uses ||Mx|| >= ||Nx||, which is not part of
    the stated hypotheses; it is verified here as an explicit auxiliary
    check instead of being assumed.

    Both "for all x" hypotheses are decided by spectral forms that
    imply them exactly.  A module vector x with flattening X has
    ||Nx|| = sigma_max(X N) >= sigma_min(N) ||x||, so N is bounded below
    by lam_bound when sigma_min(N) > lam_bound.  And MM* - NN* >= 0
    gives X MM* X* >= X NN* X*, hence ||Mx|| >= ||Nx||; dominance
    passes when the least eigenvalue of MM* - NN* is above -margin.
    """
    require_compatible(family, other)
    require_endomorphism(m_op, family, "m_op")
    require_endomorphism(n_op, family, "n_op")
    if lam_bound <= 0.0:
        raise BadRange("lam_bound must be positive")

    bounds_left = optimal_bounds(family)
    bounds_right = optimal_bounds(other)
    d_low, d_high = bounds_left.lower, bounds_left.upper
    bessel = bounds_right.upper

    n_svals = np.linalg.svd(n_op.flat, compute_uv=False)
    sigma_min = float(n_svals[-1])
    dominance_flat = m_op.flat @ m_op.flat.conj().T - n_op.flat @ n_op.flat.conj().T
    dominance = float(np.linalg.eigvalsh(hermitian_part(dominance_flat))[0])
    norm_m, norm_n = op_norm(m_op), float(n_svals[0])
    dom_margin = tol.margin(max(norm_m, norm_n) ** 2)

    checks = (
        _frame_check("input_is_frame", bounds_left, tol),
        CheckItem("n_bounded_below", sigma_min > lam_bound, sigma_min, lam_bound),
        CheckItem("bessel_below_frame_lower", bessel < d_low, bessel, d_low),
        CheckItem("aux_m_dominates_n", dominance >= -dom_margin, dominance, -dom_margin),
    )
    return theorem_report(
        TheoremId.LAMBDA_LOWER.value,
        classify(_mn_family(family, other, m_op, n_op), tol),
        checks,
        lam_bound**2 * (math.sqrt(d_low) - math.sqrt(bessel)) ** 2,
        2.0 * (d_high * norm_m**2 + bessel * norm_n**2),
        tol,
        details={"n_sigma_min": sigma_min},
    )


def tight_mn_check(
    family: GFrameFamily,
    other: GFrameFamily,
    m_op: AdjointableOp,
    n_op: AdjointableOp,
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
    """Both directions of the tight characterization for members P.M + Q.N.

    With two tight frames and vanishing mixed operator, the combined
    family is tight with constant alpha exactly when
    alpha1 M*M + alpha2 N*N equals alpha times the identity; alpha is
    extracted as the trace mean and confirmed by the residual.
    """
    require_compatible(family, other)
    require_endomorphism(m_op, family, "m_op")
    require_endomorphism(n_op, family, "n_op")
    alpha1, alpha2, checks = _tight_pair(family, other, tol)

    combo = alpha1 * (adjoint_op(m_op) @ m_op) + alpha2 * (adjoint_op(n_op) @ n_op)
    size = family.algebra_dim * family.source_len
    alpha = float(np.trace(combo.flat).real) / size
    residual = spectral_norm(combo.flat - alpha * np.eye(size))
    combo_margin = tol.margin(max(1.0, spectral_norm(combo.flat)))
    condition_holds = residual <= combo_margin and alpha > combo_margin

    cls = classify(_mn_family(family, other, m_op, n_op), tol)
    measured_tight = cls.bounds.tight and is_frame_bounds(cls.bounds, tol)
    if condition_holds:
        conclusion = _tight_at(cls.bounds, alpha, tol)
    else:
        conclusion = not measured_tight
    predicted = alpha if condition_holds else None
    return theorem_report(
        TheoremId.TIGHT_MN.value,
        cls,
        checks,
        predicted,
        predicted,
        tol,
        conclusion=conclusion,
        details={
            "identity_multiple": alpha,
            "identity_residual": residual,
            "achieved_tight_constant": _tight_constant(cls.bounds),
            "condition_holds": float(condition_holds),
            "measured_tight": float(measured_tight),
        },
    )
