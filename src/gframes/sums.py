"""Checkers for sums and compositions of g-frame families.

Each checker constructs the combined family, measures the stated
hypotheses numerically, compares achieved optimal bounds against the
bounds the statement predicts, and reports a verdict:

* ``HypothesisFails``   - a hypothesis did not hold; nothing asserted.
* ``ConclusionHolds``   - hypotheses held and the combined family behaves
  as claimed (including predicted-bound conservativeness).
* ``ConclusionFails``   - hypotheses held but the claim is violated.

A measured hypothesis that fails is a failed check, never an exception.
Checkers raise a ``GFrameError`` only on inputs outside the statement,
which the scenario runner reports with exit 2: operands of mismatched
sizes (``DimensionMismatch``), a ``lam_bound`` that is not positive
(``BadRange``), a ``TIGHT_SUM`` or ``TIGHT_MN`` input family that is not
a tight frame (``NotTight``), and, in ``stability``, an ``alpha1`` or
``alpha2`` outside (0, 1) or a ``FINAL_COROLLARY`` alpha outside (0, C),
C the input's lower bound (``AlphaOutOfRange``).
"""

from __future__ import annotations

import math
import operator
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
    TIGHTNESS_REL,
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
)
from .hilbert import (
    AdjointableOp,
    _op,
    compose,
    identity_op,
    is_surjective,
    isometry_defect,
    op_norm,
)


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


_SENSES = {"<": operator.lt, "<=": operator.le, ">": operator.gt, ">=": operator.ge}


def check(name: str, measured: float, sense: str, limit: float, slack: float = 0.0) -> CheckItem:
    """The hypothesis ``measured <sense> limit``, ``sense`` one of
    ``<``, ``<=``, ``>`` and ``>=``, with ``limit`` the theorem's bare
    limit.  A strict sense must clear it by ``slack``, a non-strict one
    may miss it by ``slack``; the item records the limit so moved."""
    limit = limit - slack if sense in ("<", ">=") else limit + slack
    return CheckItem(name, bool(_SENSES[sense](measured, limit)), measured, limit)


@dataclass(frozen=True)
class TheoremReport:
    """The outcome of one checker run, built only by ``theorem_report``,
    which alone picks the verdict.  The perturbation checkers predict no
    bounds and leave ``result_kind`` None; their inputs and recorded
    constants sit in ``details``."""

    theorem_id: str
    achieved: FrameBounds
    verdict: Verdict
    hypothesis_checks: tuple[CheckItem, ...] = ()
    predicted_lower: float | None = None
    predicted_upper: float | None = None
    result_kind: str | None = None
    details: dict[str, float] = field(default_factory=dict)


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
    # Stacked theta-then-delta entries and the eig(w* w) range, set at construction.
    entries: np.ndarray = field(init=False, repr=False, compare=False)
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
        vars(self).update(entries=entries, spectrum_range=(float(least.min()), float(most.max())))

    @property
    def count(self) -> int:
        return len(self.thetas)

    @property
    def algebra_dim(self) -> int:
        return self.thetas[0].dim


def _bound_slack(achieved: FrameBounds, tol: Tolerance) -> float:
    return tol.rel * achieved.upper


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
    """The one checker tail, and the one place a verdict is picked: any
    failed check gives ``HypothesisFails``, else the conclusion decides.
    ``achieved`` and ``result_kind`` come from ``cls``.  Unless the
    checker states its own conclusion, the claim is a frame within the
    predicted bounds."""
    achieved = cls.bounds
    if conclusion is None:
        slack = _bound_slack(achieved, tol)
        conclusion = (
            is_frame_bounds(achieved, tol)
            and (predicted_lower is None or achieved.lower >= predicted_lower - slack)
            and (predicted_upper is None or achieved.upper <= predicted_upper + slack)
        )
    if not all(c.passed for c in checks):
        verdict = Verdict.HYPOTHESIS_FAILS
    else:
        verdict = Verdict.CONCLUSION_HOLDS if conclusion else Verdict.CONCLUSION_FAILS
    return TheoremReport(
        theorem_id=theorem_id,
        hypothesis_checks=checks,
        predicted_lower=predicted_lower,
        predicted_upper=predicted_upper,
        achieved=achieved,
        verdict=verdict,
        result_kind=cls.kind.value if cls.kind else None,
        details=details or {},
    )


def _positivity_check(name: str, op: AdjointableOp, tol: Tolerance) -> CheckItem:
    least, margin = positivity(op.flat, tol)
    return check(name, least, ">=", 0.0, margin)


def _frame_check(name: str, bounds: FrameBounds, tol: Tolerance) -> CheckItem:
    """``is_frame_bounds`` as a check."""
    return check(name, bounds.lower, ">", 0.0, tol.rel * bounds.upper)


def _family(flat: np.ndarray, like: GFrameFamily) -> GFrameFamily:
    """``like``'s member dims on the scanned analysis flattening ``flat``."""
    return GFrameFamily(_op(flat, like.algebra_dim, scan=True), like.member_dims)


def _member_sums(family: GFrameFamily, other: GFrameFamily) -> GFrameFamily:
    """Members P_i + Q_i: analysis operator T_P + T_Q."""
    return _family(family.analysis._flat + other.analysis._flat, family)


def _mn_family(
    family: GFrameFamily, other: GFrameFamily, m_op: AdjointableOp, n_op: AdjointableOp
) -> GFrameFamily:
    """Members P_i.M + Q_i.N: analysis operator T_P.M + T_Q.N."""
    return _family(m_op._flat @ family.analysis._flat + n_op._flat @ other.analysis._flat, family)


def _s_formula_residual(formula: AdjointableOp, family: GFrameFamily) -> float:
    direct = frame_operator(family).flat
    denom = max(optimal_bounds(family).upper, 1.0)
    return spectral_norm(formula.flat - direct) / denom


def weighted_family(family: GFrameFamily, coeffs) -> GFrameFamily:
    """Family whose members are the originals composed with the lifted
    algebra coefficients on their target modules: every n-column block
    of the analysis flattening times its member's coefficient."""
    coeffs = tuple(coeffs)
    return _lifted(family, [w.entries for w in coeffs], {w.dim for w in coeffs})


def _lifted(family: GFrameFamily, entries, dims: set[int]) -> GFrameFamily:
    """``weighted_family`` on the coefficients' entries and algebra dims."""
    if len(entries) != family.size:
        raise DimensionMismatch("one coefficient per family member required")
    n = family.algebra_dim
    if dims != {n}:
        raise DimensionMismatch("coefficients live over a different algebra")
    rows = n * family.source_len
    blocks = family.analysis._flat.reshape(rows, -1, n).swapaxes(0, 1)
    lifted = np.repeat(entries, family.member_dims, axis=0)
    return _family((blocks @ lifted).swapaxes(0, 1).reshape(rows, -1), family)


def weighted_pair(
    family: GFrameFamily, other: GFrameFamily, weights: ScalarWeights
) -> tuple[GFrameFamily, GFrameFamily]:
    """The first family weighted by the thetas, the second by the deltas."""
    count, dims = weights.count, {weights.algebra_dim}
    left = _lifted(family, weights.entries[:count], dims)
    return left, _lifted(other, weights.entries[count:], dims)


def _weight_band_check(weights: ScalarWeights) -> CheckItem:
    """The least weight spectrum above the band.  It can only pass:
    ``ScalarWeights`` raises ``BadRange`` for a weight outside either
    side of the band."""
    return check("weights_in_band", weights.spectrum_range[0], ">", weights.band_lower)


def perturb_lambda(
    family: GFrameFamily, lam: AdjointableOp, tol: Tolerance = DEFAULT_TOL
) -> TheoremReport:
    """Members composed with (I + lam); a frame again whenever the
    conjugated frame operator dominates the original."""
    require_endomorphism(lam, family, "lam")
    shifted = identity_op(family.algebra_dim, family.source_len) + lam
    new_family = GFrameFamily(compose(family.analysis, shifted), family.member_dims)

    base = optimal_bounds(family)
    s_op, sh = frame_operator(family), shifted._flat
    conjugated = _op(sh @ (s_op._flat @ sh.conj().T), family.algebra_dim, scan=True)
    checks = (
        _frame_check("input_is_frame", base, tol),
        _positivity_check("conjugation_dominates", conjugated - s_op, tol),
    )
    return theorem_report(
        "PERTURB_LAMBDA",
        classify(new_family, tol),
        checks,
        base.lower,
        2.0 * base.upper * (1.0 + op_norm(lam) ** 2),
        tol,
        details={"s_formula_residual": _s_formula_residual(conjugated, new_family)},
    )


def op_weighted_sum(
    family: GFrameFamily,
    other: GFrameFamily,
    m_op: AdjointableOp,
    n_op: AdjointableOp,
    tol: Tolerance = DEFAULT_TOL,
) -> TheoremReport:
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

    dim, m, n = family.algebra_dim, m_op._flat, n_op._flat
    # C-ordered, as a one-row synthesis goes to gemv, whose sums follow the layout.
    mh, nh = np.conjugate(m.T, order="C"), np.conjugate(n.T, order="C")
    synthesis = family.analysis._flat.conj().T @ mh + other.analysis._flat.conj().T @ nh
    combined_synthesis = _op(synthesis, dim, scan=True)

    s_left, s_right = frame_operator(family)._flat, frame_operator(other)._flat
    cross = cross_operator(family, other)._flat
    s_formula = m @ (s_left @ mh) + n @ (cross @ mh)
    s_formula = _op(s_formula + m @ (cross.conj().T @ nh) + n @ (s_right @ nh), dim, scan=True)

    cls = classify(new_family, tol)
    cond_frame = is_frame_bounds(cls.bounds, tol)
    cond_surjective = is_surjective(combined_synthesis, tol)
    cond_positive = is_frame_bounds(spectrum_bounds(s_formula.flat), tol)
    residual = _s_formula_residual(s_formula, new_family)

    agree = cond_frame == cond_surjective == cond_positive
    norm_m, norm_n = spectral_norm(np.stack([m_op.flat, n_op.flat])).tolist()
    predicted_upper = 2.0 * (
        optimal_bounds(family).upper * norm_m**2 + optimal_bounds(other).upper * norm_n**2
    )
    slack = _bound_slack(cls.bounds, tol)
    conclusion = agree and residual <= FORMULA_AGREEMENT_REL and (
        cls.bounds.upper <= predicted_upper + slack
    )
    return theorem_report(
        "T3_EQUIV",
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
    s_left, s_right, c = frame_operator(family)._flat, frame_operator(other)._flat, cross._flat
    s_formula = _op(s_left + c + c.conj().T + s_right, family.algebra_dim, scan=True)
    return theorem_report(
        "T3_COROLLARY",
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
) -> TheoremReport:
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
        check("weighted_bessel_below_weighted_frame", lhs, "<", rhs),
    )
    predicted_lower = (
        math.sqrt(weights.band_lower * d_low) - math.sqrt(weights.band_upper * bessel)
    ) ** 2
    return theorem_report(
        "T7_SCALAR",
        classify(new_family, tol),
        checks,
        predicted_lower,
        2.0 * weights.band_upper * (bessel + d_high),
        tol,
        details={"bessel_bound": bessel, "frame_lower": d_low},
    )


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
        "T11_POSITIVE",
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
    slack = tol.rel * max(left.upper, right.upper)
    checks = (check("mixed_operator_vanishes", cross_norm, "<=", 0.0, slack),)
    return _tight_constant(left), _tight_constant(right), checks


def _tight_at(achieved: FrameBounds, constant: float, tol: Tolerance) -> bool:
    """A tight frame whose constant matches ``constant`` to TIGHTNESS_REL."""
    return (
        is_frame_bounds(achieved, tol)
        and achieved.tight
        and abs(_tight_constant(achieved) - constant) <= TIGHTNESS_REL * constant
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
        "TIGHT_SUM",
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
    checks = (
        _frame_check("first_is_frame", bounds_left, tol),
        _positivity_check("mixed_operator_positive", cross, tol),
        check("lam_is_isometry", isometry_defect(lam), "<=", 0.0, tol.margin(1.0)),
    )
    summed = family.analysis + other.analysis
    new_family = GFrameFamily(compose(summed, lam), family.member_dims)
    return theorem_report(
        "ISOMETRY_SUM",
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

    svals = np.linalg.svd(np.stack([n_op.flat, m_op.flat]), compute_uv=False).tolist()
    sigma_min, norm_n, norm_m = svals[0][-1], svals[0][0], svals[1][0]
    dominance_flat = m_op.flat @ m_op.flat.conj().T - n_op.flat @ n_op.flat.conj().T
    dominance = float(np.linalg.eigvalsh(hermitian_part(dominance_flat))[0])

    checks = (
        _frame_check("input_is_frame", bounds_left, tol),
        check("n_bounded_below", sigma_min, ">", lam_bound),
        check("bessel_below_frame_lower", bessel, "<", d_low),
        check("aux_m_dominates_n", dominance, ">=", 0.0, tol.margin(max(norm_m, norm_n) ** 2)),
    )
    return theorem_report(
        "LAMBDA_LOWER",
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

    m, n, size = m_op._flat, n_op._flat, family.algebra_dim * family.source_len
    combo = alpha1 * (m @ m.conj().T) + alpha2 * (n @ n.conj().T)
    combo = _op(combo, family.algebra_dim, scan=True)._flat
    alpha = float(np.trace(combo).real) / size
    residual, combo_norm = spectral_norm(np.stack([combo - alpha * np.eye(size), combo])).tolist()
    combo_margin = tol.rel * combo_norm
    condition_holds = residual <= combo_margin and alpha > combo_margin

    cls = classify(_mn_family(family, other, m_op, n_op), tol)
    measured_tight = cls.bounds.tight and is_frame_bounds(cls.bounds, tol)
    if condition_holds:
        conclusion = _tight_at(cls.bounds, alpha, tol)
    else:
        conclusion = not measured_tight
    predicted = alpha if condition_holds else None
    return theorem_report(
        "TIGHT_MN",
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
