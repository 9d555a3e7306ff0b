"""Checker behavior on literal, constructed, and hypothesis-failing cases."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gframes.stability
import gframes.sums
from randoms import random_matrix, random_op
from gframes import (
    AdjointableOp,
    BadRange,
    DimensionMismatch,
    FamilyTarget,
    FrameKind,
    GenSpec,
    GFrameFamily,
    ModuleVector,
    NotTight,
    ScalarWeights,
    Verdict,
    apply,
    gen_family,
    gen_isometry,
    gen_orthogonal_pair,
    gen_weights,
    identity,
    identity_op,
    isometry_sum_check,
    lambda_lower_check,
    op_weighted_sum,
    optimal_bounds,
    perturb_lambda,
    scalar_norm,
    scalar_weighted_sum,
    scale_family,
    t3_corollary_check,
    t11_check,
    tight_mn_check,
    tight_sum_check,
    weighted_family,
    zero_op,
)


def _frame(seed, n=2, d=2, dims=(2, 2), lo=1.0, hi=2.0):
    return gen_family(GenSpec(seed, n, d, dims, FamilyTarget.bounds(lo, hi)))


def _parseval(seed, n=2, d=2, dims=(2, 2)):
    return gen_family(GenSpec(seed, n, d, dims, FamilyTarget.parseval()))


def _zero_family(n, d, dims):
    return GFrameFamily.of(zero_op(n, d, dz) for dz in dims)


def _unit_weights(count, n=2, band=(0.5, 2.0)):
    eye = identity(n)
    return ScalarWeights((eye,) * count, (eye,) * count, band[0], band[1])


class TestPerturbLambda:
    def test_zero_lambda_keeps_bounds(self):
        family = _frame(0)
        base = optimal_bounds(family)
        report = perturb_lambda(family, zero_op(2, 2, 2))
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.achieved.lower == pytest.approx(base.lower, rel=1e-9)
        assert report.achieved.upper == pytest.approx(base.upper, rel=1e-9)

    def test_identity_lambda_quadruples(self):
        family = _frame(1)
        base = optimal_bounds(family)
        report = perturb_lambda(family, identity_op(2, 2))
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.achieved.lower == pytest.approx(4 * base.lower, rel=1e-9)
        assert report.achieved.upper == pytest.approx(4 * base.upper, rel=1e-9)
        assert report.predicted_upper == pytest.approx(4 * base.upper, rel=1e-9)

    def test_frame_operator_formula_matches(self):
        rng = np.random.default_rng(50)
        family = _parseval(2)
        small = random_op(rng, 2, 2, 2) * 0.05
        report = perturb_lambda(family, small)
        assert report.details["s_formula_residual"] <= 1e-10

    def test_contraction_can_fail_hypothesis(self):
        family = _frame(3)
        report = perturb_lambda(family, (-0.5) * identity_op(2, 2))
        # (I + L) = 0.5 I shrinks the frame operator.
        assert report.verdict is Verdict.HYPOTHESIS_FAILS


class TestOpWeightedSum:
    def test_identity_and_zero_mirror_classification(self):
        family = _frame(4)
        other = _zero_family(2, 2, family.member_dims)
        report = op_weighted_sum(
            family, other, identity_op(2, 2), zero_op(2, 2, 2)
        )
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.details["condition_frame"] == 1.0
        assert report.result_kind != FrameKind.BESSEL_ONLY.value

    def test_same_family_doubles(self):
        family = _frame(5)
        base = optimal_bounds(family)
        report = op_weighted_sum(
            family, family, identity_op(2, 2), identity_op(2, 2)
        )
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.achieved.lower == pytest.approx(4 * base.lower, rel=1e-8)

    def test_equivalence_on_random_instances(self):
        rng = np.random.default_rng(51)
        for seed in range(100):
            family = _parseval(seed, dims=(2, 3))
            other = scale_family(_parseval(seed + 1000, dims=(2, 3)), 0.7)
            m_op = random_op(rng, 2, 2, 2)
            n_op = zero_op(2, 2, 2) if seed % 3 == 0 else random_op(rng, 2, 2, 2)
            report = op_weighted_sum(family, other, m_op, n_op)
            assert report.verdict is Verdict.CONCLUSION_HOLDS
            assert report.details["s_formula_residual"] <= 1e-10
            conditions = {
                report.details["condition_frame"],
                report.details["condition_surjective"],
                report.details["condition_positive"],
            }
            assert len(conditions) == 1

    @pytest.mark.parametrize("lo", [1e-15, 1e-12, 1e-6])
    def test_the_conditions_agree_on_an_ill_conditioned_family(self, lo):
        # The singular values of the synthesis operator are the square
        # roots of the frame operator's eigenvalues.
        family = _frame(3, n=1, lo=lo, hi=1.0)
        other = _zero_family(1, 2, family.member_dims)
        report = op_weighted_sum(family, other, identity_op(1, 2), zero_op(1, 2, 2))
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.details["condition_frame"] == report.details["condition_surjective"]

    def test_zero_operators_agree_on_failure(self):
        family = _frame(6)
        report = op_weighted_sum(
            family, family, zero_op(2, 2, 2), zero_op(2, 2, 2)
        )
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.details["condition_frame"] == 0.0


class TestT3Corollary:
    def test_same_family_cross_term_is_frame_operator(self):
        family = _frame(7)
        base = optimal_bounds(family)
        report = t3_corollary_check(family, family)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.achieved.lower >= 4 * base.lower - 1e-8

    def test_orthogonal_pair_sums_spectra(self):
        first, second = gen_orthogonal_pair(
            GenSpec(8, 2, 2, (2, 2), FamilyTarget.parseval())
        )
        report = t3_corollary_check(first, second)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        # Frame operators add: the sum of two Parseval families is 2-tight.
        assert report.achieved.lower == pytest.approx(2.0, abs=1e-8)
        assert report.achieved.upper == pytest.approx(2.0, abs=1e-8)

    def test_indefinite_cross_term_fails_hypothesis(self):
        family = _frame(9)
        flipped = scale_family(family, -1.0)
        report = t3_corollary_check(family, flipped)
        assert report.verdict is Verdict.HYPOTHESIS_FAILS

    def test_bessel_only_pair_is_not_asserted(self):
        first = _zero_family(2, 2, (2, 2))
        second = _zero_family(2, 2, (2, 2))
        report = t3_corollary_check(first, second)
        assert report.verdict is Verdict.HYPOTHESIS_FAILS
        names = [c.name for c in report.hypothesis_checks if not c.passed]
        assert "aux_either_input_frame" in names


class TestScalarWeightedSum:
    def test_vanishing_second_family(self):
        family = _frame(10)
        other = _zero_family(2, 2, family.member_dims)
        weights = _unit_weights(family.size, band=(0.9, 1.1))
        report = scalar_weighted_sum(family, other, weights)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.predicted_lower == pytest.approx(0.9 * 1.0, rel=1e-9)
        assert report.achieved.lower >= report.predicted_lower - 1e-8

    def test_doubled_weights_on_parseval(self):
        family = _parseval(11)
        doubled = ScalarWeights(
            (2.0 * identity(2),) * family.size,
            (2.0 * identity(2),) * family.size,
            3.9,
            4.1,
        )
        report = scalar_weighted_sum(family, family, doubled)
        assert report.achieved.lower == pytest.approx(16.0, abs=1e-6)
        assert report.achieved.upper == pytest.approx(16.0, abs=1e-6)
        # Equal families break the dominated-Bessel hypothesis.
        assert report.verdict is Verdict.HYPOTHESIS_FAILS

    def test_random_suite_holds(self):
        for seed in range(100):
            family = _frame(seed, dims=(2, 3))
            weights = gen_weights(seed + 1, 2, family.size, 0.8, 1.25)
            raw = gen_family(GenSpec(seed + 2, 2, 2, (2, 3)))
            upper = optimal_bounds(raw).upper
            other = scale_family(raw, np.sqrt(0.3 / max(upper, 1e-12)))
            report = scalar_weighted_sum(family, other, weights)
            assert report.verdict is Verdict.CONCLUSION_HOLDS
            assert report.achieved.lower >= report.predicted_lower - 1e-8
            assert report.achieved.upper <= report.predicted_upper + 1e-8


class TestT11:
    def test_identity_weights_parseval(self):
        family = _parseval(12)
        weights = _unit_weights(family.size, band=(0.5, 2.0))
        report = t11_check(family, family, weights)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.predicted_lower == pytest.approx(0.5 * 2.0, rel=1e-9)
        assert report.achieved.lower == pytest.approx(4.0, abs=1e-6)

    def test_orthogonal_pair_with_free_weights(self):
        first, second = gen_orthogonal_pair(
            GenSpec(13, 2, 2, (2, 2), FamilyTarget.parseval())
        )
        weights = gen_weights(14, 2, first.size, 0.7, 1.4)
        report = t11_check(first, second, weights)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.achieved.lower >= report.predicted_lower - 1e-8

    def test_indefinite_cross_fails(self):
        family = _frame(15)
        weights = _unit_weights(family.size)
        report = t11_check(family, scale_family(family, -1.0), weights)
        assert report.verdict is Verdict.HYPOTHESIS_FAILS

    def test_sign_flipped_weights_break_the_claim(self):
        # All stated hypotheses hold, yet opposite-phase weights cancel
        # the members; the checker must report the violation.
        family = _parseval(16)
        eye = identity(2)
        weights = ScalarWeights(
            (eye,) * family.size, ((-1.0) * eye,) * family.size, 0.5, 2.0
        )
        report = t11_check(family, family, weights)
        assert all(c.passed for c in report.hypothesis_checks)
        assert report.verdict is Verdict.CONCLUSION_FAILS


class TestTightSum:
    def test_orthogonal_parseval_pair_is_two_tight(self):
        first, second = gen_orthogonal_pair(
            GenSpec(17, 2, 2, (2, 2), FamilyTarget.parseval())
        )
        report = tight_sum_check(first, second)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.details["achieved_tight_constant"] == pytest.approx(2.0, abs=1e-8)

    def test_scaled_pair_adds_constants(self):
        first, second = gen_orthogonal_pair(
            GenSpec(18, 1, 2, (4, 4), FamilyTarget.parseval())
        )
        report = tight_sum_check(
            scale_family(first, np.sqrt(2.0)), scale_family(second, np.sqrt(3.0))
        )
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.details["achieved_tight_constant"] == pytest.approx(5.0, abs=1e-8)

    def test_nonzero_cross_term_fails_hypothesis(self):
        family = _parseval(19)
        report = tight_sum_check(family, family)
        assert report.verdict is Verdict.HYPOTHESIS_FAILS

    def test_non_tight_input_raises(self):
        with pytest.raises(NotTight):
            tight_sum_check(_frame(20), _frame(21))


class TestIsometrySum:
    def test_identity_isometry_zero_second_family(self):
        family = _frame(22)
        other = _zero_family(2, 2, family.member_dims)
        report = isometry_sum_check(family, other, identity_op(2, 2))
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.achieved.lower == pytest.approx(
            optimal_bounds(family).lower, rel=1e-9
        )

    def test_unitary_composition_of_parseval_pair(self):
        family = _parseval(23)
        lam = gen_isometry(24, 2, 2)
        report = isometry_sum_check(family, family, lam)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.achieved.lower == pytest.approx(4.0, abs=1e-6)
        assert report.predicted_lower == pytest.approx(1.0, abs=1e-8)

    def test_non_isometry_fails(self):
        family = _frame(25)
        other = _zero_family(2, 2, family.member_dims)
        report = isometry_sum_check(family, other, 2.0 * identity_op(2, 2))
        assert report.verdict is Verdict.HYPOTHESIS_FAILS


class TestLambdaLower:
    def test_identity_operators_with_zero_bessel(self):
        family = _frame(26)
        other = _zero_family(2, 2, family.member_dims)
        report = lambda_lower_check(
            family, other, identity_op(2, 2), identity_op(2, 2), 0.9
        )
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.predicted_lower == pytest.approx(0.81 * 1.0, rel=1e-9)

    def test_scaled_operators(self):
        family = _parseval(27)
        raw = gen_family(GenSpec(28, 2, 2, (2, 2)))
        weak = scale_family(raw, np.sqrt(0.01 / optimal_bounds(raw).upper))
        report = lambda_lower_check(
            family, weak, 2.0 * identity_op(2, 2), identity_op(2, 2), 0.9
        )
        assert report.verdict is Verdict.CONCLUSION_HOLDS

    def test_zero_n_operator_fails(self):
        family = _frame(29)
        other = _zero_family(2, 2, family.member_dims)
        report = lambda_lower_check(
            family, other, identity_op(2, 2), zero_op(2, 2, 2), 0.5
        )
        assert report.verdict is Verdict.HYPOTHESIS_FAILS
        failing = [c.name for c in report.hypothesis_checks if not c.passed]
        assert "n_bounded_below" in failing

    def test_rejects_nonpositive_bound(self):
        family = _frame(30)
        with pytest.raises(BadRange):
            lambda_lower_check(
                family, family, identity_op(2, 2), identity_op(2, 2), 0.0
            )


def _rank_one(row, n):
    """The module vector whose flattening has ``row`` as its first row and
    zeros elsewhere: its module norm is the Euclidean norm of ``row``."""
    flat = np.zeros((n, row.size), dtype=complex)
    flat[0] = row
    return ModuleVector(flat)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    d=st.integers(1, 2),
    lam_scale=st.sampled_from([0.5, 0.9, 1.1, 2.0]),
    stretch=st.sampled_from([0.8, 1.0, 1.5]),
    drift=st.sampled_from([0.0, 0.1, 1.0]),
)
def test_lambda_lower_spectral_checks_agree_with_module_norms(
    seed, n, d, lam_scale, stretch, drift
):
    # M = stretch * N W + drift * G, with W unitary: MM* = stretch^2 NN*
    # when drift is 0, so dominance holds exactly when stretch >= 1.
    rng = np.random.default_rng(seed)
    size = n * d
    n_flat = random_matrix(rng, size, size)
    unitary, _ = np.linalg.qr(random_matrix(rng, size, size))
    m_flat = stretch * n_flat @ unitary + drift * random_matrix(rng, size, size)
    m_op, n_op = AdjointableOp(m_flat, n), AdjointableOp(n_flat, n)
    left, svals, _ = np.linalg.svd(n_flat)
    lam = lam_scale * float(svals[-1])
    family = _parseval(seed, n, d, (d, d))
    report = lambda_lower_check(family, family, m_op, n_op, lam)
    checks = {c.name: c for c in report.hypothesis_checks}
    xs = [ModuleVector(random_matrix(rng, n, size)) for _ in range(100)]
    sq_m, sq_n = (
        np.array([scalar_norm(apply(op, x)) ** 2 for x in xs]) for op in (m_op, n_op)
    )
    sq_x = np.array([scalar_norm(x) ** 2 for x in xs])
    # The dominance check allows -(1e-9 * scale + 1e-12) for its eigenvalue.
    scale = max(np.linalg.norm(m_flat, 2), svals[0]) ** 2
    slack = (2e-9 * scale + 1e-12) * sq_x
    if checks["n_bounded_below"].passed:
        assert (sq_n >= lam**2 * sq_x - slack).all()
    else:
        # x = (u*, 0, ...) for N's least left singular vector u: flat(Nx)
        # has first row sigma_min v*, so ||Nx|| = sigma_min ||x|| < lam ||x||.
        witness = _rank_one(left[:, -1].conj(), n)
        assert scalar_norm(apply(n_op, witness)) < lam * scalar_norm(witness)
    if checks["aux_m_dominates_n"].passed:
        assert (sq_m >= sq_n - slack).all()
    else:
        # x = (w*, 0, ...) for the least eigenvector w of MM* - NN*:
        # ||Mx||^2 - ||Nx||^2 is that (negative) eigenvalue.
        gap = m_flat @ m_flat.conj().T - n_flat @ n_flat.conj().T
        witness = _rank_one(np.linalg.eigh(gap)[1][:, 0].conj(), n)
        assert scalar_norm(apply(m_op, witness)) < scalar_norm(apply(n_op, witness))


def test_no_checker_module_binds_a_sampler():
    for module in (gframes.sums, gframes.stability, gframes.frames, gframes.hilbert):
        assert not {"make_rng", "sample_flat_vectors"} & set(vars(module)), module


class TestTightMN:
    def test_projection_to_first_family(self):
        first, second = gen_orthogonal_pair(
            GenSpec(31, 2, 2, (2, 2), FamilyTarget.parseval())
        )
        report = tight_mn_check(
            first, second, identity_op(2, 2), zero_op(2, 2, 2)
        )
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.details["identity_multiple"] == pytest.approx(1.0, abs=1e-9)
        assert report.details["achieved_tight_constant"] == pytest.approx(1.0, abs=1e-8)

    def test_balanced_scalars(self):
        first, second = gen_orthogonal_pair(
            GenSpec(32, 2, 2, (2, 2), FamilyTarget.parseval())
        )
        half = (1.0 / np.sqrt(2.0)) * identity_op(2, 2)
        report = tight_mn_check(first, second, half, half)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.details["identity_multiple"] == pytest.approx(1.0, abs=1e-9)

    def test_non_scalar_combination_consistent(self):
        first, second = gen_orthogonal_pair(
            GenSpec(33, 2, 2, (2, 2), FamilyTarget.parseval())
        )
        rng = np.random.default_rng(34)
        skew = random_op(rng, 2, 2, 2)
        report = tight_mn_check(first, second, skew, identity_op(2, 2))
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.details["condition_holds"] == 0.0
        assert report.details["measured_tight"] == 0.0


class TestScalarWeightsValidation:
    def test_band_violations_raise(self):
        eye = identity(2)
        with pytest.raises(BadRange):
            ScalarWeights((eye,), (eye,), 1.5, 2.0)
        with pytest.raises(BadRange):
            ScalarWeights((eye,), (eye,), 0.9, 0.5)
        with pytest.raises(BadRange):
            ScalarWeights((), (), 0.5, 2.0)

    def test_a_bad_delta_after_good_thetas_is_named(self):
        eye = identity(2)
        with pytest.raises(BadRange, match=r"^delta weight spectrum \[9, 9\]"):
            ScalarWeights((eye, eye), (eye, 3.0 * eye), 0.5, 2.0)

    def test_a_bad_theta_is_named_before_a_bad_delta(self):
        eye = identity(2)
        with pytest.raises(BadRange, match=r"^theta weight spectrum \[0\.25, 0\.25\]"):
            ScalarWeights((eye, 0.5 * eye), (3.0 * eye, eye), 0.5, 2.0)

    def test_mixed_algebra_dims_raise_before_any_stacking(self):
        with pytest.raises(DimensionMismatch, match="one algebra"):
            ScalarWeights((identity(2),), (identity(3),), 0.5, 2.0)
        with pytest.raises(DimensionMismatch, match="one algebra"):
            ScalarWeights((identity(1), identity(2)), (identity(1),) * 2, 0.5, 2.0)

    @pytest.mark.parametrize("n, count", [(1, 1), (2, 3), (4, 2)])
    def test_spectrum_range_is_the_per_weight_extremes(self, n, count):
        weights = gen_weights(3, n, count, 0.6, 1.7)
        eigs = [
            np.linalg.eigvalsh(w.entries.conj().T @ w.entries)
            for w in weights.thetas + weights.deltas
        ]
        low = min(float(e[0]) for e in eigs)
        high = max(float(e[-1]) for e in eigs)
        assert weights.spectrum_range == (low, high)


def test_coefficients_and_operators_over_another_algebra_raise_dimension_mismatch():
    family, other = _frame(0), _frame(1)
    with pytest.raises(DimensionMismatch, match="different algebra"):
        weighted_family(family, (identity(3), identity(3)))
    with pytest.raises(DimensionMismatch, match="different algebra"):
        scalar_weighted_sum(family, other, _unit_weights(2, n=1))
    wrong_algebra, wrong_length = identity_op(1, 4), identity_op(2, 3)
    for bad in (wrong_algebra, wrong_length):
        with pytest.raises(DimensionMismatch, match="m_op must act"):
            op_weighted_sum(family, other, bad, identity_op(2, 2))
        with pytest.raises(DimensionMismatch, match="n_op must act"):
            lambda_lower_check(family, other, identity_op(2, 2), bad, 0.5)
        with pytest.raises(DimensionMismatch, match="m_op must act"):
            tight_mn_check(_parseval(2), _parseval(3), bad, identity_op(2, 2))


def test_predicted_bounds_are_checked_at_the_scale_of_the_bounds():
    # Achieved bounds (1e-12, 2e-12) miss a predicted lower bound of 1.5e-12
    # by a third of the upper bound, far beyond rel * upper.
    bounds = gframes.frames.FrameBounds(1e-12, 2e-12, tight=False, parseval=False)
    classification = gframes.frames.Classification(FrameKind.FRAME, bounds)
    report = gframes.sums.theorem_report("T", classification, (), 1.5e-12, None, gframes.DEFAULT_TOL)
    assert report.verdict is Verdict.CONCLUSION_FAILS
    report = gframes.sums.theorem_report("T", classification, (), 1e-12, 2e-12, gframes.DEFAULT_TOL)
    assert report.verdict is Verdict.CONCLUSION_HOLDS


def test_a_tight_constant_is_matched_at_its_own_scale():
    tight = gframes.frames.FrameBounds(1e-12, 1e-12, tight=True, parseval=False)
    assert gframes.sums._tight_at(tight, 1e-12, gframes.DEFAULT_TOL)
    assert not gframes.sums._tight_at(tight, 2e-12, gframes.DEFAULT_TOL)
