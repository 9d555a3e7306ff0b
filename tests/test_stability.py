"""Perturbation checkers: literal cases, exact shifts, failing branches."""

import numpy as np
import pytest

from gframes import (
    AdjointableOp,
    AlphaOutOfRange,
    FamilyTarget,
    GenSpec,
    GFrameFamily,
    ScalarWeights,
    Verdict,
    compose,
    adjoint_op,
    difference_check,
    final_corollary_check,
    gen_family,
    gen_weights,
    identity,
    operators_from_family,
    optimal_bounds,
    prop_mixed_check,
    scale_family,
    t12_check,
    zero_op,
)
from gframes.stability import _subset_sup_bracket


def _frame(seed, n=2, d=2, dims=(2, 2), lo=1.0, hi=2.0):
    return gen_family(GenSpec(seed, n, d, dims, FamilyTarget.bounds(lo, hi)))


def _unit_weights(count, n=2, band=(0.5, 2.0)):
    eye = identity(n)
    return ScalarWeights((eye,) * count, (eye,) * count, band[0], band[1])


def _zero_family(n, d, dims):
    return GFrameFamily(tuple(zero_op(n, d, dz) for dz in dims))


class TestPropMixed:
    def test_identical_families_trivially_hold(self):
        family = _frame(0)
        weights = _unit_weights(family.size)
        report = prop_mixed_check(family, family, weights, 0.5, 0.5)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.measured_lhs <= 0.0

    def test_slightly_scaled_copy_holds(self):
        family = _frame(1)
        other = scale_family(family, 1.02)
        weights = _unit_weights(family.size)
        report = prop_mixed_check(family, other, weights, 0.5, 0.5)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.achieved.lower > 0

    def test_zero_family_fails_hypothesis(self):
        family = _frame(2)
        other = _zero_family(2, 2, family.member_dims)
        weights = _unit_weights(family.size)
        report = prop_mixed_check(family, other, weights, 0.5, 0.5)
        assert report.verdict is Verdict.HYPOTHESIS_FAILS

    def test_alpha_validation(self):
        family = _frame(3)
        weights = _unit_weights(family.size)
        with pytest.raises(AlphaOutOfRange):
            prop_mixed_check(family, family, weights, 1.5, 0.5)

    def test_claimed_bounds_recorded_not_asserted(self):
        family = _frame(4)
        weights = _unit_weights(family.size)
        report = prop_mixed_check(family, family, weights, 0.5, 0.5)
        assert report.claimed_bounds is not None
        assert report.bound_discrepancy_note


class TestDifference:
    def test_identical_weighted_families_trivially_hold(self):
        family = _frame(5)
        weights = _unit_weights(family.size)
        report = difference_check(family, family, weights, 0.5, 0.5)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.measured_lhs <= 1e-12

    def test_member_scaled_copy_holds(self):
        family = _frame(6)
        members = list(family.members)
        members[0] = (1.0 - 1e-3) * members[0]
        other = GFrameFamily(tuple(members))
        weights = _unit_weights(family.size)
        report = difference_check(family, other, weights, 0.5, 0.5)
        assert report.verdict is Verdict.CONCLUSION_HOLDS

    def test_unrelated_family_fails_hypothesis(self):
        family = _frame(7)
        other = gen_family(GenSpec(99, 2, 2, family.member_dims))
        weights = _unit_weights(family.size)
        report = difference_check(family, other, weights, 0.5, 0.5)
        assert report.verdict is Verdict.HYPOTHESIS_FAILS


class TestT12:
    def test_exact_summands_reproduce_input(self):
        family = _frame(8)
        deltas = [compose(adjoint_op(m), m) for m in family.members]
        report = t12_check(family, deltas)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.measured_lhs <= 1e-12
        base = optimal_bounds(family)
        assert report.achieved.lower == pytest.approx(base.lower, rel=1e-9)
        assert report.achieved.upper == pytest.approx(base.upper, rel=1e-9)

    def test_uniform_shift_moves_spectrum_exactly(self):
        family = _frame(9)
        n, d = family.algebra_dim, family.source_len
        count = family.size
        eps = 0.3  # below the budget C/D = 0.5
        bump = (eps / count) * np.eye(n * d)
        deltas = [
            AdjointableOp(m.flat @ m.flat.conj().T + bump, n) for m in family.members
        ]
        report = t12_check(family, deltas)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.measured_lhs == pytest.approx(eps, abs=1e-9)
        assert report.achieved.lower == pytest.approx(1.0 + eps, abs=1e-8)
        assert report.details["contraction_norm"] <= report.details["contraction_limit"] + 1e-9

    def test_budget_violation_fails_hypothesis(self):
        family = _frame(10)
        n, d = family.algebra_dim, family.source_len
        bump = 2.0 * np.eye(n * d)  # far beyond C/D
        deltas = [
            AdjointableOp(m.flat @ m.flat.conj().T + bump, n) for m in family.members
        ]
        report = t12_check(family, deltas)
        assert report.verdict is Verdict.HYPOTHESIS_FAILS

    def test_family_lift_covers_square_sum_reading(self):
        family = _frame(11)
        other = scale_family(family, 0.95)
        report = t12_check(family, operators_from_family(other))
        assert report.verdict is Verdict.CONCLUSION_HOLDS

    def test_subset_condition_dominates_full_sum(self):
        # Signed deviations can cancel in the full sum while a subset
        # exceeds it; the subset scan must catch the larger value.
        family = _frame(12)
        n, d = family.algebra_dim, family.source_len
        assert family.size >= 2
        shift = 0.2 * np.eye(n * d)
        deltas = []
        for i, m in enumerate(family.members):
            sign = 1.0 if i % 2 == 0 else -1.0
            flat = m.flat @ m.flat.conj().T + sign * shift
            deltas.append(AdjointableOp(flat, n))
        report = t12_check(family, deltas)
        full_sum_norm = 0.0 if family.size % 2 == 0 else 0.2
        assert report.measured_lhs >= 0.2 - 1e-12
        assert report.measured_lhs >= full_sum_norm


class TestFinalCorollary:
    def test_identical_families(self):
        family = _frame(13)
        report = final_corollary_check(family, family, 0.5)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert report.measured_lhs <= 1e-12

    def test_shrunk_copy_holds_with_scaled_bounds(self):
        family = _frame(14)
        eps = 0.05
        other = scale_family(family, 1.0 - eps)
        report = final_corollary_check(family, other, 0.5)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        factor = (1.0 - eps) ** 2
        assert report.achieved.lower == pytest.approx(factor * 1.0, abs=1e-8)
        assert report.achieved.upper == pytest.approx(factor * 2.0, abs=1e-8)
        assert report.details["contraction_norm"] <= report.details["contraction_limit"] + 1e-9

    def test_zero_family_fails_hypothesis(self):
        family = _frame(15)
        other = _zero_family(2, 2, family.member_dims)
        report = final_corollary_check(family, other, 0.5)
        assert report.verdict is Verdict.HYPOTHESIS_FAILS

    def test_alpha_validation(self):
        family = _frame(16)  # lower bound 1.0
        with pytest.raises(AlphaOutOfRange):
            final_corollary_check(family, family, 1.5)
        with pytest.raises(AlphaOutOfRange):
            final_corollary_check(family, family, 0.0)


class TestWeightedStabilityInstances:
    def test_prop_mixed_with_generated_weights(self):
        for seed in range(20):
            family = _frame(seed)
            other = scale_family(family, 1.0 + 0.02 * ((seed % 5) - 2))
            weights = gen_weights(seed, 2, family.size, 0.9, 1.1)
            report = prop_mixed_check(family, other, weights, 0.5, 0.5)
            assert report.verdict is Verdict.CONCLUSION_HOLDS

    def test_difference_with_shared_weight_sequences(self):
        for seed in range(20):
            family = _frame(seed + 100)
            members = tuple(
                (1.0 - 0.01 * ((i + seed) % 3)) * m
                for i, m in enumerate(family.members)
            )
            other = GFrameFamily(members)
            drawn = gen_weights(seed, 2, family.size, 0.9, 1.1)
            weights = ScalarWeights(
                drawn.thetas, drawn.thetas, drawn.band_lower, drawn.band_upper
            )
            report = difference_check(family, other, weights, 0.5, 0.5)
            assert report.verdict is Verdict.CONCLUSION_HOLDS


def test_t12_large_family_with_alternating_deviations_fails_hypothesis():
    # 13 unit members (S = 13 I, budget C/D = 1) whose deviations
    # alternate +0.2 and -0.2: the full sum has norm 0.2, but the seven
    # positive deviations together have norm 1.4 > 1.
    one = AdjointableOp(np.array([[1.0 + 0j]]), 1)
    family = GFrameFamily((one,) * 13)
    deltas = [
        AdjointableOp(np.array([[1.0 - (0.2 if i % 2 == 0 else -0.2) + 0j]]), 1)
        for i in range(13)
    ]
    report = t12_check(family, deltas)
    assert report.allowed_rhs == pytest.approx(1.0)
    assert report.verdict == Verdict.HYPOTHESIS_FAILS
    assert not report.hypotheses_pass
    assert report.details["subset_sup_upper"] == pytest.approx(1.4)
    assert report.details["subset_sup_lower"] == pytest.approx(1.4)


def test_t12_subset_bracket_contains_exact_enumeration():
    rng = np.random.default_rng(12)
    for trial in range(60):
        count = int(rng.integers(1, 13))
        n, d = ((1, 2), (2, 1), (2, 2))[trial % 3]
        family = _frame(trial, n, d, dims=(d,) * count)
        deltas = []
        for m in family.members:
            raw = rng.standard_normal((n * d, n * d)) + 1j * rng.standard_normal(
                (n * d, n * d)
            )
            bump = 0.1 * (raw @ raw.conj().T) - 0.05 * np.eye(n * d)
            deltas.append(AdjointableOp(m.flat @ m.flat.conj().T + bump, n))
        exact = t12_check(family, deltas).measured_lhs
        deviations = np.stack(
            [m.flat @ m.flat.conj().T - o.flat for m, o in zip(family.members, deltas)]
        )
        lower, upper = _subset_sup_bracket(deviations)
        slack = 1e-9 * max(1.0, exact)
        assert lower - slack <= exact <= upper + slack
