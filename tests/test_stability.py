"""Perturbation checkers: literal cases, exact shifts, failing branches."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randoms import random_family
from gframes import (
    AdjointableOp,
    AlphaOutOfRange,
    DimensionMismatch,
    FamilyTarget,
    GenSpec,
    GFrameFamily,
    ModuleVector,
    ScalarWeights,
    Verdict,
    compose,
    adjoint_op,
    difference_check,
    final_corollary_check,
    gen_family,
    gen_weights,
    apply,
    frame_operator,
    identity,
    inner_product,
    is_frame_bounds,
    operators_from_family,
    optimal_bounds,
    prop_mixed_check,
    registry,
    scalar_norm,
    scale_family,
    t12_check,
    weighted_family,
    zero_op,
)
from gframes.algebra import DEFAULT_TOL, hermitian_part, positivity, spectral_norm
from gframes.serialize import family_to_json, report_to_json
from gframes.stability import _subset_sup, _subset_sup_bracket
from gframes.sums import weighted_pair


def _frame(seed, n=2, d=2, dims=(2, 2), lo=1.0, hi=2.0):
    return gen_family(GenSpec(seed, n, d, dims, FamilyTarget.bounds(lo, hi)))


def _unit_weights(count, n=2, band=(0.5, 2.0)):
    eye = identity(n)
    return ScalarWeights((eye,) * count, (eye,) * count, band[0], band[1])


def _zero_family(n, d, dims):
    return GFrameFamily.of(zero_op(n, d, dz) for dz in dims)


def _check(report, name):
    """The report's hypothesis check of that name."""
    (item,) = [c for c in report.hypothesis_checks if c.name == name]
    return item


class TestPropMixed:
    def test_identical_families_trivially_hold(self):
        family = _frame(0)
        weights = _unit_weights(family.size)
        report = prop_mixed_check(family, family, weights, 0.5, 0.5)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert _check(report, "norm_difference_within").measured <= 0.0

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

    def test_a_first_family_too_singular_to_whiten_fails_its_check(self):
        # One member of dim 1 on a module of length 2: neither weighted
        # frame operator is invertible, so kappa is not measured.
        one = GFrameFamily(AdjointableOp(np.array([[1.0], [0.0]], dtype=complex), 1), (1,))
        weights = {"thetas": [[[[1, 0]]]], "deltas": [[[[1, 0]]]], "band": [0.5, 2]}
        instance = {"family": family_to_json(one), "second_family": family_to_json(one),
                    "weights": weights}
        report = registry.build_and_run("PROP_MIXED", instance, 0)
        assert report.verdict is Verdict.HYPOTHESIS_FAILS
        assert not _check(report, "first_weighted_is_frame").passed
        assert report_to_json(report)["details"]["kappa"] is None

    def test_claimed_bounds_recorded_not_asserted(self):
        family = _frame(4)
        weights = _unit_weights(family.size)
        report = prop_mixed_check(family, family, weights, 0.5, 0.5)
        claimed = report.details["claimed_lower"], report.details["claimed_upper"]
        assert all(math.isfinite(v) and v > 0.0 for v in claimed)
        assert report.predicted_lower is None and report.predicted_upper is None


class TestDifference:
    def test_identical_weighted_families_trivially_hold(self):
        family = _frame(5)
        weights = _unit_weights(family.size)
        report = difference_check(family, family, weights, 0.5, 0.5)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert _check(report, "difference_dominated").measured <= 1e-12

    def test_member_scaled_copy_holds(self):
        family = _frame(6)
        members = list(family.members)
        members[0] = (1.0 - 1e-3) * members[0]
        other = GFrameFamily.of(members)
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
        assert _check(report, "subset_sup_within_budget").measured <= 1e-12
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
        assert _check(report, "subset_sup_within_budget").measured == pytest.approx(
            eps, abs=1e-9
        )
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

    @pytest.mark.parametrize("kind", ["negative", "not_hermitian", "hermitian_within_margin"])
    def test_stacked_summand_positivity_is_the_per_summand_verdict(self, kind):
        family = _frame(13)
        n = family.algebra_dim
        grams = [m.flat @ m.flat.conj().T for m in family.members]
        size = grams[0].shape[0]
        upper = np.triu(np.ones((size, size)), 1)
        breaks = {
            "negative": lambda g: g - 2.0 * np.linalg.eigvalsh(g)[-1] * np.eye(size),
            "not_hermitian": lambda g: g + upper,
            "hermitian_within_margin": lambda g: g + 1e-14j * upper,
        }
        for at in range(family.size):
            flats = [breaks[kind](g) if j == at else g for j, g in enumerate(grams)]
            report = t12_check(family, [AdjointableOp(f, n) for f in flats])
            expected = all(least >= -margin for least, margin in map(positivity, flats))
            assert expected is (kind == "hermitian_within_margin")
            assert _check(report, "summands_positive").passed is expected
            if not expected:
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
        subset_sup = _check(report, "subset_sup_within_budget").measured
        assert subset_sup >= 0.2 - 1e-12
        assert subset_sup >= full_sum_norm


class TestFinalCorollary:
    def test_identical_families(self):
        family = _frame(13)
        report = final_corollary_check(family, family, 0.5)
        assert report.verdict is Verdict.CONCLUSION_HOLDS
        assert _check(report, "proximity_within_alpha").measured <= 1e-12

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
            other = GFrameFamily.of(members)
            drawn = gen_weights(seed, 2, family.size, 0.9, 1.1)
            weights = ScalarWeights(
                drawn.thetas, drawn.thetas, drawn.band_lower, drawn.band_upper
            )
            report = difference_check(family, other, weights, 0.5, 0.5)
            assert report.verdict is Verdict.CONCLUSION_HOLDS


def test_t12_thirteen_semidefinite_deviations_are_decided_exactly():
    # 13 unit members (S = 13 I, budget C/D = 1) whose deviations
    # alternate +0.2 and -0.2: the full sum has norm 0.2, but the seven
    # positive deviations together have norm 1.4 > 1.  Every deviation is
    # semidefinite, so no subset is enumerated and nothing is bracketed.
    one = AdjointableOp(np.array([[1.0 + 0j]]), 1)
    family = GFrameFamily.of((one,) * 13)
    deltas = [
        AdjointableOp(np.array([[1.0 - (0.2 if i % 2 == 0 else -0.2) + 0j]]), 1)
        for i in range(13)
    ]
    report = t12_check(family, deltas)
    assert _check(report, "subset_sup_within_budget").limit == pytest.approx(1.0)
    assert report.verdict == Verdict.HYPOTHESIS_FAILS
    assert not _check(report, "subset_sup_within_budget").passed
    assert _check(report, "subset_sup_within_budget").measured == pytest.approx(1.4)
    assert "subset_sup_lower" not in report.details
    assert "subset_sup_upper" not in report.details


def _unit_members(count):
    """``count`` members of n = 1 and dim 2, each the identity: S = count I,
    and C/D = 1."""
    return GFrameFamily.of((AdjointableOp(np.eye(2, dtype=complex), 1),) * count)


def _pauli(angle):
    """The reflection cos(angle) sigma_z + sin(angle) sigma_x: eigenvalues
    +1 and -1, so any nonzero multiple of it is indefinite."""
    return np.array([[np.cos(angle), np.sin(angle)], [np.sin(angle), -np.cos(angle)]])


def _brute_subset_sup(deviations):
    """max over nonempty index subsets S of ||sum_S D_i||, one subset at a time."""
    count = len(deviations)
    best = 0.0
    for subset in range(1, 1 << count):
        total = sum(deviations[i] for i in range(count) if subset >> i & 1)
        best = max(best, float(np.abs(np.linalg.eigvalsh(hermitian_part(total))).max()))
    return best


def test_t12_thirteen_indefinite_deviations_take_the_bracket():
    family = _unit_members(13)
    deviations = np.stack([0.05 * _pauli(0.4 * i) + 0j for i in range(13)])
    deltas = [AdjointableOp(np.eye(2) - dev, 1) for dev in deviations]
    report = t12_check(family, deltas)
    lower, upper = report.details["subset_sup_lower"], report.details["subset_sup_upper"]
    assert _check(report, "subset_sup_within_budget").measured == upper
    assert (lower, upper) == pytest.approx(_subset_sup_bracket(deviations), rel=1e-12)
    exact = _brute_subset_sup(deviations)
    assert lower - 1e-12 <= exact <= upper + 1e-12
    assert report.verdict is Verdict.CONCLUSION_HOLDS


def test_t12_sixteen_members_decided_exactly_where_the_bracket_straddles_the_budget():
    # Four indefinite deviations a * _pauli(t) at t = 0, pi/2, pi and
    # 3pi/2 (+-a sigma_z and +-a sigma_x): every subset sum
    # is a(c1 sigma_z + c2 sigma_x) with c1, c2 in {-1, 0, 1}, of norm at
    # most a sqrt(2).  Twelve positive semidefinite deviations b/12 I add
    # b I on top, so the supremum is b + a sqrt(2) = 0.924, inside the
    # budget C/D = 1, while the bracket's upper end b + 2a = 1.1 is not.
    a, b = 0.3, 0.5
    indefinite = [a * _pauli(k * np.pi / 2) for k in range(4)]
    deviations = np.stack([*indefinite, *[b / 12 * np.eye(2)] * 12]).astype(complex)
    deltas = [AdjointableOp(np.eye(2) - dev, 1) for dev in deviations]
    report = t12_check(_unit_members(16), deltas)
    measured = _check(report, "subset_sup_within_budget").measured
    assert measured == pytest.approx(b + a * math.sqrt(2), rel=1e-12)
    assert "subset_sup_upper" not in report.details
    assert report.verdict is Verdict.CONCLUSION_HOLDS
    lower, upper = _subset_sup_bracket(deviations)
    assert lower < 1.0 < upper


_DEFINITENESS = ("psd", "nsd", "indefinite", "zero")


def _deviation(rng, size, kind):
    """A raw deviation of the given kind: its Hermitian part is positive or
    negative semidefinite, indefinite (where size > 1 allows) or zero,
    and a skew-Hermitian part rides along, as in K's raw summands."""
    raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
    skew = 0.1 * (raw - raw.conj().T)
    if kind == "zero":
        return skew
    basis = np.linalg.qr(raw)[0]
    eigs = rng.uniform(0.1, 2.0, size) * 10.0 ** rng.uniform(-4, 2, size)
    if kind == "nsd":
        eigs = -eigs
    elif kind == "indefinite" and size > 1:
        eigs[: rng.integers(1, size)] *= -1.0
    return (basis * eigs) @ basis.conj().T + skew


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(1, 6),
    kinds=st.lists(st.sampled_from(_DEFINITENESS), min_size=1, max_size=8),
)
@example(seed=0, size=3, kinds=["indefinite"])
@example(seed=1, size=2, kinds=["zero"] * 5)
def test_subset_sup_equals_enumeration_over_every_subset(seed, size, kinds):
    rng = np.random.default_rng(seed)
    deviations = np.stack([_deviation(rng, size, kind) for kind in kinds])
    sup, bracket = _subset_sup(deviations)
    brute = _brute_subset_sup(deviations)
    assert bracket == {}
    assert abs(sup - brute) <= 1e-12 * brute


def test_subset_sup_reaches_a_supremum_at_one_indefinite_member():
    # D and -D/2 are indefinite: D alone has norm 1, the other subsets 1/2.
    dev = _pauli(0.3) + 0j
    assert _subset_sup(np.stack([dev, -dev / 2])) == (pytest.approx(1.0, rel=1e-15), {})


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
        exact = _check(t12_check(family, deltas), "subset_sup_within_budget").measured
        deviations = np.stack(
            [m.flat @ m.flat.conj().T - o.flat for m, o in zip(family.members, deltas)]
        )
        lower, upper = _subset_sup_bracket(deviations)
        slack = 1e-9 * max(1.0, exact)
        assert lower - slack <= exact <= upper + slack


def test_t12_enumeration_memory_is_bounded_and_matches_one_shot():
    # 12 members at n*d = 32: all 4095 subset sums at once take about
    # 200 MB; enumerated in blocks they stay far below that.
    rng = np.random.default_rng(32)
    count, size = 12, 32
    family = _frame(5, 1, size, dims=(size,) * count)
    deltas = []
    for m in family.members:
        raw = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
        bump = 1e-3 * (raw @ raw.conj().T) - 1e-3 * np.eye(size)
        deltas.append(AdjointableOp(m.flat @ m.flat.conj().T + bump, 1))
    tracemalloc.start()
    try:
        report = t12_check(family, deltas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32e6
    deviations = np.stack(
        [m.flat @ m.flat.conj().T - o.flat for m, o in zip(family.members, deltas)]
    )
    masks = ((np.arange(1, 1 << count)[:, None] >> np.arange(count)) & 1).astype(complex)
    sums = (masks @ deviations.reshape(count, -1)).reshape(-1, size, size)
    herm = (sums + sums.conj().swapaxes(1, 2)) / 2
    measured = _check(report, "subset_sup_within_budget").measured
    assert measured == float(np.abs(np.linalg.eigvalsh(herm)).max())


# The PROP_MIXED hypothesis, sqrt(max(a - b, 0)) <= alpha1 sqrt(a) +
# alpha2 sqrt(b) with a(x), b(x) the norms of <S_L x, x> and <S_R x, x>,
# evaluated without the checker's whitening: rank-one witnesses come
# from np.linalg.eig of S_L^-1 S_R, samples are plain random vectors.


def _weighted_operators(family, other, weights):
    left, right = weighted_pair(family, other, weights)
    return left, frame_operator(left).flat, frame_operator(right).flat


def _violations(a, b, alpha1, alpha2):
    """Amount by which each (a, b) breaks the inequality beyond the margin."""
    lhs = np.sqrt(np.maximum(a - b, 0.0))
    rhs = alpha1 * np.sqrt(a) + alpha2 * np.sqrt(b)
    margins = DEFAULT_TOL.abs + DEFAULT_TOL.rel * np.sqrt(np.maximum(np.maximum(a, b), 1.0))
    return lhs - rhs - margins


def _eig_witness(s_left, s_right, n):
    """Rank-one module vector e_1 v* at the least eigenpair of S_L^-1 S_R."""
    eigs, vecs = np.linalg.eig(np.linalg.solve(s_left, s_right))
    v = vecs[:, np.argmin(eigs.real)]
    return ModuleVector(np.outer(np.eye(n)[0], v.conj()))


def test_prop_mixed_fails_where_the_pencil_witness_breaks_the_inequality(monkeypatch):
    # The violating directions here are few enough that 500 random
    # samples miss them all; the hypothesis "for all x" is still false.
    captured = []
    original = registry.prop_mixed_check

    def recorder(*args, **kwargs):
        captured.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(registry, "prop_mixed_check", recorder)
    report = registry.build_and_run("PROP_MIXED", {"alpha1": 0.2, "alpha2": 0.2}, 87)
    assert report.verdict is Verdict.HYPOTHESIS_FAILS

    ((family, other, weights, alpha1, alpha2, _),) = captured
    assert is_frame_bounds(optimal_bounds(family))
    left, s_left, s_right = _weighted_operators(family, other, weights)
    x = _eig_witness(s_left, s_right, family.algebra_dim)
    a, b = (
        spectral_norm(inner_product(apply(AdjointableOp(s, x.algebra_dim), x), x).entries)
        for s in (s_left, s_right)
    )
    assert a == pytest.approx(scalar_norm(apply(left.analysis, x)) ** 2, rel=1e-10)
    assert _violations(a, b, alpha1, alpha2) > 0.0
    # The report's pair is the same point, up to the witness's scale.
    measured = _check(report, "norm_difference_within").measured
    allowed = measured - report.details["witness_margin"]
    assert measured / allowed == pytest.approx(
        math.sqrt(max(a - b, 0.0)) / (alpha1 * math.sqrt(a) + alpha2 * math.sqrt(b)),
        rel=1e-8,
    )


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 2),
    d=st.integers(1, 2),
    count=st.integers(1, 3),
    drift=st.sampled_from([0.0, 0.1, 0.3, 0.6, 1.0]),
    alpha=st.sampled_from([0.05, 0.2, 0.5]),
)
def test_prop_mixed_exact_verdict_agrees_with_samples_and_witness(
    seed, n, d, count, drift, alpha
):
    rng = np.random.default_rng(seed)
    dims = tuple(int(k) for k in rng.integers(d, d + 2, count))
    family = random_family(rng, n, d, dims)
    noise = random_family(rng, n, d, dims)
    other = GFrameFamily(family.analysis + drift * noise.analysis, dims)
    weights = gen_weights(int(rng.integers(1 << 62)), n, count, 0.5, 2.0)
    report = prop_mixed_check(family, other, weights, alpha, alpha)
    assert is_frame_bounds(optimal_bounds(family))
    _, s_left, s_right = _weighted_operators(family, other, weights)
    if report.verdict is Verdict.HYPOTHESIS_FAILS:
        x = _eig_witness(s_left, s_right, n).flat
        xs = x[None]
    else:
        shape = (2000, n, n * d)
        xs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    a, b = (
        np.linalg.eigvalsh(xs @ s @ xs.conj().swapaxes(-1, -2))[:, -1]
        for s in (s_left, s_right)
    )
    violations = _violations(np.maximum(a, 0.0), np.maximum(b, 0.0), alpha, alpha)
    if report.verdict is Verdict.HYPOTHESIS_FAILS:
        assert violations[0] > 0.0
    else:
        assert (violations <= 0.0).all()


@pytest.mark.parametrize("seed", range(4))
def test_perturbation_reports_name_their_exact_decisions(seed):
    mixed = registry.build_and_run("PROP_MIXED", {}, seed).details
    assert {"witness_margin", "kappa"} <= set(mixed)
    assert "worst_sample_margin" not in mixed
    difference = registry.build_and_run("THM_DIFFERENCE", {}, seed)
    dominated = _check(difference, "difference_dominated")
    assert dominated.passed and dominated.measured <= dominated.limit
    assert not {"domination_gap", "sampled_ok"} & set(difference.details)


def test_inputs_of_the_wrong_count_or_module_raise_dimension_mismatch():
    family = _frame(0)
    with pytest.raises(DimensionMismatch, match="one candidate summand per member required"):
        t12_check(family, operators_from_family(family)[:-1])
    with pytest.raises(DimensionMismatch, match="families live on different modules"):
        final_corollary_check(family, _frame(1, d=3), 0.5)
    with pytest.raises(DimensionMismatch, match="one coefficient per family member required"):
        weighted_family(family, (identity(2),) * (family.size - 1))
