"""Frame families: operators, bounds, classification, inequality checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    batched_gram,
    batched_norm,
    batched_quadratic,
    block_diag_op,
    sampled_positive,
    verify_frame_inequality,
)
from randoms import random_element, random_family, random_op, random_vector
from gframes import (
    AdjointableOp,
    AlgebraElement,
    DimensionMismatch,
    FrameKind,
    GFrameFamily,
    adjoint_op,
    analysis,
    apply,
    bound_witnesses,
    classify,
    compose,
    cross_operator,
    frame_operator,
    identity_op,
    inner_product,
    is_frame_bounds,
    is_positive,
    is_surjective,
    operator_norm,
    optimal_bounds,
    perturb_lambda,
    psd_order_leq,
    scale_family,
    synthesis,
    synthesis_op,
    weighted_family,
    zero_op,
)
from gframes.algebra import DEFAULT_TOL, Tolerance, spectral_norm
from gframes.frames import member_grams, spectrum_bounds
from gframes.sums import _member_sums, _mn_family


def _identity_family(n, d, count=1):
    return GFrameFamily.of(identity_op(n, d) for _ in range(count))


def test_analysis_literal_cases():
    rng = np.random.default_rng(30)
    x = random_vector(rng, 2, 2)
    singles = analysis(_identity_family(2, 2), x)
    assert len(singles) == 1 and np.array_equal(singles[0].flat, x.flat)
    doubles = analysis(_identity_family(2, 2, count=2), x)
    assert all(np.array_equal(y.flat, x.flat) for y in doubles)


def test_analysis_energy_matches_frame_operator():
    rng = np.random.default_rng(31)
    for _ in range(50):
        n, d = 2, 2
        family = random_family(rng, n, d, (1, 2, 3))
        x = random_vector(rng, n, d)
        energy = None
        for y in analysis(family, x):
            gram = inner_product(y, y)
            energy = gram if energy is None else energy + gram
        quad = inner_product(apply(frame_operator(family), x), x)
        assert operator_norm(energy - quad) <= 1e-10 * max(operator_norm(quad), 1.0)


def test_synthesis_literal_and_roundtrip():
    rng = np.random.default_rng(32)
    x = random_vector(rng, 2, 2)
    family = _identity_family(2, 2)
    assert np.array_equal(synthesis(family, [x]).flat, x.flat)
    fam = random_family(rng, 2, 2, (2, 3))
    roundtrip = synthesis(fam, analysis(fam, x))
    direct = apply(frame_operator(fam), x)
    np.testing.assert_allclose(roundtrip.flat, direct.flat, atol=1e-12)


def test_frame_operator_literal_cases():
    fam = _identity_family(2, 1)
    assert np.array_equal(frame_operator(fam).flat, np.eye(2))
    fam3 = _identity_family(2, 2, count=3)
    assert np.array_equal(frame_operator(fam3).flat, 3.0 * np.eye(4))


def test_frame_operator_block_assembly_oracle():
    rng = np.random.default_rng(33)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 5))))
        family = random_family(rng, n, d, dims)
        flat = frame_operator(family).flat
        expected = sum(m.flat @ m.flat.conj().T for m in family.members)
        np.testing.assert_allclose(flat, expected, atol=1e-12)
        assert np.linalg.norm(flat - flat.conj().T, 2) <= 1e-12
        assert is_positive(AlgebraElement(flat))


def test_frame_operator_equals_synthesis_after_analysis():
    rng = np.random.default_rng(34)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 5))))
        family = random_family(rng, n, d, dims)
        via_ops = compose(synthesis_op(family), adjoint_op(synthesis_op(family)))
        direct = frame_operator(family).flat
        assert np.linalg.norm(via_ops.flat - direct, 2) <= 1e-12 * max(
            np.linalg.norm(direct, 2), 1.0
        )


def test_optimal_bounds_scaling():
    rng = np.random.default_rng(35)
    family = random_family(rng, 2, 2, (2, 3))
    base = optimal_bounds(family)
    scaled = optimal_bounds(scale_family(family, 1.5))
    assert scaled.lower == pytest.approx(2.25 * base.lower, rel=1e-9)
    assert scaled.upper == pytest.approx(2.25 * base.upper, rel=1e-9)


def test_optimal_bounds_rayleigh_oracle():
    rng = np.random.default_rng(36)
    for _ in range(20):
        family = random_family(rng, 2, 2, (2, 2, 1))
        bounds = optimal_bounds(family)
        s_flat = frame_operator(family).flat
        for _ in range(100):
            x = random_vector(rng, 2, 2)
            gram = inner_product(x, x).entries
            quad = (x.flat @ s_flat) @ x.flat.conj().T
            eigs, vecs = np.linalg.eigh((gram + gram.conj().T) / 2)
            whiten = (vecs / np.sqrt(eigs)) @ vecs.conj().T
            rayleigh = np.linalg.eigvalsh(whiten @ ((quad + quad.conj().T) / 2) @ whiten)
            assert rayleigh[0] >= bounds.lower - 1e-8
            assert rayleigh[-1] <= bounds.upper + 1e-8


def test_bound_witnesses_attain_extremes():
    rng = np.random.default_rng(37)
    for _ in range(50):
        family = random_family(rng, 2, 3, (2, 2, 2))
        bounds = optimal_bounds(family)
        s_flat = frame_operator(family).flat
        for witness, target in zip(bound_witnesses(family), (bounds.lower, bounds.upper)):
            quad = (witness.flat @ s_flat) @ witness.flat.conj().T
            gram = inner_product(witness, witness).entries
            ratio = np.trace(quad).real / np.trace(gram).real
            assert ratio == pytest.approx(target, abs=1e-8)


def test_classify_literal_cases():
    assert classify(_identity_family(2, 2)).kind is FrameKind.PARSEVAL_FRAME
    zero_family = GFrameFamily.of((zero_op(2, 2, 2),))
    assert classify(zero_family).kind is FrameKind.BESSEL_ONLY
    triple = _identity_family(2, 2, count=3)
    assert classify(triple).kind is FrameKind.TIGHT_FRAME


def test_classify_rank_deficient_embedding():
    rng = np.random.default_rng(38)
    # Member confined to a proper submodule: the frame operator is singular.
    proj = np.zeros((4, 4), dtype=np.complex128)
    proj[:2, :2] = np.eye(2)
    member = compose(random_op(rng, 2, 2, 2), AdjointableOp(proj, 2))
    family = GFrameFamily.of((member,))
    cls = classify(family)
    assert cls.kind is FrameKind.BESSEL_ONLY
    assert cls.bounds.lower <= 1e-12


def test_frame_iff_positive_lower_bound_on_samples():
    rng = np.random.default_rng(39)
    for _ in range(20):
        family = random_family(rng, 2, 2, (2, 2))
        cls = classify(family)
        s_flat = frame_operator(family).flat
        alpha = cls.bounds.lower
        if cls.kind is not FrameKind.BESSEL_ONLY:
            assert alpha > 0
            for _ in range(10):
                x = random_vector(rng, 2, 2)
                quad = AlgebraElement((x.flat @ s_flat) @ x.flat.conj().T)
                assert psd_order_leq(alpha * inner_product(x, x), quad)


def test_no_positive_lower_bound_for_deficient_family():
    rng = np.random.default_rng(46)
    proj = np.zeros((4, 4), dtype=np.complex128)
    proj[:2, :2] = np.eye(2)
    member = compose(random_op(rng, 2, 2, 3), AdjointableOp(proj, 2))
    family = GFrameFamily.of((member,))
    assert classify(family).kind is FrameKind.BESSEL_ONLY
    # The low witness defeats any positive candidate constant.
    witness, _ = bound_witnesses(family)
    s_flat = frame_operator(family).flat
    quad = AlgebraElement((witness.flat @ s_flat) @ witness.flat.conj().T)
    alpha = 1e-6 * max(optimal_bounds(family).upper, 1.0)
    assert not psd_order_leq(alpha * inner_product(witness, witness), quad)


def test_upper_inequality_always_holds():
    rng = np.random.default_rng(40)
    for _ in range(50):
        family = random_family(rng, 2, 2, (1, 2))
        bounds = optimal_bounds(family)
        s_flat = frame_operator(family).flat
        x = random_vector(rng, 2, 2)
        quad = AlgebraElement((x.flat @ s_flat) @ x.flat.conj().T)
        assert psd_order_leq(quad, bounds.upper * inner_product(x, x))


def test_verify_frame_inequality_cases():
    parseval = _identity_family(2, 2)
    assert verify_frame_inequality(parseval, 1.0, 1.0)
    assert not verify_frame_inequality(parseval, 2.0, 3.0)
    rng = np.random.default_rng(41)
    family = random_family(rng, 2, 2, (2, 3))
    bounds = optimal_bounds(family)
    assert verify_frame_inequality(
        family, bounds.lower - 1e-10, bounds.upper + 1e-10
    )
    with pytest.raises(ValueError):
        verify_frame_inequality(parseval, 2.0, 1.0)


def test_verify_frame_inequality_flags_route_disagreement():
    # A lower bound just beyond the spectral margin passes every sampled
    # vector unless the extreme witnesses are included; with them the two
    # routes agree and no error is raised.
    rng = np.random.default_rng(42)
    family = random_family(rng, 2, 2, (2, 3))
    bounds = optimal_bounds(family)
    assert not verify_frame_inequality(family, bounds.lower + 1e-3, bounds.upper)


def _surjectivity_matches_frame(family):
    return is_surjective(synthesis_op(family)) == is_frame_bounds(optimal_bounds(family))


def test_surjectivity_equivalence_selftest():
    assert _surjectivity_matches_frame(_identity_family(2, 2))
    assert _surjectivity_matches_frame(GFrameFamily.of((zero_op(2, 2, 2),)))
    rng = np.random.default_rng(43)
    for _ in range(100):
        n = int(rng.integers(1, 3))
        d = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 5))))
        assert _surjectivity_matches_frame(random_family(rng, n, d, dims))


def test_synthesis_operator_of_frame_is_surjective():
    from gframes import FamilyTarget, GenSpec, gen_family

    for seed in range(20):
        family = gen_family(GenSpec(seed, 2, 2, (2, 2), FamilyTarget.bounds(0.5, 2.0)))
        assert is_frame_bounds(optimal_bounds(family))
        assert is_surjective(synthesis_op(family))


def test_cross_operator_adjoint_pairing():
    rng = np.random.default_rng(45)
    left = random_family(rng, 2, 2, (2, 3))
    right = random_family(rng, 2, 2, (2, 3))
    cross = cross_operator(left, right)
    swapped = cross_operator(right, left)
    np.testing.assert_allclose(cross.flat, swapped.flat.conj().T, atol=1e-12)


def _relative_gap(got, want):
    return np.abs(np.asarray(got) - np.asarray(want)).max() / max(np.abs(want).max(), 1e-300)


@pytest.mark.parametrize("n, d", [(1, 1), (1, 3), (3, 1), (2, 2), (4, 3)])
def test_batched_kernels_match_the_per_vector_definitions(n, d):
    rng = np.random.default_rng(100 * n + d)
    vectors = [random_vector(rng, n, d) for _ in range(7)]
    op = random_op(rng, n, d, d)
    xs = np.stack([x.flat for x in vectors])
    quads, grams, norms = batched_quadratic(op.flat, xs), batched_gram(xs), batched_norm(xs)
    assert quads.shape == grams.shape == (len(vectors), n, n)
    for x, quad, gram, norm in zip(vectors, quads, grams, norms):
        assert _relative_gap(quad, inner_product(apply(op, x), x).entries) <= 1e-12
        assert _relative_gap(gram, inner_product(x, x).entries) <= 1e-12
        # An independent route: the top singular value of the Gram matrix.
        via_svd = np.sqrt(spectral_norm(inner_product(x, x).entries))
        assert abs(norm - via_svd) <= 1e-12 * via_svd


@pytest.mark.parametrize("n, d, dims", [(1, 1, (1,)), (1, 3, (2, 1, 3)), (2, 2, (2, 3)), (3, 2, (1, 1, 2, 4))])
def test_kept_frame_operator_and_bounds_equal_a_fresh_computation(n, d, dims):
    rng = np.random.default_rng(7 * n + d)
    for _ in range(5):
        family = random_family(rng, n, d, dims)
        a = family.analysis.flat
        fresh = a @ a.conj().T
        assert optimal_bounds(family) == spectrum_bounds(fresh)
        assert optimal_bounds(family) is optimal_bounds(family)
        kept = frame_operator(family)
        assert kept is frame_operator(family)
        assert np.array_equal(kept.flat, fresh)
        assert not kept.flat.flags.writeable
        with pytest.raises(ValueError):
            kept.flat[0, 0] = 0.0


def _eigenvalue_rule(quads, grams, scale, tol):
    """The sampled positivity rule by eigenvalues alone."""
    gram_scales = np.linalg.norm(grams, axis=(-2, -1))
    margins = tol.abs + tol.rel * scale * np.maximum(gram_scales, 1.0)
    herm = (quads + quads.conj().swapaxes(-1, -2)) / 2.0
    return bool((np.linalg.eigvalsh(herm)[:, 0] >= -margins).all()), margins


def _sampled_batch(seed, n, count, shifts, tol, scale=1.0, skew=0.0):
    """Gram matrices of random samples and quadratic forms whose least
    eigenvalues sit at ``shifts`` times each sample's margin."""
    rng = np.random.default_rng(seed)
    xs = np.stack([random_vector(rng, n, 2).flat for _ in range(count)])
    grams = batched_gram(xs)
    _, margins = _eigenvalue_rule(grams, grams, scale, tol)
    quads = []
    for i in range(count):
        basis = np.linalg.qr(random_vector(rng, n, 1).flat)[0]
        eigs = rng.uniform(0.5, 3.0, n) * scale
        eigs[0] = shifts[i % len(shifts)] * margins[i]
        herm = (basis * eigs) @ basis.conj().T
        noise = random_vector(rng, n, 1).flat
        quads.append(herm + skew * (noise - noise.conj().T))
    return np.stack(quads), grams


def _raise_if_called(*args, **kwargs):
    raise AssertionError("this route must not run")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    count=st.integers(1, 6),
    shifts=st.lists(
        st.sampled_from([-4.0, -1.01, -0.99, -0.6, -0.4, 0.0, 0.3, 1e3]), min_size=1, max_size=3
    ),
    rel=st.sampled_from([0.0, 1e-15, 1e-12, 1e-9, 1e-4]),
    abs_=st.sampled_from([0.0, 1e-14, 1e-12, 1e-6]),
    scale=st.sampled_from([1e-3, 1.0, 50.0]),
    skew=st.sampled_from([0.0, 1e-3]),
)
def test_sampled_positive_agrees_with_the_eigenvalue_rule(
    seed, n, count, shifts, rel, abs_, scale, skew
):
    tol = Tolerance(rel=rel, abs=abs_)
    quads, grams = _sampled_batch(seed, n, count, shifts, tol, scale, skew)
    assert sampled_positive(quads, grams, scale, tol) == _eigenvalue_rule(
        quads, grams, scale, tol
    )[0]


def test_sampled_positive_rejects_a_batch_beyond_the_margin():
    quads, grams = _sampled_batch(2, 3, 50, [1.0, 1.0, -1.5], DEFAULT_TOL)
    assert not sampled_positive(quads, grams, 1.0, DEFAULT_TOL)
    assert not _eigenvalue_rule(quads, grams, 1.0, DEFAULT_TOL)[0]


def test_sampled_positive_accepts_a_negative_batch_within_the_margin():
    quads, grams = _sampled_batch(3, 2, 50, [-0.9, 0.5], DEFAULT_TOL)
    assert np.linalg.eigvalsh(quads)[:, 0].min() < 0.0
    assert sampled_positive(quads, grams, 1.0, DEFAULT_TOL)


def test_sampled_positive_without_slack_decides_by_eigenvalues(monkeypatch):
    exact = Tolerance(rel=0.0, abs=0.0)
    quads, grams = _sampled_batch(4, 3, 20, [1e9], DEFAULT_TOL)
    monkeypatch.setattr(np.linalg, "cholesky", _raise_if_called)
    assert sampled_positive(quads, grams, 1.0, exact)


# Per-member loop references for the operations on the analysis operator.
_FAMILY_SHAPES = [(1, 1, (1,)), (1, 3, (2, 1, 3)), (2, 2, (2, 3)), (3, 2, (1, 1, 2, 4))]


def _assert_close(got, want):
    scale = max(np.abs(want).max(), 1.0)
    assert np.abs(got - want).max() <= 1e-12 * scale


def _assert_members(family, expected):
    assert family.member_dims == tuple(m.target_len for m in expected)
    for got, want in zip(family.members, expected, strict=True):
        _assert_close(got.flat, want.flat)


@pytest.mark.parametrize("n, d, dims", _FAMILY_SHAPES)
def test_family_operators_match_per_member_loops(n, d, dims):
    rng = np.random.default_rng(11 * n + d)
    left, right = random_family(rng, n, d, dims), random_family(rng, n, d, dims)
    frame_ref = sum(compose(adjoint_op(m), m).flat for m in left.members)
    _assert_close(frame_operator(left).flat, frame_ref)
    cross_ref = sum(
        compose(adjoint_op(p), q).flat for p, q in zip(left.members, right.members)
    )
    _assert_close(cross_operator(left, right).flat, cross_ref)
    synthesis_ref = np.vstack([adjoint_op(m).flat for m in left.members])
    _assert_close(synthesis_op(left).flat, synthesis_ref)


@pytest.mark.parametrize("n, d, dims", _FAMILY_SHAPES)
def test_member_grams_match_a_per_member_loop(n, d, dims):
    family = random_family(np.random.default_rng(19 * n + d), n, d, dims)
    grams = member_grams(family)
    assert grams.shape == (len(dims), n * d, n * d)
    for gram, m in zip(grams, family.members, strict=True):
        _assert_close(gram, m.flat @ m.flat.conj().T)


@pytest.mark.parametrize("n, d, dims", _FAMILY_SHAPES)
def test_derived_families_match_per_member_loops(n, d, dims):
    rng = np.random.default_rng(13 * n + d)
    family, other = random_family(rng, n, d, dims), random_family(rng, n, d, dims)
    pairs = list(zip(family.members, other.members))
    m_op, n_op, lam = (random_op(rng, n, d, d) for _ in range(3))

    _assert_members(_member_sums(family, other), [p + q for p, q in pairs])
    _assert_members(
        _mn_family(family, other, m_op, n_op),
        [compose(p, m_op) + compose(q, n_op) for p, q in pairs],
    )
    coeffs = [random_element(rng, n) for _ in dims]
    _assert_members(
        weighted_family(family, coeffs),
        [
            compose(block_diag_op(w, m.target_len), m)
            for w, m in zip(coeffs, family.members)
        ],
    )
    factor = 0.7 - 0.4j
    _assert_members(scale_family(family, factor), [factor * m for m in family.members])
    shifted = identity_op(n, d) + lam
    moved = optimal_bounds(GFrameFamily.of(compose(m, shifted) for m in family.members))
    achieved = perturb_lambda(family, lam).achieved
    _assert_close(
        np.array([achieved.lower, achieved.upper]), np.array([moved.lower, moved.upper])
    )


@pytest.mark.parametrize("n, d, dims", _FAMILY_SHAPES)
def test_family_of_round_trips_its_members_to_the_bit(n, d, dims):
    rng = np.random.default_rng(17 * n + d)
    ms = [random_op(rng, n, d, dz) for dz in dims]
    family = GFrameFamily.of(ms)
    assert family.member_dims == dims and family.size == len(dims)
    assert (family.algebra_dim, family.source_len) == (n, d)
    assert family.members is family.members
    for got, want in zip(family.members, ms, strict=True):
        assert np.array_equal(got.flat, want.flat)
        assert not got.flat.flags.writeable
        with pytest.raises(ValueError):
            got.flat[0, 0] = 0.0
    assert not family.analysis.flat.flags.writeable


def test_malformed_families_raise_dimension_mismatch():
    rng = np.random.default_rng(19)
    with pytest.raises(DimensionMismatch):
        GFrameFamily.of([])
    with pytest.raises(DimensionMismatch):
        GFrameFamily.of([random_op(rng, 2, 2, 1), random_op(rng, 2, 3, 1)])
    with pytest.raises(DimensionMismatch):
        GFrameFamily.of([random_op(rng, 1, 2, 1), random_op(rng, 2, 1, 1)])
    analysis_op = random_op(rng, 2, 2, 5)
    for dims in [(), (2, 2), (2, 4), (5, 0), (6, -1)]:
        with pytest.raises(DimensionMismatch):
            GFrameFamily(analysis_op, dims)
