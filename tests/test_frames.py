"""Frame families: operators, bounds, classification, inequality checks."""

import numpy as np
import pytest

from randoms import random_family, random_op, random_vector
from gframes import (
    AdjointableOp,
    AlgebraElement,
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
    psd_order_leq,
    scalar_norm,
    scale_family,
    synthesis,
    synthesis_op,
    verify_frame_inequality,
    zero_op,
)
from gframes.frames import batched_gram, batched_norm, batched_quadratic


def _identity_family(n, d, count=1):
    return GFrameFamily(tuple(identity_op(n, d) for _ in range(count)))


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
    zero_family = GFrameFamily((zero_op(2, 2, 2),))
    assert classify(zero_family).kind is FrameKind.BESSEL_ONLY
    triple = _identity_family(2, 2, count=3)
    assert classify(triple).kind is FrameKind.TIGHT_FRAME


def test_classify_rank_deficient_embedding():
    rng = np.random.default_rng(38)
    # Member confined to a proper submodule: the frame operator is singular.
    proj = np.zeros((4, 4), dtype=np.complex128)
    proj[:2, :2] = np.eye(2)
    member = compose(random_op(rng, 2, 2, 2), AdjointableOp(proj, 2))
    family = GFrameFamily((member,))
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
    family = GFrameFamily((member,))
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
    assert _surjectivity_matches_frame(GFrameFamily((zero_op(2, 2, 2),)))
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
        assert abs(norm - scalar_norm(x)) <= 1e-12 * scalar_norm(x)
