"""Module vectors, adjointable operators, and their flattenings."""

import numpy as np
import pytest

from oracles import block_diag_op
from randoms import random_element, random_family, random_matrix, random_op, random_vector
from gframes import (
    AdjointableOp,
    AlgebraElement,
    DimensionMismatch,
    GFrameFamily,
    ModuleVector,
    ScalarWeights,
    Tolerance,
    adjoint,
    adjoint_op,
    apply,
    compose,
    cross_operator,
    frame_operator,
    identity,
    identity_op,
    inner_product,
    is_isometry,
    is_positive,
    is_surjective,
    isometry_sum_check,
    module_scale,
    op_weighted_sum,
    operators_from_family,
    op_norm,
    operator_norm,
    perturb_lambda,
    psd_order_leq,
    scalar_norm,
    scalar_weighted_sum,
    t3_corollary_check,
    tight_mn_check,
    weighted_family,
    zero,
    zero_op,
)
from gframes.hilbert import _op, isometry_defect


def test_inner_product_literal_cases():
    x = ModuleVector(np.eye(2))
    assert np.array_equal(inner_product(x, x).entries, np.eye(2))
    rng = np.random.default_rng(0)
    a, b = random_element(rng, 2), random_element(rng, 2)
    disjoint_x = ModuleVector(np.hstack([a.entries, np.zeros((2, 2))]))
    disjoint_y = ModuleVector(np.hstack([np.zeros((2, 2)), b.entries]))
    assert np.array_equal(inner_product(disjoint_x, disjoint_y).entries, np.zeros((2, 2)))


def test_inner_product_axioms():
    rng = np.random.default_rng(10)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        x, y, z = (random_vector(rng, n, d) for _ in range(3))
        a = random_element(rng, n)

        # Positivity, with zero only at the zero vector.
        gram = inner_product(x, x)
        assert is_positive(gram)
        assert scalar_norm(x) > 0.0

        # Linearity in the first slot over the algebra.
        lhs = inner_product(module_scale(a, x) + y, z)
        rhs = a @ inner_product(x, z) + inner_product(y, z)
        scale = max(operator_norm(lhs), 1.0)
        assert operator_norm(lhs - rhs) <= 1e-12 * scale

        # Conjugate symmetry.
        assert operator_norm(
            inner_product(x, y) - adjoint(inner_product(y, x))
        ) <= 1e-12 * max(operator_norm(inner_product(x, y)), 1.0)


def test_inner_product_zero_iff_zero_vector():
    zero_vec = ModuleVector(np.zeros((3, 6)))
    assert np.array_equal(inner_product(zero_vec, zero_vec).entries, np.zeros((3, 3)))
    assert scalar_norm(zero_vec) == 0.0


def test_scalar_norm_against_flattening_oracle():
    rng = np.random.default_rng(11)
    assert scalar_norm(ModuleVector(np.eye(3))) == pytest.approx(1.0)
    for _ in range(100):
        x = random_vector(rng, int(rng.integers(1, 4)), int(rng.integers(1, 5)))
        expected = np.linalg.svd(x.flat, compute_uv=False)[0]
        assert scalar_norm(x) == pytest.approx(expected, abs=1e-10)


def test_apply_identity_and_zero():
    rng = np.random.default_rng(12)
    x = random_vector(rng, 2, 3)
    out = apply(identity_op(2, 3), x)
    assert np.array_equal(out.flat, x.flat)
    out = apply(zero_op(2, 3, 2), x)
    assert np.array_equal(out.flat, np.zeros((2, 4)))


def test_apply_block_formula():
    rng = np.random.default_rng(13)
    op = random_op(rng, 2, 3, 2)
    x = random_vector(rng, 2, 3)
    result = apply(op, x)
    for j in range(2):
        expected = sum(
            (x.components[i] @ op.blocks[i][j] for i in range(3)),
            start=zero(2),
        )
        np.testing.assert_allclose(result.components[j].entries, expected.entries, atol=1e-12)


def test_apply_is_module_linear():
    rng = np.random.default_rng(14)
    for _ in range(50):
        n, d, dz = 2, 3, 2
        op = random_op(rng, n, d, dz)
        x = random_vector(rng, n, d)
        a = random_element(rng, n)
        lhs = apply(op, module_scale(a, x))
        rhs = module_scale(a, apply(op, x))
        assert np.linalg.norm(lhs.flat - rhs.flat) <= 1e-12 * max(
            np.linalg.norm(lhs.flat), 1.0
        )


def test_adjoint_contract():
    rng = np.random.default_rng(15)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d, dz = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        op = random_op(rng, n, d, dz)
        x = random_vector(rng, n, d)
        y = random_vector(rng, n, dz)
        lhs = inner_product(apply(op, x), y)
        rhs = inner_product(x, apply(adjoint_op(op), y))
        assert operator_norm(lhs - rhs) <= 1e-10 * max(operator_norm(lhs), 1.0)


def test_adjoint_op_literal_and_exact_flattening():
    assert np.array_equal(adjoint_op(identity_op(2, 2)).flat, np.eye(4))
    tiny = AdjointableOp(np.array([[1j]]), 1)
    assert np.array_equal(adjoint_op(tiny).flat, np.array([[-1j]]))
    rng = np.random.default_rng(16)
    for _ in range(100):
        op = random_op(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        assert np.array_equal(adjoint_op(op).flat, op.flat.conj().T)
        assert np.array_equal(adjoint_op(adjoint_op(op)).flat, op.flat)


def test_compose_functoriality_is_exact():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        a, b, c = (int(rng.integers(1, 4)) for _ in range(3))
        first = random_op(rng, n, a, b)
        second = random_op(rng, n, b, c)
        composed = compose(second, first)
        assert np.array_equal(composed.flat, first.flat @ second.flat)


def test_compose_identity_and_self_adjoint_product():
    rng = np.random.default_rng(18)
    op = random_op(rng, 2, 3, 2)
    assert np.array_equal(compose(op, identity_op(2, 3)).flat, op.flat)
    prod = compose(op, adjoint_op(op))
    assert is_positive(AlgebraElement(prod.flat))


def test_compose_associativity():
    rng = np.random.default_rng(19)
    t1 = random_op(rng, 2, 2, 3)
    t2 = random_op(rng, 2, 3, 2)
    t3 = random_op(rng, 2, 2, 4)
    left = compose(t3, compose(t2, t1))
    right = compose(compose(t3, t2), t1)
    np.testing.assert_allclose(left.flat, right.flat, atol=1e-12)


def test_compose_matches_application_order():
    rng = np.random.default_rng(20)
    t1 = random_op(rng, 2, 2, 3)
    t2 = random_op(rng, 2, 3, 2)
    x = random_vector(rng, 2, 2)
    via_compose = apply(compose(t2, t1), x)
    via_steps = apply(t2, apply(t1, x))
    np.testing.assert_allclose(via_compose.flat, via_steps.flat, atol=1e-12)


def test_op_norm_literal_and_sampling_oracle():
    assert op_norm(identity_op(2, 3)) == pytest.approx(1.0)
    assert op_norm((-2.5) * identity_op(2, 2)) == pytest.approx(2.5)
    rng = np.random.default_rng(21)
    op = random_op(rng, 2, 3, 2)
    bound = op_norm(op)
    worst = 0.0
    for _ in range(500):
        x = random_vector(rng, 2, 3)
        worst = max(worst, scalar_norm(apply(op, x)) / scalar_norm(x))
    assert worst <= bound + 1e-9


def test_norm_bound_quadratic_form():
    # <Tx, Tx> <= ||T||^2 <x, x> for random instances.
    rng = np.random.default_rng(22)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        d, dz = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        op = random_op(rng, n, d, dz)
        x = random_vector(rng, n, d)
        tx = apply(op, x)
        assert psd_order_leq(
            inner_product(tx, tx), op_norm(op) ** 2 * inner_product(x, x)
        )


def test_is_surjective_literal_cases():
    assert is_surjective(identity_op(2, 3))
    assert not is_surjective(zero_op(2, 3, 3))
    # A wide target cannot be covered from a narrow source.
    assert not is_surjective(zero_op(2, 1, 3))


@pytest.mark.parametrize("k", [-60, -20, 20, 60])
def test_is_surjective_does_not_depend_on_the_scale(k):
    wide = random_op(np.random.default_rng(26), 2, 3, 2)
    assert is_surjective(wide) and is_surjective(2.0**k * wide)
    assert not is_surjective(2.0**k * zero_op(2, 3, 2))


def _bounded_below_routes(op, tol, rng, samples=500):
    """Two independent routes of the bounded-below equivalence."""
    flat_adj = op.flat.conj().T
    u, svals, _ = np.linalg.svd(flat_adj, full_matrices=True)
    # Norm route: sampled ratios plus the left-singular witnesses.
    ratios = []
    for _ in range(samples):
        y = random_vector(rng, op.algebra_dim, op.target_len)
        ratios.append(
            scalar_norm(apply(adjoint_op(op), y)) / max(scalar_norm(y), 1e-300)
        )
    for k in range(u.shape[1]):
        witness = ModuleVector(np.outer(np.eye(op.algebra_dim, 1)[:, 0], u[:, k].conj()))
        ratios.append(scalar_norm(apply(adjoint_op(op), witness)))
    gain = min(ratios)
    norm_route = gain > tol.margin(max(svals[0], 1.0) if svals.size else 1.0)
    # Inner-product route: the Gram of the adjoint dominates a positive
    # multiple of the identity.
    gram = flat_adj @ flat_adj.conj().T
    lam = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    ip_route = lam[0] > tol.margin(max(lam[-1], 1.0))
    return norm_route, ip_route


def test_surjectivity_equivalence_three_routes():
    rng = np.random.default_rng(23)
    tol = Tolerance()
    cases = []
    for _ in range(50):
        n, d = 2, 2
        cases.append(random_op(rng, n, d + 1, d))  # wide source, surjective a.s.
        deficient = random_op(rng, n, d, d)
        mask = np.ones(n * d)
        mask[-1] = 0.0
        cases.append(AdjointableOp(deficient.flat * mask, n))  # killed column
    for op in cases:
        surjective = is_surjective(op, tol)
        norm_route, ip_route = _bounded_below_routes(op, tol, rng, samples=500)
        assert surjective == ip_route
        assert surjective == norm_route


def test_is_isometry():
    assert is_isometry(identity_op(2, 2))
    assert not is_isometry(2.0 * identity_op(2, 2))
    phase = AdjointableOp(np.diag(np.exp(1j * np.linspace(0, 2, 4))), 2)
    assert is_isometry(phase)


def test_block_diag_op_acts_componentwise():
    rng = np.random.default_rng(24)
    w = random_element(rng, 2)
    lift = block_diag_op(w, 3)
    x = random_vector(rng, 2, 3)
    out = apply(lift, x)
    for i in range(3):
        np.testing.assert_allclose(
            out.components[i].entries, (x.components[i] @ w).entries, atol=1e-12
        )


def test_dimension_mismatches_raise():
    rng = np.random.default_rng(25)
    with pytest.raises(DimensionMismatch):
        inner_product(random_vector(rng, 2, 2), random_vector(rng, 2, 3))
    with pytest.raises(DimensionMismatch):
        apply(identity_op(2, 3), random_vector(rng, 2, 2))
    with pytest.raises(DimensionMismatch):
        compose(random_op(rng, 2, 2, 2), random_op(rng, 2, 2, 3))
    with pytest.raises(DimensionMismatch):
        ModuleVector(np.zeros((2, 3)))
    with pytest.raises(DimensionMismatch):
        random_op(rng, 2, 2, 2) * np.ones((3, 4, 4))


def _kernel_results(rng):
    """Every result that a kernel wraps without the public constructor."""
    a, b = random_op(rng, 2, 2, 3), random_op(rng, 2, 2, 3)
    family = random_family(rng, 2, 2, (1, 3, 2))
    weights = tuple(random_element(rng, 2) for _ in range(family.size))
    results = {
        "compose": compose(adjoint_op(a), b),
        "adjoint_op": adjoint_op(a),
        "add": a + b,
        "sub": a - b,
        "neg": -a,
        "scale_float": a * 2.5,
        "scale_int": 3 * a,
        "scale_complex": a * (1 - 2j),
        "scale_float32": a * np.float32(0.5),
        "of": GFrameFamily.of((a, b)).analysis,
        "weighted_family": weighted_family(family, weights).analysis,
        "frame_operator": frame_operator(family),
        "cross_operator": cross_operator(family, weighted_family(family, weights)),
    }
    results.update({f"member_{j}": m for j, m in enumerate(family.members)})
    results.update(
        {f"gram_{j}": g for j, g in enumerate(operators_from_family(family))}
    )
    return results


def test_kernel_results_are_read_only_complex_c_contiguous_matrices():
    rng = np.random.default_rng(26)
    for name, op in _kernel_results(rng).items():
        flat = op.flat
        assert flat.dtype == np.complex128, name
        assert flat.ndim == 2 and flat.flags.c_contiguous, name
        assert not flat.flags.writeable, name
        with pytest.raises(ValueError):
            flat[0, 0] = 1.0


def test_the_public_constructor_copies_its_input():
    rng = np.random.default_rng(28)
    data = random_matrix(rng, 4, 6)
    kept = data.copy()
    op = AdjointableOp(data, 2)
    assert not np.shares_memory(op.flat, data)
    data[0, 0] = 99.0
    data[1:, :] = np.nan
    assert np.array_equal(op.flat, kept)
    vec = ModuleVector(data[:1])
    data[0, 1] = 7.0
    assert vec.flat[0, 1] == kept[0, 1]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(1.0, np.inf)])
def test_the_one_wrap_scans_every_array(bad):
    arr = np.eye(2, dtype=np.complex128)
    assert not _op(arr.copy(), 1).flat.flags.writeable
    arr[1, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        _op(arr, 1)


def test_overflowing_kernel_products_raise_outside_the_runner():
    # Outside ``run_decoded`` no errstate guard raises; the finite scan does.
    big = AdjointableOp(np.full((2, 2), 1e200 + 1e200j), 1)
    huge = AdjointableOp(np.full((2, 2), 1.5e308), 1)
    with np.errstate(all="ignore"):
        with pytest.raises(ValueError, match="finite"):
            compose(big, big)
        with pytest.raises(ValueError, match="finite"):
            huge + huge
        with pytest.raises(ValueError, match="finite"):
            huge - (-huge)
        with pytest.raises(ValueError, match="finite"):
            big * 1e200
        with pytest.raises(ValueError, match="finite"):
            1e200 * big
        with pytest.raises(ValueError, match="finite"):
            big * np.inf
        with pytest.raises(ValueError, match="finite"):
            big * np.nan
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="finite"):
            huge + huge


def _diagonal_family(value: float, member_dims=(1, 1)) -> GFrameFamily:
    """Family over the 1-by-1 algebra whose analysis flattening is
    ``value`` times the identity, split into the given members."""
    size = sum(member_dims)
    return GFrameFamily(AdjointableOp(value * np.eye(size), 1), member_dims)


def _scaled_identity(value: float) -> AdjointableOp:
    return AdjointableOp(value * np.eye(2), 1)


def test_overflowing_checker_products_raise_outside_the_runner():
    # Each product chain the checkers form on the flattenings ends in one
    # scanning wrap.  Each input overflows first in the chain it names;
    # entries of 1e160 overflow a product of degree 2, 1e80 one of degree 4.
    big, unit, mid = _diagonal_family(1e160), _diagonal_family(1.0), _diagonal_family(1e80)
    tight_pair = (  # P = [I 0] and Q = [0 I]: tight, with T_P* T_Q = 0
        GFrameFamily(AdjointableOp(np.eye(2, 4), 1), (2, 2)),
        GFrameFamily(AdjointableOp(np.eye(2, 4, 2), 1), (2, 2)),
    )
    ones = (identity(1),) * 2
    chains = {
        "frame operator": lambda: frame_operator(big),
        "cross_operator": lambda: cross_operator(big, big),
        "isometry_defect": lambda: isometry_defect(_scaled_identity(1e160)),
        "PERTURB_LAMBDA new family": lambda: perturb_lambda(
            _diagonal_family(1e300), _scaled_identity(1e10)),
        "PERTURB_LAMBDA conjugation": lambda: perturb_lambda(unit, _scaled_identity(1e160)),
        "T3_EQUIV members P.M + Q.N": lambda: op_weighted_sum(
            big, big, _scaled_identity(1e160), _scaled_identity(1e160)),
        "T3_EQUIV closed form": lambda: op_weighted_sum(
            mid, mid, _scaled_identity(1e80), _scaled_identity(1e80)),
        "T3_COROLLARY closed form": lambda: t3_corollary_check(
            _diagonal_family(0.9e154, (1,)), _diagonal_family(0.9e154, (1,))),
        "T7_SCALAR weighted members": lambda: scalar_weighted_sum(big, big, ScalarWeights(
            (identity(1) * 1e150,) * 2, (identity(1) * 1e150,) * 2, 0.5, 1e301)),
        "T7_SCALAR member sums": lambda: scalar_weighted_sum(
            _diagonal_family(1.2e308), _diagonal_family(1.2e308), ScalarWeights(ones, ones, 0.5, 2.0)),
        "TIGHT_MN combination": lambda: tight_mn_check(
            *tight_pair, _scaled_identity(1e160), _scaled_identity(1.0)),
        "ISOMETRY_SUM isometry defect": lambda: isometry_sum_check(
            unit, unit, _scaled_identity(1e160)),
        # Every degree-2 product stays finite; only (T_P + T_Q).lam overflows.
        "ISOMETRY_SUM new family": lambda: isometry_sum_check(
            _diagonal_family(9e153), _diagonal_family(9e153), _scaled_identity(1.3e154)),
    }
    with np.errstate(all="ignore"):
        for name, chain in chains.items():
            with pytest.raises(ValueError, match="finite"):
                chain()
