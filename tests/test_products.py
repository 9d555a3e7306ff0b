"""The checkers' products on the flattenings, held bit for bit against
their operator-level forms in ``oracles``, and kept free of adjoint
copies."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gframes
from gframes import (
    AdjointableOp,
    AlgebraElement,
    GFrameFamily,
    ScalarWeights,
    cross_operator,
    frame_operator,
    op_weighted_sum,
    optimal_bounds,
    perturb_lambda,
    scalar_weighted_sum,
    t3_corollary_check,
    tight_mn_check,
    weighted_family,
)
from gframes.hilbert import isometry_defect
from gframes.stability import difference_check
from gframes.sums import (
    _member_sums,
    _mn_family,
    _tight_constant,
    lambda_lower_check,
    weighted_pair,
)
import oracles
from randoms import random_matrix

PACKAGE = Path(gframes.__file__).parent


@st.composite
def _instances(draw):
    """Sizes with n*d <= 12 (inline_replay's n = 4, d = 3 among them), one
    to five members of dims 1 to 5, and a seed, a power-of-two scale in
    2^-20..2^20 and a Hermitian flag."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(1, 12 // n))
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=5)))
    seed = draw(st.integers(0, 2**32 - 1))
    scale = 2.0 ** draw(st.integers(-20, 20))
    return n, d, dims, seed, scale, draw(st.booleans())


def _draw(instance):
    n, d, dims, seed, scale, hermitian = instance
    rng = np.random.default_rng(seed)
    width = n * sum(dims)
    family, other = (
        GFrameFamily(AdjointableOp(scale * random_matrix(rng, n * d, width), n), dims)
        for _ in range(2)
    )
    ops = []
    for _ in range(3):
        flat = scale * random_matrix(rng, n * d, n * d)
        ops.append(AdjointableOp(flat + flat.conj().T if hermitian else flat, n))
    return family, other, *ops


def _weights(rng, family):
    """Random thetas and deltas, one per member, inside a band around
    their spectra."""
    n = family.algebra_dim
    coeffs = [AlgebraElement(random_matrix(rng, n, n)) for _ in range(2 * family.size)]
    spectra = np.linalg.eigvalsh([w.entries.conj().T @ w.entries for w in coeffs])
    return ScalarWeights(
        coeffs[: family.size], coeffs[family.size :], 0.5 * spectra.min(), 2.0 * spectra.max()
    )


def _recorded(monkeypatch, module):
    """The arrays ``module`` hands its trusted wrap, in call order."""
    wrapped, trusted = [], module._op

    def recording(arr, n):
        wrapped.append(arr.copy())
        return trusted(arr, n)

    monkeypatch.setattr(module, "_op", recording)
    return wrapped


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for array, form in zip(got, want):
        assert np.array_equal(array, form.flat)


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_flat_products_equal_their_operator_forms_bit_for_bit(instance):
    family, other, m_op, n_op, lam = _draw(instance)
    assert np.array_equal(frame_operator(family).flat, oracles.gram_form(family).flat)
    assert np.array_equal(cross_operator(family, other).flat, oracles.cross_form(family, other).flat)
    assert isometry_defect(lam) == oracles.isometry_defect_form(lam)
    assert np.array_equal(
        _member_sums(family, other).analysis.flat, oracles.member_sums_form(family, other).flat
    )
    assert np.array_equal(
        _mn_family(family, other, m_op, n_op).analysis.flat,
        oracles.mn_form(family, other, m_op, n_op).flat,
    )
    weights = _weights(np.random.default_rng(instance[3] + 1), family)
    thetas, deltas = weights.thetas, weights.deltas
    assert np.array_equal(
        weighted_family(family, thetas).analysis.flat, oracles.weighted_form(family, thetas).flat
    )
    left, right = weighted_pair(family, other, weights)
    assert np.array_equal(left.analysis.flat, oracles.weighted_form(family, thetas).flat)
    assert np.array_equal(right.analysis.flat, oracles.weighted_form(other, deltas).flat)


@settings(max_examples=60, deadline=None)
@given(_instances())
def test_checker_product_chains_equal_their_operator_forms_bit_for_bit(instance):
    family, other, m_op, n_op, lam = _draw(instance)
    with pytest.MonkeyPatch.context() as monkeypatch:
        wrapped = _recorded(monkeypatch, gframes.sums)
        perturb_lambda(family, lam)
        _assert_bitwise(wrapped, [
            oracles.perturbed_form(family, lam),
            oracles.conjugation_form(family, lam),
            oracles.conjugation_form(family, lam) - oracles.gram_form(family),
        ])
        wrapped.clear()
        op_weighted_sum(family, other, m_op, n_op)
        _assert_bitwise(wrapped, [
            oracles.mn_form(family, other, m_op, n_op),
            oracles.combined_synthesis_form(family, other, m_op, n_op),
            oracles.mn_formula_form(family, other, m_op, n_op),
        ])
        wrapped.clear()
        t3_corollary_check(family, other)
        _assert_bitwise(wrapped, [
            oracles.member_sums_form(family, other),
            oracles.sum_formula_form(family, other),
        ])
        wrapped.clear()
        lambda_lower_check(family, other, m_op, n_op, 1.0)
        _assert_bitwise(wrapped, [oracles.mn_form(family, other, m_op, n_op)])
        wrapped.clear()
        weights = _weights(np.random.default_rng(instance[3] + 1), family)
        difference_check(family, other, weights, 0.5, 0.5)
        left = oracles.weighted_form(family, weights.thetas)
        right = oracles.weighted_form(other, weights.deltas)
        _assert_bitwise(wrapped, [left, right, oracles.difference_form(left, right)])


@settings(max_examples=30, deadline=None)
@given(_instances())
def test_weighted_and_tight_chains_equal_their_operator_forms_bit_for_bit(instance):
    n, d, _, seed, scale, _ = instance
    _, _, m_op, n_op, _ = _draw(instance)
    rng = np.random.default_rng(seed + 2)
    # Two Parseval families with disjoint members: P = [U 0], Q = [0 V], so
    # both are tight and T_P* T_Q = 0 exactly.
    unitaries = [np.linalg.qr(random_matrix(rng, n * d, n * d))[0] for _ in range(2)]
    zero = np.zeros((n * d, n * d))
    family = GFrameFamily(AdjointableOp(scale * np.hstack([unitaries[0], zero]), n), (d, d))
    other = GFrameFamily(AdjointableOp(scale * np.hstack([zero, unitaries[1]]), n), (d, d))
    alpha1, alpha2 = (_tight_constant(optimal_bounds(f)) for f in (family, other))
    coeffs = [AlgebraElement(random_matrix(rng, n, n)) for _ in range(4)]
    spectra = np.linalg.eigvalsh([w.entries.conj().T @ w.entries for w in coeffs])
    weights = ScalarWeights(coeffs[:2], coeffs[2:], 0.5 * spectra.min(), 2.0 * spectra.max())
    with pytest.MonkeyPatch.context() as monkeypatch:
        wrapped = _recorded(monkeypatch, gframes.sums)
        tight_mn_check(family, other, m_op, n_op)
        _assert_bitwise(wrapped, [
            oracles.combo_form(m_op, n_op, alpha1, alpha2),
            oracles.mn_form(family, other, m_op, n_op),
        ])
        wrapped.clear()
        scalar_weighted_sum(family, other, weights)
        left = oracles.weighted_form(family, coeffs[:2])
        right = oracles.weighted_form(other, coeffs[2:])
        _assert_bitwise(wrapped, [left, right, left + right])


def _calls(tree: ast.AST, name: str) -> set[str]:
    """Names of the functions in ``tree`` that call ``name``."""
    callers = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == name:
                    callers.add(func.name)
    return callers


def test_the_checkers_make_no_adjoint_copies():
    trees = {
        module: ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
        for module in ("sums", "stability", "frames")
    }
    for name in ("adjoint_op", "compose", "identity_op"):
        assert _calls(trees["stability"], name) == set()
    assert _calls(trees["sums"], "adjoint_op") == _calls(trees["sums"], "identity_op") == set()
    # The one compose left keeps the benchmark's traced compose floor defined.
    assert _calls(trees["sums"], "compose") == {"isometry_sum_check"}
    assert _calls(trees["frames"], "adjoint_op") == {"synthesis_op"}
