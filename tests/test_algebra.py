"""Unit and property tests for the matrix-algebra kernel."""

import numpy as np
import pytest

from randoms import random_element, random_matrix
from gframes import (
    AlgebraElement,
    DimensionMismatch,
    NotPositive,
    Tolerance,
    abs_element,
    adjoint,
    identity,
    is_positive,
    operator_norm,
    psd_order_leq,
    sqrt_psd,
    zero,
)


def test_adjoint_literal_cases():
    assert np.array_equal(adjoint(AlgebraElement([[1j]])).entries, [[-1j]])
    assert np.array_equal(adjoint(identity(3)).entries, np.eye(3))
    nilpotent = AlgebraElement([[0, 1], [0, 0]])
    assert np.array_equal(adjoint(nilpotent).entries, [[0, 0], [1, 0]])


def test_adjoint_is_exact_involution():
    rng = np.random.default_rng(1)
    for _ in range(100):
        a = random_element(rng, int(rng.integers(1, 5)))
        assert np.array_equal(adjoint(adjoint(a)).entries, a.entries)


def test_is_positive_literal_cases():
    assert is_positive(identity(3))
    assert not is_positive(AlgebraElement([[-1.0]]))
    assert is_positive(zero(2))


def test_is_positive_matches_eigenvalue_oracle_on_gram_matrices():
    rng = np.random.default_rng(2)
    tol = Tolerance()
    for _ in range(100):
        b = random_element(rng, int(rng.integers(1, 5)))
        gram = b @ adjoint(b)
        assert is_positive(gram)
        # Independent oracle: eigenvalues of the Hermitian part.
        herm = (gram.entries + gram.entries.conj().T) / 2
        eigs = np.linalg.eigvalsh(herm)
        assert eigs[0] >= -tol.margin(operator_norm(gram))


def test_is_positive_rejects_non_hermitian():
    assert not is_positive(AlgebraElement([[1.0, 1.0], [0.0, 1.0]]))


def test_sqrt_psd_literal_cases():
    root = sqrt_psd(AlgebraElement(np.diag([4.0, 9.0])))
    np.testing.assert_allclose(root.entries, np.diag([2.0, 3.0]), atol=1e-12)
    np.testing.assert_allclose(sqrt_psd(identity(4)).entries, np.eye(4), atol=1e-12)


def test_sqrt_psd_recovers_constructed_root():
    rng = np.random.default_rng(3)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        q, _ = np.linalg.qr(random_matrix(rng, n, n))
        lam = rng.uniform(0.0, 4.0, n)
        a = AlgebraElement((q * lam) @ q.conj().T)
        expected = (q * np.sqrt(lam)) @ q.conj().T
        root = sqrt_psd(a)
        np.testing.assert_allclose(root.entries, expected, atol=1e-10)
        assert is_positive(root)


def test_sqrt_psd_squares_back_within_tolerance():
    rng = np.random.default_rng(4)
    tol = Tolerance()
    for _ in range(100):
        b = random_element(rng, int(rng.integers(1, 5)))
        a = b @ adjoint(b)
        root = sqrt_psd(a)
        residual = operator_norm(root @ root - a)
        assert residual <= 10 * tol.margin(operator_norm(a))


def test_sqrt_psd_rejects_indefinite_input():
    with pytest.raises(NotPositive):
        sqrt_psd(AlgebraElement([[-1.0]]))


def test_abs_element_literal_cases():
    np.testing.assert_allclose(
        abs_element(AlgebraElement([[-3.0]])).entries, [[3.0]], atol=1e-12
    )
    np.testing.assert_allclose(
        abs_element(AlgebraElement([[0, 1], [0, 0]])).entries,
        np.diag([0.0, 1.0]),
        atol=1e-12,
    )


def test_abs_element_matches_svd_oracle():
    rng = np.random.default_rng(5)
    for _ in range(50):
        a = random_element(rng, int(rng.integers(1, 5)))
        # |a| = V diag(sigma) V* from the singular value decomposition.
        _, sigma, vh = np.linalg.svd(a.entries)
        expected = (vh.conj().T * sigma) @ vh
        np.testing.assert_allclose(abs_element(a).entries, expected, atol=1e-10)


def test_operator_norm_literal_cases():
    assert operator_norm(identity(5)) == pytest.approx(1.0)
    assert operator_norm(AlgebraElement(np.diag([2.0, -5.0]))) == pytest.approx(5.0)


def test_operator_norm_matches_gram_eigenvalue_oracle():
    rng = np.random.default_rng(6)
    for _ in range(100):
        a = random_element(rng, int(rng.integers(1, 5)))
        gram = a.entries.conj().T @ a.entries
        expected = np.sqrt(np.linalg.eigvalsh(gram)[-1])
        assert operator_norm(a) == pytest.approx(expected, abs=1e-10)


def test_cstar_identity():
    rng = np.random.default_rng(7)
    for _ in range(100):
        a = random_element(rng, int(rng.integers(1, 5)))
        lhs = operator_norm(adjoint(a) @ a)
        assert lhs == pytest.approx(operator_norm(a) ** 2, rel=1e-9, abs=1e-12)


def test_psd_order_literal_cases():
    assert psd_order_leq(zero(3), identity(3))
    assert not psd_order_leq(2.0 * identity(3), identity(3))
    with pytest.raises(DimensionMismatch):
        psd_order_leq(identity(2), identity(3))


def test_psd_order_reflexive_and_transitive():
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        b = random_element(rng, n)
        a = b @ adjoint(b)
        assert psd_order_leq(a, a)
        c1 = random_element(rng, n)
        c2 = random_element(rng, n)
        mid = a + c1 @ adjoint(c1)
        top = mid + c2 @ adjoint(c2)
        assert psd_order_leq(a, mid) and psd_order_leq(mid, top)
        assert psd_order_leq(a, top)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rel=-1.0)
    assert Tolerance().margin(10.0) == pytest.approx(1e-12 + 1e-8)


def test_element_validation():
    with pytest.raises(DimensionMismatch):
        AlgebraElement(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        AlgebraElement([[np.nan]])
    entries = identity(2).entries
    with pytest.raises(ValueError):
        entries[0, 0] = 5.0
