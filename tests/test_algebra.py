"""Unit and property tests for the matrix-algebra kernel."""

import numpy as np
import pytest

from oracles import svd_positivity
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
from gframes.algebra import DEFAULT_TOL, hermitian_part, positivity, spectral_norm


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


def test_hermitian_part_of_a_stack_is_taken_per_matrix():
    rng = np.random.default_rng(9)
    stack = np.stack([random_matrix(rng, 3, 3) for _ in range(4)])
    parts = hermitian_part(stack)
    assert parts.shape == stack.shape
    for mat, part in zip(stack, parts):
        assert np.array_equal(part, (mat + mat.conj().T) / 2)


@pytest.mark.parametrize(
    "mat, positive",
    [
        (np.diag([2.0, 1.0]), True),
        (np.diag([1.0, 0.0]), True),  # on the boundary
        (np.diag([1.0, -1e-13]), True),  # negative within the margin
        (np.diag([1.0, -1e-6]), False),  # negative beyond the margin
        (np.array([[1.0, 1.0], [0.0, 1.0]]), False),  # positive part, not Hermitian
        (np.array([[1.0, 1e-13j], [0.0, 1.0]]), True),  # Hermitian within the margin
    ],
)
def test_positivity_returns_the_verdict_least_eigenvalue_and_margin(mat, positive):
    tol = Tolerance()
    element = AlgebraElement(mat)
    entries = element.entries
    least, margin = positivity(entries, tol)
    verdict = least >= -margin
    assert verdict == is_positive(element, tol) == positive
    assert margin == tol.margin(np.linalg.norm(entries, 2))
    skew = np.linalg.norm(entries - entries.conj().T, 2)
    if skew <= margin:
        assert least == np.linalg.eigvalsh((entries + entries.conj().T) / 2)[0]
    else:
        # Not Hermitian: the least value is minus the skew norm.
        assert least == -skew
    want = svd_positivity(entries, tol)
    assert (verdict, least) == want[:2]
    assert abs(margin - want[2]) <= 1e-14 * want[2]


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


def _psd_stack(rng, count, size):
    raws = np.stack([random_matrix(rng, size, size) for _ in range(count)])
    return raws @ raws.conj().swapaxes(-1, -2)


_BREAKS = {
    "negative": lambda m: m - 2.0 * np.linalg.eigvalsh(m)[-1] * np.eye(len(m)),
    "within_margin": lambda m: m - 1e-13 * np.eye(len(m)),
    "not_hermitian": lambda m: m + np.triu(np.ones_like(m), 1),
    "hermitian_within_margin": lambda m: m + 1e-13j * np.triu(np.ones_like(m), 1),
    "singular": lambda m: np.zeros_like(m),
}


@pytest.mark.parametrize("brk", sorted(_BREAKS))
def test_stacked_positivity_is_the_per_matrix_positivity(brk):
    rng = np.random.default_rng(7)
    loose = Tolerance(rel=1e-3, abs=1e-3)
    for count, size in ((1, 1), (1, 3), (4, 2), (7, 6)):
        stack = _psd_stack(rng, count, size)
        least, margins = positivity(stack)
        assert (least >= -margins).all()
        for at in range(count):
            broken = stack.copy()
            broken[at] = _BREAKS[brk](stack[at])
            for tol in (DEFAULT_TOL, loose):
                least, margins = positivity(broken, tol)
                singles = [positivity(m, tol) for m in broken]
                assert least.tolist() == [lo for lo, _ in singles]
                assert margins.tolist() == [mg for _, mg in singles]


def test_stacked_spectral_norm_is_the_per_matrix_norm():
    stack = _psd_stack(np.random.default_rng(3), 5, 4) + 1j
    assert spectral_norm(stack).tolist() == [spectral_norm(m) for m in stack]
    assert isinstance(spectral_norm(stack[0]), float)


def _hermitian_stack(rng, count, size):
    stack = hermitian_part(np.stack([random_matrix(rng, size, size) for _ in range(count)]))
    assert np.array_equal(stack, stack.conj().swapaxes(-1, -2))
    return stack


def test_hermitian_positivity_agrees_with_the_svd_rule():
    rng = np.random.default_rng(11)
    for size in range(1, 13):
        for count in (1, 5):
            # Shifted by a random multiple of I, so that some pass and some fail.
            stack = _hermitian_stack(rng, count, size) + rng.uniform(-1, 3) * np.eye(size)
            least, margins = positivity(stack)
            for at, mat in enumerate(stack):
                want = svd_positivity(mat)
                for lo, mg in ((least[at], margins[at]), positivity(mat)):
                    assert (lo >= -mg, lo) == want[:2]
                    assert abs(mg - want[2]) <= 1e-14 * want[2]


def test_an_exactly_hermitian_stack_takes_no_singular_values(monkeypatch):
    stack = _hermitian_stack(np.random.default_rng(5), 4, 6)

    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.svd called")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    positivity(stack)
    positivity(stack[0])


def test_a_non_hermitian_stack_keeps_the_per_matrix_svd_rule():
    rng = np.random.default_rng(13)
    for size in range(1, 13):
        stack = _hermitian_stack(rng, 4, size) + 2.0 * np.eye(size)
        stack[1] += 1e-13j * np.eye(size)  # Hermitian within the margin
        stack[2] += 0.5j * np.eye(size)  # beyond it
        least, margins = positivity(stack)
        want = [svd_positivity(mat) for mat in stack]
        assert (least >= -margins).tolist() == [w[0] for w in want]
        assert least.tolist() == [w[1] for w in want]
        assert margins.tolist() == [w[2] for w in want]


@pytest.mark.parametrize("beyond", [False, True])
def test_a_least_eigenvalue_at_the_margin_is_decided_by_its_side(beyond):
    rng = np.random.default_rng(17)
    offset = 1e-6 if beyond else -1e-6
    # Diagonal matrices have exact eigenvalues at the default tolerance;
    # rotated ones are decided at a margin far above their round-off.
    loose = Tolerance(rel=1e-3, abs=1e-6)
    for size in (2, 5, 12):
        for tol, rotate in ((DEFAULT_TOL, False), (loose, True)):
            low = -tol.margin(1.0) * (1.0 + offset)
            mat = np.diag(rng.permutation(np.linspace(low, 1.0, size))).astype(complex)
            if rotate:
                basis = np.linalg.qr(random_matrix(rng, size, size))[0]
                mat = hermitian_part((basis * np.diag(mat)) @ basis.conj().T)
            least, margin = positivity(mat, tol)
            verdict = least >= -margin
            assert verdict is (not beyond)
            assert verdict == svd_positivity(mat, tol)[0]
            assert abs(margin - tol.margin(1.0)) <= 1e-14 * margin
