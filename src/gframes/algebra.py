"""Matrix *-algebra kernel.

Elements are square complex matrices under the conjugate-transpose
involution, with the spectral norm, the eigenvalue-based positivity
order, and positive-semidefinite square roots.  Every value is
immutable and every operation is a pure function, so the kernel is safe
to use from concurrent code without locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotPositive


@dataclass(frozen=True)
class Tolerance:
    """Relative/absolute slack used by the numerical predicates.

    A comparison at magnitude ``s`` is allowed to err by
    ``abs + rel * s``.
    """

    rel: float = 1e-9
    abs: float = 1e-12

    def __post_init__(self):
        for name, value in (("rel", self.rel), ("abs", self.abs)):
            if not 0.0 <= value < math.inf:
                raise ValueError(f"tolerance {name!r} must be finite and nonnegative")

    def margin(self, scale: float) -> float:
        """Total slack for a comparison at the given magnitude."""
        return self.abs + self.rel * float(scale)


DEFAULT_TOL = Tolerance()


def _frozen_matrix(data, what: str) -> np.ndarray:
    """Read-only complex128 copy of a non-empty, finite 2-D array."""
    arr = np.array(data, dtype=np.complex128, order="C")
    if arr.ndim != 2 or arr.size == 0:
        raise DimensionMismatch(f"{what} must be a non-empty matrix, not {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} entries must be finite")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An n-by-n complex matrix, one element of the scalar algebra.

    Entries are stored as an immutable complex128 array.  The class only
    validates shape and finiteness; all algebraic structure lives in the
    module-level functions below.
    """

    entries: np.ndarray

    def __post_init__(self):
        shape = np.shape(self.entries)
        if len(shape) != 2 or shape[0] != shape[1] or shape[0] < 1:
            raise DimensionMismatch(f"algebra element must be a square matrix, got shape {shape}")
        object.__setattr__(self, "entries", _frozen_matrix(self.entries, "algebra element"))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_dims(self, other)
        return AlgebraElement(self.entries + other.entries)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_dims(self, other)
        return AlgebraElement(self.entries - other.entries)

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(-self.entries)

    def __matmul__(self, other: "AlgebraElement") -> "AlgebraElement":
        _check_dims(self, other)
        return AlgebraElement(self.entries @ other.entries)

    def __mul__(self, scalar: complex) -> "AlgebraElement":
        return AlgebraElement(self.entries * scalar)

    __rmul__ = __mul__


def _check_dims(a: AlgebraElement, b: AlgebraElement) -> None:
    if a.dim != b.dim:
        raise DimensionMismatch(f"algebra dims differ: {a.dim} vs {b.dim}")


def identity(n: int) -> AlgebraElement:
    """The unit of the n-by-n algebra."""
    return AlgebraElement(np.eye(n, dtype=np.complex128))


def zero(n: int) -> AlgebraElement:
    """The zero element of the n-by-n algebra."""
    return AlgebraElement(np.zeros((n, n), dtype=np.complex128))


def hermitian_part(mat: np.ndarray) -> np.ndarray:
    """Hermitian part (m + m*)/2 of a square complex matrix, or of each
    matrix in a stack of them."""
    return (mat + mat.conj().swapaxes(-1, -2)) / 2.0


def spectral_norm(mat: np.ndarray):
    """Largest singular value of a complex matrix, as a float, or of each
    matrix in a stack of them, as an array."""
    top = np.linalg.svd(mat, compute_uv=False)[..., 0]
    return float(top) if mat.ndim == 2 else top


def positivity(mat: np.ndarray, tol: Tolerance = DEFAULT_TOL):
    """Spectral positivity measure of a square matrix, or of each matrix
    in a stack of them (then each result below is an array over the
    stack).

    Returns the least value and the margin ``tol.abs + tol.rel * ||mat||``;
    the matrix is positive exactly when ``least >= -margin``, so
    near-singular positives on the PSD boundary are accepted.  The least
    value is the least eigenvalue of the Hermitian part, or
    ``-||mat - mat*||`` for a matrix whose skew part exceeds the margin,
    so a matrix that is not Hermitian up to the margin is never positive.
    When every matrix is exactly Hermitian, its norm is read off the
    eigenvalues as max|lambda|; otherwise one singular-value call
    measures the matrices and their skew parts together.
    """
    stack = mat[None] if mat.ndim == 2 else mat
    eigs = np.linalg.eigvalsh(hermitian_part(stack))
    least = eigs[:, 0]
    skew = stack - stack.conj().swapaxes(-1, -2)
    if skew.any():
        top, skew_top = np.split(spectral_norm(np.concatenate([stack, skew])), 2)
        margin = tol.abs + tol.rel * top
        least = np.where(skew_top <= margin, least, -skew_top)
    else:
        margin = tol.abs + tol.rel * np.maximum(-least, eigs[:, -1])
    if mat.ndim == 2:
        return float(least[0]), float(margin[0])
    return least, margin


def adjoint(a: AlgebraElement) -> AlgebraElement:
    """Conjugate transpose.  An exact involution: adjoint(adjoint(a)) == a."""
    return AlgebraElement(a.entries.conj().T)


def operator_norm(a: AlgebraElement) -> float:
    """Spectral norm of the element, i.e. its largest singular value."""
    return spectral_norm(a.entries)


def is_positive(a: AlgebraElement, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff ``positivity`` of the element's entries clears its margin."""
    least, margin = positivity(a.entries, tol)
    return least >= -margin


def sqrt_psd(a: AlgebraElement, tol: Tolerance = DEFAULT_TOL) -> AlgebraElement:
    """Positive square root of a positive element.

    Computed by Hermitian eigendecomposition with negative round-off
    eigenvalues clamped to zero.  Raises NotPositive when the input is
    not positive at the given tolerance.
    """
    if not is_positive(a, tol):
        raise NotPositive("sqrt_psd requires a positive element")
    eigs, vecs = np.linalg.eigh(hermitian_part(a.entries))
    eigs = np.clip(eigs, 0.0, None)
    root = (vecs * np.sqrt(eigs)) @ vecs.conj().T
    return AlgebraElement(root)


def abs_element(a: AlgebraElement, tol: Tolerance = DEFAULT_TOL) -> AlgebraElement:
    """Absolute value |a| = (a* a)^(1/2)."""
    return sqrt_psd(adjoint(a) @ a, tol)


def psd_order_leq(
    a: AlgebraElement, b: AlgebraElement, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """True iff a <= b in the positive-semidefinite order, i.e. b - a >= 0."""
    _check_dims(a, b)
    return is_positive(b - a, tol)
