"""Hilbert module vectors and adjointable block operators.

A module vector over the n-by-n algebra is a d-tuple of algebra
elements; an adjointable operator between modules of lengths d and d'
is a d-by-d' array of blocks.  Both are stored only as their exact
flattenings: vectors as n-by-(n*d) row-block matrices, operators as
(n*d)-by-(n*d') matrices acting on vectors by right multiplication.
The ``components`` and ``blocks`` views slice those matrices.  Under
this convention the flattened adjoint is the conjugate transpose, and
``flat(compose(T2, T1)) == flat(T1) @ flat(T2)`` holds to the bit.
A g-frame family (``frames.GFrameFamily``) is stored the same way, as
one operator: its analysis operator into the direct sum of the member
targets.

Two rules keep every array valid.  An array from outside, as the
``serialize`` decoders and the generators pass it, is copied and checked
by a public constructor, each through the one ``algebra._frozen_matrix``.
Every operator a kernel or checker computes is wrapped by ``_op``, which
always scans it for non-finite entries; the checkers form their products
on the flattenings, each adjoint read as the view ``flat.conj().T``, and
wrap each product chain once, at its end.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import AlgebraElement, DEFAULT_TOL, Tolerance, _frozen_matrix, spectral_norm
from .errors import DimensionMismatch


def _op(arr: np.ndarray, n: int) -> "AdjointableOp":
    """Read-only wrap, with no copy or shape check, of a fresh C-contiguous
    complex128 2-D array made from valid operators, scanned for finiteness."""
    if not np.isfinite(arr).all():
        raise ValueError("operator entries must be finite")
    arr.flags.writeable = False
    op = object.__new__(AdjointableOp)
    vars(op).update(_flat=arr, algebra_dim=n)
    return op


@dataclass(frozen=True, eq=False)
class ModuleVector:
    """Element of the length-d module over the n-by-n algebra, stored as
    its n-by-(n*d) flattening; component i is columns i*n to (i+1)*n."""

    flat: np.ndarray

    def __post_init__(self):
        arr = _frozen_matrix(self.flat, "module vector")
        if arr.shape[1] % arr.shape[0] != 0:
            raise DimensionMismatch(f"flat vector shape {arr.shape} is not n-by-(n*d)")
        object.__setattr__(self, "flat", arr)

    @property
    def algebra_dim(self) -> int:
        return self.flat.shape[0]

    @property
    def length(self) -> int:
        return self.flat.shape[1] // self.flat.shape[0]

    @property
    def components(self) -> tuple[AlgebraElement, ...]:
        return tuple(AlgebraElement(c) for c in np.hsplit(self.flat, self.length))

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        _check_vectors(self, other)
        return ModuleVector(self.flat + other.flat)

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        _check_vectors(self, other)
        return ModuleVector(self.flat - other.flat)

    def __mul__(self, scalar: complex) -> "ModuleVector":
        return ModuleVector(self.flat * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True, eq=False)
class AdjointableOp:
    """Adjointable map between modules, stored as its flattening.

    Block (i, j) of the (n*source_len)-by-(n*target_len) flattening
    multiplies component i of the input and contributes to component j
    of the output.
    """

    _flat: np.ndarray  # not ``flat``: that cached property is rebound by span tracing
    algebra_dim: int

    def __post_init__(self):
        n = self.algebra_dim
        arr = _frozen_matrix(self._flat, "operator")
        if n < 1 or arr.shape[0] % n != 0 or arr.shape[1] % n != 0:
            raise DimensionMismatch(f"operator shape {arr.shape} invalid for dim {n}")
        object.__setattr__(self, "_flat", arr)

    @cached_property
    def flat(self) -> np.ndarray:
        """Complex matrix of shape (n*source_len, n*target_len)."""
        return self._flat

    @property
    def source_len(self) -> int:
        return self._flat.shape[0] // self.algebra_dim

    @property
    def target_len(self) -> int:
        return self._flat.shape[1] // self.algebra_dim

    @property
    def blocks(self) -> tuple[tuple[AlgebraElement, ...], ...]:
        return tuple(
            tuple(AlgebraElement(b) for b in np.hsplit(row, self.target_len))
            for row in np.vsplit(self._flat, self.source_len)
        )

    def __add__(self, other: "AdjointableOp") -> "AdjointableOp":
        _check_op_shapes(self, other)
        return _op(self._flat + other._flat, self.algebra_dim)

    def __sub__(self, other: "AdjointableOp") -> "AdjointableOp":
        _check_op_shapes(self, other)
        return _op(self._flat - other._flat, self.algebra_dim)

    def __neg__(self) -> "AdjointableOp":
        return _op(-self._flat, self.algebra_dim)

    def __mul__(self, scalar: complex) -> "AdjointableOp":
        arr = (self._flat * scalar).astype(np.complex128, copy=False)
        if arr.shape != self._flat.shape:
            raise DimensionMismatch(f"cannot scale an operator by shape {np.shape(scalar)}")
        return _op(arr, self.algebra_dim)

    __rmul__ = __mul__

    def __matmul__(self, other: "AdjointableOp") -> "AdjointableOp":
        """Operator product self . other (other is applied first)."""
        return compose(self, other)


def _check_vectors(x: ModuleVector, y: ModuleVector) -> None:
    if x.flat.shape != y.flat.shape:
        raise DimensionMismatch(f"vector shapes {x.flat.shape} and {y.flat.shape} differ")


def _check_op_shapes(a: AdjointableOp, b: AdjointableOp) -> None:
    if a.algebra_dim != b.algebra_dim or a._flat.shape != b._flat.shape:
        raise DimensionMismatch("operator shapes differ")


def identity_op(n: int, length: int) -> AdjointableOp:
    """Identity operator on the length-d module over the n-by-n algebra."""
    return AdjointableOp(np.eye(n * length, dtype=np.complex128), n)


def zero_op(n: int, source_len: int, target_len: int) -> AdjointableOp:
    """Zero operator between modules of the given lengths."""
    return AdjointableOp(
        np.zeros((n * source_len, n * target_len), dtype=np.complex128), n
    )


def inner_product(x: ModuleVector, y: ModuleVector) -> AlgebraElement:
    """Algebra-valued inner product, linear in the first argument.

    Returns sum_i x_i y_i*; satisfies <a x + y, z> = a <x, z> + <y, z>
    and <x, y> = adjoint(<y, x>).
    """
    _check_vectors(x, y)
    return AlgebraElement(x.flat @ y.flat.conj().T)


def module_scale(a: AlgebraElement, x: ModuleVector) -> ModuleVector:
    """Module action of an algebra element: components become a x_i."""
    if a.dim != x.algebra_dim:
        raise DimensionMismatch("algebra dim does not match vector")
    return ModuleVector(a.entries @ x.flat)


def scalar_norm(x: ModuleVector) -> float:
    """Module norm ||x|| = ||<x, x>||^(1/2), the largest singular value
    of the flattening, since <x, x> = x.x* flattened."""
    return spectral_norm(x.flat)


def apply(op: AdjointableOp, x: ModuleVector) -> ModuleVector:
    """Apply the operator: component j of the result is sum_i x_i blocks[i][j]."""
    if op.algebra_dim != x.algebra_dim or op.source_len != x.length:
        raise DimensionMismatch(
            f"operator expects length {op.source_len}, vector has {x.length}"
        )
    return ModuleVector(x.flat @ op.flat)


def adjoint_op(op: AdjointableOp) -> AdjointableOp:
    """Adjoint: blocks transposed, each block conjugate-transposed.

    Satisfies <apply(T, x), y> = <x, apply(adjoint_op(T), y)> and
    flattens to the exact conjugate transpose of flat(T).
    """
    return _op(np.conjugate(op._flat.T, order="C"), op.algebra_dim)


def compose(second: AdjointableOp, first: AdjointableOp) -> AdjointableOp:
    """Composition second . first (apply ``first``, then ``second``)."""
    if first.algebra_dim != second.algebra_dim:
        raise DimensionMismatch("operators live over different algebras")
    if first._flat.shape[1] != second._flat.shape[0]:
        raise DimensionMismatch(
            f"cannot compose: inner lengths {first.target_len} vs {second.source_len}"
        )
    return _op(first._flat @ second._flat, first.algebra_dim)


def op_norm(op: AdjointableOp) -> float:
    """Operator norm, the largest singular value of the flattening."""
    return spectral_norm(op.flat)


def is_surjective(op: AdjointableOp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Surjectivity via the flattened adjoint being bounded below.

    The adjoint is bounded below exactly when the target is no larger
    than the source and the least of the n*target_len singular values
    exceeds sqrt(``tol.rel``) times the largest: the rule of
    ``frames.is_frame_bounds`` on the eigenvalues of T T*, so a synthesis
    operator is surjective exactly when its family is a frame, at any scale.
    """
    if op.target_len > op.source_len:
        return False
    svals = np.linalg.svd(op.flat, compute_uv=False)
    return bool(svals[-1] > tol.rel**0.5 * svals[0])


def isometry_defect(op: AdjointableOp) -> float:
    """||adjoint_op(T) . T - I||, which vanishes exactly for an isometry."""
    gram = _op(op._flat @ op._flat.conj().T, op.algebra_dim)._flat
    return spectral_norm(gram - np.eye(gram.shape[0], dtype=np.complex128))


def is_isometry(op: AdjointableOp, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff adjoint_op(T) . T is the identity within tolerance."""
    return isometry_defect(op) <= tol.margin(1.0)
