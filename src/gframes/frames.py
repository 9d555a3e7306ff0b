"""g-frame families and their operators.

A family is a finite list of adjointable operators from one common
module H into per-member target modules H_j.  It is stored as its
analysis operator T: H -> H_1 + ... + H_m, whose flattening is the
member flattenings side by side; the frame operator is T*T and the
synthesis operator T*.  This module computes optimal bounds from the
spectrum of the flattened frame operator, and classifies families.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .algebra import DEFAULT_TOL, Tolerance, hermitian_part
from .errors import DimensionMismatch
from .hilbert import AdjointableOp, ModuleVector, _op, adjoint_op, apply

# Relative margin for deciding that optimal bounds coincide (tightness).
TIGHTNESS_REL = 1e-8


class FrameKind(str, Enum):
    BESSEL_ONLY = "Bessel-only"
    FRAME = "Frame"
    TIGHT_FRAME = "TightFrame"
    PARSEVAL_FRAME = "ParsevalFrame"


@dataclass(frozen=True)
class FrameBounds:
    """Optimal constants of the frame inequality, with tightness flags."""

    lower: float
    upper: float
    tight: bool
    parseval: bool


@dataclass(frozen=True)
class Classification:
    """The kind and optimal bounds that ``sums.theorem_report`` reports;
    a None kind means the report states no result kind."""

    kind: FrameKind | None
    bounds: FrameBounds


@dataclass(frozen=True, eq=False)
class GFrameFamily:
    """Finite indexed family of adjointable operators out of one module,
    stored as its analysis operator: member j is the block of columns
    that ``member_dims[j]`` gives it, in order.

    The analysis operator is read-only, so the members, the frame
    operator and its bounds are computed on first use and kept
    (``members``, ``frame_operator``, ``optimal_bounds``).
    """

    analysis: AdjointableOp
    member_dims: tuple[int, ...]

    def __post_init__(self):
        dims = tuple(self.member_dims)
        if not dims or min(dims) < 1 or sum(dims) != self.analysis.target_len:
            raise DimensionMismatch(f"member dims {dims} do not split the target")
        object.__setattr__(self, "member_dims", dims)

    @classmethod
    def of(cls, members) -> "GFrameFamily":
        """The family of the given member operators, in order."""
        members = tuple(members)
        if not members:
            raise DimensionMismatch("family needs at least one member")
        if len({(m.algebra_dim, m._flat.shape[0]) for m in members}) != 1:
            raise DimensionMismatch("family members disagree on the source module")
        n = members[0].algebra_dim
        analysis = _op(np.hstack([m._flat for m in members]), n)
        return cls(analysis, tuple(m._flat.shape[1] // n for m in members))

    @property
    def algebra_dim(self) -> int:
        return self.analysis.algebra_dim

    @property
    def source_len(self) -> int:
        return self.analysis.source_len

    @property
    def size(self) -> int:
        return len(self.member_dims)

    @cached_property
    def members(self) -> tuple[AdjointableOp, ...]:
        """The member operators, split off the analysis flattening."""
        n = self.algebra_dim
        blocks = np.hsplit(self.analysis._flat, n * np.cumsum(self.member_dims[:-1]))
        return tuple(_op(np.ascontiguousarray(block), n) for block in blocks)

    @cached_property
    def operator(self) -> AdjointableOp:
        flat = self.analysis._flat
        return _op(flat @ flat.conj().T, self.algebra_dim, scan=True)

    @cached_property
    def bounds(self) -> FrameBounds:
        return spectrum_bounds(self.operator._flat)


def scale_family(family: GFrameFamily, factor: complex) -> GFrameFamily:
    """Family with every member multiplied by the scalar factor."""
    return GFrameFamily(factor * family.analysis, family.member_dims)


def analysis(family: GFrameFamily, x: ModuleVector) -> list[ModuleVector]:
    """Per-member images [member_0 x, member_1 x, ...]."""
    return [apply(m, x) for m in family.members]


def synthesis(family: GFrameFamily, ys: list[ModuleVector]) -> ModuleVector:
    """Sum of adjoint images, the inverse-direction map of ``analysis``."""
    if len(ys) != family.size:
        raise DimensionMismatch(
            f"expected {family.size} coefficient vectors, got {len(ys)}"
        )
    for dz, y in zip(family.member_dims, ys):
        if y.length != dz or y.algebra_dim != family.algebra_dim:
            raise DimensionMismatch("coefficient vector does not match member target")
    return apply(synthesis_op(family), ModuleVector(np.hstack([y.flat for y in ys])))


def synthesis_op(family: GFrameFamily) -> AdjointableOp:
    """Synthesis operator T* from the direct sum of the member targets."""
    return adjoint_op(family.analysis)


def frame_operator(family: GFrameFamily) -> AdjointableOp:
    """Frame operator T*T: the sum of adjoint(member) . member on the source."""
    return family.operator


def require_compatible(left: GFrameFamily, right: GFrameFamily) -> None:
    """Two families must share the source module and the member targets."""
    if (
        left.algebra_dim != right.algebra_dim
        or left.source_len != right.source_len
        or left.member_dims != right.member_dims
    ):
        raise DimensionMismatch("families are not index-compatible")


def require_endomorphism(op: AdjointableOp, family: GFrameFamily, name: str) -> None:
    """The operator must map the family's source module into itself."""
    n, d = family.algebra_dim, family.source_len
    if op.algebra_dim != n or op.source_len != d or op.target_len != d:
        raise DimensionMismatch(f"{name} must act on the source module itself")


def cross_operator(left: GFrameFamily, right: GFrameFamily) -> AdjointableOp:
    """Mixed operator synthesis(left) . analysis(right) on the source module."""
    require_compatible(left, right)
    return _op(right.analysis._flat @ left.analysis._flat.conj().T, left.algebra_dim, scan=True)


def member_grams(family: GFrameFamily) -> np.ndarray:
    """Flattened summands adjoint(T_j).T_j of the frame operator, one per
    member, shape (m, n*d, n*d): one batched product of the analysis
    flattening, copy j masked to member j's column block, with its
    conjugate transpose."""
    flat = family.analysis._flat
    index = np.arange(family.size)
    owner = np.repeat(index, family.algebra_dim * np.array(family.member_dims))
    blocks = np.where(owner == index[:, None, None], flat, 0.0)
    return blocks @ flat.conj().T


def spectrum_bounds(flat: np.ndarray) -> FrameBounds:
    """Bounds read off the extreme eigenvalues of the Hermitian part of a
    flattened operator, the lower one clipped at zero."""
    eigs = np.linalg.eigvalsh(hermitian_part(flat))
    lower = float(max(eigs[0], 0.0))
    upper = float(max(eigs[-1], lower))
    tight = (upper - lower) <= TIGHTNESS_REL * upper
    parseval = tight and abs(lower - 1.0) <= TIGHTNESS_REL * max(upper, 1.0)
    return FrameBounds(lower=lower, upper=upper, tight=tight, parseval=parseval)


def optimal_bounds(family: GFrameFamily) -> FrameBounds:
    """Best constants of the frame inequality: the extreme eigenvalues
    of the flattened frame operator."""
    return family.bounds


def is_frame_bounds(bounds: FrameBounds, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Scale-invariant reading of "frame operator strictly positive": the
    lower bound exceeds ``tol.rel`` times the upper one, never at zero."""
    return bounds.lower > tol.rel * bounds.upper


def classify(family: GFrameFamily, tol: Tolerance = DEFAULT_TOL) -> Classification:
    """Classify as Bessel-only / Frame / TightFrame / ParsevalFrame."""
    bounds = optimal_bounds(family)
    if not is_frame_bounds(bounds, tol):
        return Classification(FrameKind.BESSEL_ONLY, bounds)
    if bounds.parseval:
        return Classification(FrameKind.PARSEVAL_FRAME, bounds)
    if bounds.tight:
        return Classification(FrameKind.TIGHT_FRAME, bounds)
    return Classification(FrameKind.FRAME, bounds)


def bound_witnesses(family: GFrameFamily) -> tuple[ModuleVector, ModuleVector]:
    """Unit vectors attaining the lower and upper optimal bounds.

    Built from the extreme eigenvectors of the flattened frame operator:
    for a rank-one flattening x = e_1 v*, the inner products <Sx, x> and
    <x, x> are exactly proportional with ratio the eigenvalue at v.
    """
    n = family.algebra_dim
    flat = frame_operator(family).flat
    _, vecs = np.linalg.eigh(hermitian_part(flat))
    basis = np.zeros(n, dtype=np.complex128)
    basis[0] = 1.0
    low = np.outer(basis, vecs[:, 0].conj())
    high = np.outer(basis, vecs[:, -1].conj())
    return ModuleVector(low), ModuleVector(high)
