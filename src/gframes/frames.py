"""g-frame families and their operators.

A family is a finite list of adjointable operators from one common
module into per-member target modules.  This module materializes the
analysis, synthesis and frame operators, computes optimal bounds from
the spectrum of the flattened frame operator, classifies families, and
verifies the two-sided frame inequality both spectrally and on sampled
vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._rand import make_rng, sample_flat_vectors
from .algebra import DEFAULT_TOL, Tolerance, hermitian_part
from .errors import DimensionMismatch, InternalConsistencyError
from .hilbert import AdjointableOp, ModuleVector, adjoint_op, apply

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

    @classmethod
    def from_spectrum(cls, low: float, high: float) -> "FrameBounds":
        lower = float(max(low, 0.0))
        upper = float(max(high, lower))
        tight = (upper - lower) <= TIGHTNESS_REL * upper
        parseval = tight and abs(lower - 1.0) <= TIGHTNESS_REL * max(upper, 1.0)
        return cls(lower=lower, upper=upper, tight=tight, parseval=parseval)


@dataclass(frozen=True)
class Classification:
    kind: FrameKind
    bounds: FrameBounds


@dataclass(frozen=True, eq=False)
class GFrameFamily:
    """Finite indexed family of adjointable operators out of one module."""

    members: tuple[AdjointableOp, ...]

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise DimensionMismatch("family needs at least one member")
        dims = {m.algebra_dim for m in members}
        lens = {m.source_len for m in members}
        if len(dims) != 1 or len(lens) != 1:
            raise DimensionMismatch("family members disagree on the source module")
        object.__setattr__(self, "members", members)

    @property
    def algebra_dim(self) -> int:
        return self.members[0].algebra_dim

    @property
    def source_len(self) -> int:
        return self.members[0].source_len

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def member_dims(self) -> tuple[int, ...]:
        return tuple(m.target_len for m in self.members)


def scale_family(family: GFrameFamily, factor: complex) -> GFrameFamily:
    """Family with every member multiplied by the scalar factor."""
    return GFrameFamily(tuple(factor * m for m in family.members))


def analysis(family: GFrameFamily, x: ModuleVector) -> list[ModuleVector]:
    """Per-member images [member_0 x, member_1 x, ...]."""
    return [apply(m, x) for m in family.members]


def synthesis(family: GFrameFamily, ys: list[ModuleVector]) -> ModuleVector:
    """Sum of adjoint images, the inverse-direction map of ``analysis``."""
    if len(ys) != family.size:
        raise DimensionMismatch(
            f"expected {family.size} coefficient vectors, got {len(ys)}"
        )
    total = None
    for member, y in zip(family.members, ys):
        if y.length != member.target_len or y.algebra_dim != member.algebra_dim:
            raise DimensionMismatch("coefficient vector does not match member target")
        term = apply(adjoint_op(member), y)
        total = term if total is None else total + term
    return total


def synthesis_op(family: GFrameFamily) -> AdjointableOp:
    """Synthesis operator materialized on the concatenated target modules."""
    flat = np.vstack([m.flat.conj().T for m in family.members])
    return AdjointableOp(flat, family.algebra_dim)


def _paired_products(lefts, rights) -> AdjointableOp:
    """Sum of adjoint(p) . q over paired members p, q of one source module."""
    n = lefts[0].algebra_dim
    size = n * lefts[0].source_len
    total = np.zeros((size, size), dtype=np.complex128)
    for p, q in zip(lefts, rights):
        total += q.flat @ p.flat.conj().T
    return AdjointableOp(total, n)


def frame_operator(family: GFrameFamily) -> AdjointableOp:
    """Frame operator: the sum of adjoint(member) . member, acting on the source."""
    return _paired_products(family.members, family.members)


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
    return _paired_products(left.members, right.members)


def optimal_bounds(family: GFrameFamily) -> FrameBounds:
    """Best constants of the frame inequality: the extreme eigenvalues
    of the flattened frame operator."""
    eigs = np.linalg.eigvalsh(hermitian_part(frame_operator(family).flat))
    return FrameBounds.from_spectrum(eigs[0], eigs[-1])


def is_frame_bounds(bounds: FrameBounds, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Scale-invariant reading of "frame operator strictly positive"."""
    return bounds.lower > tol.margin(bounds.upper)


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


def batched_gram(xs: np.ndarray) -> np.ndarray:
    """Inner products <x, x> = x.x* for a batch of flattened vectors.

    ``xs`` has shape (count, n, n*d); the result has shape (count, n, n).
    """
    return xs @ xs.conj().swapaxes(1, 2)


def batched_quadratic(flat_op: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Inner products <Tx, x> for a batch of flattened vectors: one GEMM
    for every Tx, then the batched product with the conjugate samples."""
    images = (xs.reshape(-1, xs.shape[-1]) @ flat_op).reshape(xs.shape)
    return images @ xs.conj().swapaxes(1, 2)


def batched_norm(xs: np.ndarray) -> np.ndarray:
    """Module norms ||x|| = ||<x, x>||^(1/2) for a batch of flattened
    vectors: the top eigenvalue of each n x n Gram matrix."""
    top = np.linalg.eigvalsh(batched_gram(xs))[:, -1]
    return np.sqrt(np.maximum(top, 0.0))


def verify_frame_inequality(
    family: GFrameFamily,
    lower: float,
    upper: float,
    samples: int = 500,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
) -> bool:
    """Check the two-sided frame inequality for the given constants.

    Runs a spectral check against the optimal bounds and a sampled
    positive-semidefinite check on random vectors plus the extreme
    eigenvector witnesses; the two routes must agree, otherwise an
    InternalConsistencyError is raised.
    """
    if lower > upper:
        raise ValueError("lower bound exceeds upper bound")
    bounds = optimal_bounds(family)
    scale = max(bounds.upper, abs(lower), abs(upper), 1.0)
    margin = tol.margin(scale)
    spectral_ok = (lower <= bounds.lower + margin) and (
        bounds.upper <= upper + margin
    )

    n, d = family.algebra_dim, family.source_len
    rng = make_rng(seed)
    xs = sample_flat_vectors(rng, samples, n, d)
    lo, hi = bound_witnesses(family)
    xs = np.concatenate([xs, np.stack([lo.flat, hi.flat])])
    s_flat = frame_operator(family).flat
    grams = batched_gram(xs)
    quads = batched_quadratic(s_flat, xs)
    low_resid = quads - lower * grams
    high_resid = upper * grams - quads
    low_eigs = np.linalg.eigvalsh((low_resid + low_resid.conj().swapaxes(1, 2)) / 2)
    high_eigs = np.linalg.eigvalsh((high_resid + high_resid.conj().swapaxes(1, 2)) / 2)
    gram_scales = np.linalg.norm(grams, axis=(1, 2))
    sample_margins = tol.abs + tol.rel * scale * np.maximum(gram_scales, 1.0)
    sampled_ok = bool(
        (low_eigs[:, 0] >= -sample_margins).all()
        and (high_eigs[:, 0] >= -sample_margins).all()
    )

    if sampled_ok != spectral_ok:
        raise InternalConsistencyError(
            "sampled and spectral frame-inequality checks disagree:"
            f" sampled={sampled_ok} spectral={spectral_ok}"
            f" for bounds ({lower}, {upper}) vs optimal"
            f" ({bounds.lower}, {bounds.upper})"
        )
    return spectral_ok

