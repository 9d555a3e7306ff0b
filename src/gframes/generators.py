"""Seeded generators for structured family instances.

Every generator is a pure function of its seed (Philox streams), and
every postcondition is re-verified immediately after generation;
violations raise instead of returning a bad instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rand import complex_gaussian, haar_unitary, make_rng, unitaries_from_normals
from .algebra import AlgebraElement, hermitian_part, spectral_norm
from .errors import BadRange, DegenerateSpec
from .frames import GFrameFamily, cross_operator, optimal_bounds
from .hilbert import AdjointableOp, isometry_defect
from .sums import ScalarWeights

_REDRAWS = 32
# Raw draws with a flattened frame operator more ill-conditioned than
# this are redrawn before normalization.
_MIN_CONDITION = 1e-6


@dataclass(frozen=True)
class FamilyTarget:
    """The optimal bounds the generated family should have: neither for
    a raw draw, and equal ones for a tight family, Parseval being tight
    with constant one."""

    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        if self.lower is None and self.upper is None:
            return
        if None in (self.lower, self.upper) or not 0.0 < self.lower <= self.upper < math.inf:
            raise BadRange("a target needs 0 < lower <= upper < inf, or neither bound")

    @classmethod
    def random(cls) -> "FamilyTarget":
        return cls()

    @classmethod
    def parseval(cls) -> "FamilyTarget":
        return cls(1.0, 1.0)

    @classmethod
    def tight(cls, nu: float) -> "FamilyTarget":
        return cls(nu, nu)

    @classmethod
    def bounds(cls, lower: float, upper: float) -> "FamilyTarget":
        return cls(lower, upper)


@dataclass(frozen=True)
class GenSpec:
    """Deterministic recipe for one family."""

    seed: int
    algebra_dim: int
    module_len: int
    member_dims: tuple[int, ...]
    target: FamilyTarget = field(default_factory=FamilyTarget.random)

    def __post_init__(self):
        object.__setattr__(self, "member_dims", tuple(self.member_dims))
        if self.algebra_dim < 1 or self.module_len < 1:
            raise BadRange("algebra_dim and module_len must be at least 1")
        if not self.member_dims or any(dz < 1 for dz in self.member_dims):
            raise BadRange("member_dims must be nonempty positive integers")


def _condition_to_target(
    flat: np.ndarray, target: FamilyTarget, rng: np.random.Generator
) -> np.ndarray | None:
    """Post-compose a raw analysis flattening so its frame operator hits the target.

    Returns None when the raw draw is too ill-conditioned to normalize
    accurately (the caller redraws).
    """
    if target.lower is None:
        return flat
    eigs, vecs = np.linalg.eigh(hermitian_part(flat @ flat.conj().T))
    if eigs[0] <= _MIN_CONDITION * max(eigs[-1], 1.0):
        return None
    # The inverse square root of the frame operator.
    whitener = (vecs / np.sqrt(eigs)) @ vecs.conj().T
    flat = whitener @ flat
    if target.lower == target.upper:
        return math.sqrt(target.lower) * flat
    size = flat.shape[0]
    if size == 1:
        raise DegenerateSpec("a one-dimensional flattening admits only equal bounds")
    interior = rng.uniform(target.lower, target.upper, size - 2)
    spectrum = np.concatenate([[target.lower], interior, [target.upper]])
    basis = haar_unitary(rng, size)
    shaper = (basis * np.sqrt(spectrum)) @ basis.conj().T
    return shaper @ flat


def _verify_target(family: GFrameFamily, target: FamilyTarget) -> bool:
    if target.lower is None:
        return True
    lower, upper = target.lower, target.upper
    slack = (1e-9 if lower == upper else 1e-8) * max(1.0, upper)
    bounds = optimal_bounds(family)
    return abs(bounds.lower - lower) <= slack and abs(bounds.upper - upper) <= slack


def _conditioned(
    flat: np.ndarray, spec: GenSpec, rng: np.random.Generator
) -> GFrameFamily | None:
    """The draw conditioned to the spec's target as a family, or None
    when it is too ill-conditioned or misses the target: redraw then."""
    conditioned = _condition_to_target(flat, spec.target, rng)
    if conditioned is None:
        return None
    family = GFrameFamily(AdjointableOp(conditioned, spec.algebra_dim), spec.member_dims)
    return family if _verify_target(family, spec.target) else None


def gen_family(spec: GenSpec) -> GFrameFamily:
    """Generate one family, deterministically in the seed.

    A target with bounds post-composes a raw draw with the inverse
    square root of its frame operator.  Equal bounds scale that by the
    square root of their constant (one for Parseval); spread bounds
    shape its spectrum in a Haar basis to hit both extremes exactly.
    """
    n, d = spec.algebra_dim, spec.module_len
    if spec.target.lower is not None and sum(spec.member_dims) < d:
        raise DegenerateSpec(f"member dims {spec.member_dims} cannot span a length-{d} module")
    rng = make_rng(spec.seed)
    for _ in range(_REDRAWS):
        flat = complex_gaussian(rng, n * d, *(n * dz for dz in spec.member_dims))
        family = _conditioned(flat, spec, rng)
        if family is not None:
            return family
    raise RuntimeError(f"generator failed to hit target after {_REDRAWS} draws")


def gen_orthogonal_pair(spec: GenSpec) -> tuple[GFrameFamily, GFrameFamily]:
    """Two families with exactly vanishing mixed operator.

    Per member, the first family occupies the leading half of the
    flattened target columns and the second the trailing half, so every
    per-member composition is exactly zero.  Both families are then
    conditioned to the target independently (column supports survive the
    conditioning, which multiplies from the source side).
    """
    n, d = spec.algebra_dim, spec.module_len
    if any(dz < 2 for dz in spec.member_dims):
        raise DegenerateSpec("orthogonal pairs need every member dim at least 2")
    widths = [w for dz in spec.member_dims for w in ((n * dz) // 2, (n * dz + 1) // 2)]
    if spec.target.lower is not None and min(sum(widths[::2]), sum(widths[1::2])) < n * d:
        raise DegenerateSpec("column split cannot span the module for both families")
    on_left = np.repeat(np.arange(len(widths)) % 2 == 0, widths)
    rng = make_rng(spec.seed)
    for _ in range(_REDRAWS):
        drawn = complex_gaussian(rng, n * d, *widths)
        # Both halves are conditioned before a redraw: the right half's
        # conditioning draws even when the left half is rejected.
        first = _conditioned(np.where(on_left, drawn, 0), spec, rng)
        second = _conditioned(np.where(on_left, 0, drawn), spec, rng)
        if first is None or second is None:
            continue
        cross = cross_operator(first, second).flat
        if cross.any() and spectral_norm(cross) > 1e-12:
            raise RuntimeError("orthogonal construction leaked a cross term")
        return first, second
    raise RuntimeError(f"generator failed to hit target after {_REDRAWS} draws")


def gen_isometry(seed: int, n: int, d: int) -> AdjointableOp:
    """Haar-random unitary operator on the length-d module."""
    rng = make_rng(seed)
    op = AdjointableOp(haar_unitary(rng, n * d), n)
    gram_dev = isometry_defect(op)
    if gram_dev > 1e-10:
        raise RuntimeError(f"unitary draw failed the isometry check: {gram_dev:.3e}")
    return op


def weight_matrices(
    seed: int, n: int, count: int, band_lower: float, band_upper: float
) -> np.ndarray:
    """``count`` weight matrices drawn inside the band: shape (count, n, n).

    Each weight is Hermitian positive, built as U diag(s) U* with
    eigenvalues drawn from the middle ninety percent of the band.  Each
    draw takes its eigenvalues and then its Ginibre matrix from the
    stream, and all the bases come from one batched QR, so the first k
    of ``count`` draws equal the k draws of the same seed.
    """
    if not (0.0 < band_lower < band_upper):
        raise BadRange("need 0 < band_lower < band_upper")
    if count < 1:
        raise BadRange("count must be at least 1")
    rng = make_rng(seed)
    pad = 0.05 * (band_upper - band_lower)

    squared = np.empty((count, n))
    parts = np.empty((count, 2, n, n))
    for i in range(count):
        squared[i] = rng.uniform(band_lower + pad, band_upper - pad, n)
        rng.standard_normal(out=parts[i])
    bases = unitaries_from_normals(parts)
    return (bases * np.sqrt(squared)[:, None, :]) @ bases.conj().swapaxes(-1, -2)


def gen_weights(
    seed: int, n: int, count: int, band_lower: float, band_upper: float
) -> ScalarWeights:
    """Weight sequences with squared spectra strictly inside the band:
    the first ``count`` of ``weight_matrices`` are the thetas, the next
    ``count`` the deltas."""
    mats = weight_matrices(seed, n, 2 * count, band_lower, band_upper)
    weights = tuple(AlgebraElement(mat) for mat in mats)
    return ScalarWeights(weights[:count], weights[count:], band_lower, band_upper)
