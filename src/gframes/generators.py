"""Seeded generators for structured family instances.

Every generator is a pure function of its seed (Philox streams), and
every postcondition is re-verified immediately after generation;
violations raise instead of returning a bad instance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._rand import complex_gaussian, haar_unitary, make_rng
from .algebra import AlgebraElement, hermitian_part, spectral_norm
from .errors import BadRange, DegenerateSpec
from .frames import GFrameFamily, cross_operator, optimal_bounds
from .hilbert import AdjointableOp
from .sums import ScalarWeights

_REDRAWS = 32
# Raw draws with a flattened frame operator more ill-conditioned than
# this are redrawn before normalization.
_MIN_CONDITION = 1e-6


@dataclass(frozen=True)
class FamilyTarget:
    """What the generated family's optimal bounds should be."""

    kind: str
    nu: float | None = None
    lower: float | None = None
    upper: float | None = None

    def __post_init__(self):
        if self.kind not in {"random", "parseval", "tight", "bounds"}:
            raise BadRange(f"unknown target kind {self.kind!r}")
        if self.kind == "tight" and (self.nu is None or not 0.0 < self.nu < math.inf):
            raise BadRange("tight target needs a finite nu > 0")
        if self.kind == "bounds":
            if (
                self.lower is None
                or self.upper is None
                or not (0.0 < self.lower <= self.upper < math.inf)
            ):
                raise BadRange("bounds target needs 0 < lower <= upper < inf")

    @classmethod
    def random(cls) -> "FamilyTarget":
        return cls("random")

    @classmethod
    def parseval(cls) -> "FamilyTarget":
        return cls("parseval")

    @classmethod
    def tight(cls, nu: float) -> "FamilyTarget":
        return cls("tight", nu=nu)

    @classmethod
    def bounds(cls, lower: float, upper: float) -> "FamilyTarget":
        return cls("bounds", lower=lower, upper=upper)


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


def _needs_span(target: FamilyTarget) -> bool:
    return target.kind != "random"


def _inv_sqrt(total: np.ndarray) -> np.ndarray:
    eigs, vecs = np.linalg.eigh(hermitian_part(total))
    return (vecs / np.sqrt(eigs)) @ vecs.conj().T


def _condition_to_target(
    flats: list[np.ndarray],
    n: int,
    d: int,
    target: FamilyTarget,
    rng: np.random.Generator,
) -> list[np.ndarray] | None:
    """Post-compose raw flats so the frame operator hits the target.

    Returns None when the raw draw is too ill-conditioned to normalize
    accurately (the caller redraws).
    """
    if target.kind == "random":
        return flats
    total = sum(p @ p.conj().T for p in flats)
    eigs = np.linalg.eigvalsh(hermitian_part(total))
    if eigs[0] <= _MIN_CONDITION * max(eigs[-1], 1.0):
        return None
    whitener = _inv_sqrt(total)
    flats = [whitener @ p for p in flats]
    if target.kind == "parseval":
        return flats
    if target.kind == "tight":
        root = math.sqrt(target.nu)
        return [root * p for p in flats]
    size = n * d
    if size == 1:
        if target.lower != target.upper:
            raise DegenerateSpec(
                "a one-dimensional flattening admits only equal bounds"
            )
        spectrum = np.array([target.lower])
    elif size == 2:
        spectrum = np.array([target.lower, target.upper])
    else:
        interior = rng.uniform(target.lower, target.upper, size - 2)
        spectrum = np.concatenate([[target.lower], interior, [target.upper]])
    basis = haar_unitary(rng, size)
    shaper = (basis * np.sqrt(spectrum)) @ basis.conj().T
    return [shaper @ p for p in flats]


def _verify_target(family: GFrameFamily, target: FamilyTarget) -> bool:
    if target.kind == "random":
        return True
    if target.kind == "bounds":
        lower, upper, rel = target.lower, target.upper, 1e-8
    else:
        # Parseval is tight with constant one.
        lower = upper = 1.0 if target.kind == "parseval" else target.nu
        rel = 1e-9
    bounds = optimal_bounds(family)
    slack = rel * max(1.0, upper)
    return abs(bounds.lower - lower) <= slack and abs(bounds.upper - upper) <= slack


def gen_family(spec: GenSpec) -> GFrameFamily:
    """Generate one family, deterministically in the seed.

    Parseval targets post-compose a raw draw with the inverse square
    root of its frame operator; tight targets scale that; bounds targets
    further shape the spectrum to hit the requested extremes exactly.
    """
    n, d = spec.algebra_dim, spec.module_len
    if _needs_span(spec.target) and sum(spec.member_dims) < d:
        raise DegenerateSpec(
            f"member dims {spec.member_dims} cannot span a length-{d} module"
        )
    rng = make_rng(spec.seed)
    for _ in range(_REDRAWS):
        flats = [
            complex_gaussian(rng, n * d, n * dz) for dz in spec.member_dims
        ]
        conditioned = _condition_to_target(flats, n, d, spec.target, rng)
        if conditioned is None:
            continue
        family = GFrameFamily(tuple(AdjointableOp(p, n) for p in conditioned))
        if _verify_target(family, spec.target):
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
    splits = [(n * dz) // 2 for dz in spec.member_dims]
    if _needs_span(spec.target):
        left_cols = sum(splits)
        right_cols = sum(n * dz - k for dz, k in zip(spec.member_dims, splits))
        if left_cols < n * d or right_cols < n * d:
            raise DegenerateSpec(
                "column split cannot span the module for both families"
            )
    rng = make_rng(spec.seed)
    for _ in range(_REDRAWS):
        left_flats = []
        right_flats = []
        for dz, k in zip(spec.member_dims, splits):
            left = np.zeros((n * d, n * dz), dtype=np.complex128)
            right = np.zeros((n * d, n * dz), dtype=np.complex128)
            left[:, :k] = complex_gaussian(rng, n * d, k)
            right[:, k:] = complex_gaussian(rng, n * d, n * dz - k)
            left_flats.append(left)
            right_flats.append(right)
        left_cond = _condition_to_target(left_flats, n, d, spec.target, rng)
        right_cond = _condition_to_target(right_flats, n, d, spec.target, rng)
        if left_cond is None or right_cond is None:
            continue
        first = GFrameFamily(tuple(AdjointableOp(p, n) for p in left_cond))
        second = GFrameFamily(tuple(AdjointableOp(p, n) for p in right_cond))
        if not (_verify_target(first, spec.target) and _verify_target(second, spec.target)):
            continue
        cross_norm = spectral_norm(cross_operator(first, second).flat)
        if cross_norm > 1e-12:
            raise RuntimeError("orthogonal construction leaked a cross term")
        return first, second
    raise RuntimeError(f"generator failed to hit target after {_REDRAWS} draws")


def gen_isometry(seed: int, n: int, d: int) -> AdjointableOp:
    """Haar-random unitary operator on the length-d module."""
    rng = make_rng(seed)
    flat = haar_unitary(rng, n * d)
    gram_dev = spectral_norm(flat @ flat.conj().T - np.eye(n * d))
    if gram_dev > 1e-10:
        raise RuntimeError(f"unitary draw failed the isometry check: {gram_dev:.3e}")
    return AdjointableOp(flat, n)


def gen_weights(
    seed: int, n: int, count: int, band_lower: float, band_upper: float
) -> ScalarWeights:
    """Weight sequences with squared spectra strictly inside the band.

    Each weight is Hermitian positive, built as U diag(s) U* with
    eigenvalues drawn from the middle ninety percent of the band.
    """
    if not (0.0 < band_lower < band_upper):
        raise BadRange("need 0 < band_lower < band_upper")
    if count < 1:
        raise BadRange("count must be at least 1")
    rng = make_rng(seed)
    pad = 0.05 * (band_upper - band_lower)

    def draw() -> AlgebraElement:
        squared = rng.uniform(band_lower + pad, band_upper - pad, n)
        basis = haar_unitary(rng, n)
        mat = (basis * np.sqrt(squared)) @ basis.conj().T
        return AlgebraElement(mat)

    thetas = tuple(draw() for _ in range(count))
    deltas = tuple(draw() for _ in range(count))
    return ScalarWeights(thetas, deltas, band_lower, band_upper)
