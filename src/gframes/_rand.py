"""Seeded randomness helpers.

All streams come from numpy's Philox engine, a 64-bit counter-based
generator with published test vectors, keyed directly by the caller's
seed.  Identical seeds therefore reproduce bit-identical draws.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(key=int(seed) & _MASK64))


def sub_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed for a child stream."""
    return int(rng.integers(0, 1 << 63))


def _complex_normal(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """(re + i im) / sqrt(2), assembled in one complex array."""
    out = np.empty(re.shape, dtype=np.complex128)
    out.real = re
    out.imag = im
    out /= math.sqrt(2.0)
    return out


def complex_gaussian(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Standard complex Gaussian matrix (unit total variance per entry)."""
    return _complex_normal(
        rng.standard_normal((rows, cols)), rng.standard_normal((rows, cols))
    )


def unitaries_from_ginibre(z: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from a stack of complex Ginibre
    matrices: one batched QR, with each R's diagonal phase-fixed so the
    distribution does not depend on the QR sign convention."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitaries(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    """``count`` Haar unitaries of size m, shape (count, m, m).

    The stream is consumed as by ``count`` successive ``haar_unitary``
    draws, so each result equals the sequential one to the bit.
    """
    parts = rng.standard_normal((count, 2, m, m))
    return unitaries_from_ginibre(_complex_normal(parts[:, 0], parts[:, 1]))


def haar_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return haar_unitaries(rng, 1, m)[0]
