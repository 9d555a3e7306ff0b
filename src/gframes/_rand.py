"""Seeded randomness helpers.

All streams come from numpy's Philox engine, a 64-bit counter-based
generator with published test vectors.  ``make_rng`` hands it the key
words (seed modulo 2**64, 0) as they are, gathering no OS entropy as
``Philox(key=...)`` would, so identical seeds reproduce identical draws.
"""

from __future__ import annotations

import math
from functools import cache
from itertools import accumulate

import numpy as np

_MASK64 = (1 << 64) - 1


class PhiloxKey(tuple):
    """Philox's two key words, handed over as they are."""
    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise ValueError("a Philox key is two 64-bit words")
        return np.array(self, dtype=np.uint64)


@cache
def _philox_key() -> type:
    """``PhiloxKey``, an ``ISeedSequence`` from first use (numpy.random takes 12 ms to import)."""
    from numpy.random.bit_generator import ISeedSequence
    return ISeedSequence.register(PhiloxKey)


def make_rng(seed: int) -> np.random.Generator:
    """Philox generator keyed by a 64-bit seed."""
    return np.random.Generator(np.random.Philox(_philox_key()((int(seed) & _MASK64, 0))))


def sub_seed(rng: np.random.Generator) -> int:
    """Draw a fresh 63-bit seed for a child stream."""
    return int(rng.integers(0, 1 << 63))


def complex_gaussian(rng: np.random.Generator, rows: int, *widths: int) -> np.ndarray:
    """Standard complex Gaussian matrix (unit total variance per entry),
    in column blocks of the given widths side by side.  One draw fills
    them in turn, real then imaginary part, as one draw per block would."""
    parts = rng.standard_normal(2 * rows * sum(widths))
    out = np.empty((rows, sum(widths)), dtype=np.complex128)
    for at, width in zip(accumulate(widths, initial=0), widths):
        block = parts[2 * rows * at : 2 * rows * (at + width)].reshape(2, rows, width)
        out.real[:, at : at + width], out.imag[:, at : at + width] = block
    out /= math.sqrt(2.0)
    return out


def unitaries_from_normals(parts: np.ndarray) -> np.ndarray:
    """Haar-distributed unitaries from standard normals of shape
    (count, 2, m, m), the real and imaginary parts of complex Ginibre
    matrices: one batched QR, with each R's diagonal phase-fixed so the
    distribution does not depend on the QR sign convention."""
    z = np.empty(parts[:, 0].shape, dtype=np.complex128)
    z.real, z.imag = parts[:, 0], parts[:, 1]
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def haar_unitaries(rng: np.random.Generator, count: int, m: int) -> np.ndarray:
    """``count`` Haar unitaries of size m, shape (count, m, m).

    The stream is consumed as by ``count`` successive ``haar_unitary``
    draws, so each result equals the sequential one to the bit.
    """
    return unitaries_from_normals(rng.standard_normal((count, 2, m, m)))


def haar_unitary(rng: np.random.Generator, m: int) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix."""
    return haar_unitaries(rng, 1, m)[0]
