"""Raw-numpy floors: the traced layers' math on bare arrays.

Each floor is timed at exactly the argument shapes the traced run saw,
weighted by how often each shape occurred, so the ratio to the floor is
taken at the workload's own sizes.
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

_BATCH_SECONDS = 0.001
_REPEATS = 3


def _per_call_seconds(fn) -> float:
    """Best-of-repeats time per call, with batches long enough to time."""
    number = 1
    while True:
        started = time.perf_counter()
        for _ in range(number):
            fn()
        if time.perf_counter() - started >= _BATCH_SECONDS:
            break
        number *= 2
    best = float("inf")
    for _ in range(_REPEATS):
        started = time.perf_counter()
        for _ in range(number):
            fn()
        best = min(best, time.perf_counter() - started)
    return best / number


def _complex(rng, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _weighted(shapes: Counter, timer) -> float:
    total = sum(shapes.values())
    if not total:
        return float("nan")
    return sum(count * timer(shape) for shape, count in shapes.items()) / total


def optimal_bounds_floor(shapes: Counter) -> float:
    """Seconds per call of: stack the member flats A, then eigvalsh(A A^H).

    ``shapes`` counts (rows, total member columns, member count).
    """
    rng = np.random.default_rng(0)

    def timer(shape):
        rows, cols, members = shape
        widths = [cols // members + (i < cols % members) for i in range(members)]
        flats = [_complex(rng, rows, w) for w in widths]

        def floor():
            stacked = np.hstack(flats)
            return np.linalg.eigvalsh(stacked @ stacked.conj().T)

        return _per_call_seconds(floor)

    return _weighted(shapes, timer)


def compose_floor(shapes: Counter) -> float:
    """Seconds per call of a bare ``a @ b``; ``shapes`` counts (rows, inner, cols)."""
    rng = np.random.default_rng(1)

    def timer(shape):
        rows, inner, cols = shape
        a, b = _complex(rng, rows, inner), _complex(rng, inner, cols)
        return _per_call_seconds(lambda: a @ b)

    return _weighted(shapes, timer)
