"""Host-speed calibration: a fixed numpy kernel that does not touch gframes.

The benchmark runs on a shared host whose speed changes by 20-60%, in
steps that last from a fraction of a second to minutes, and every
repetition time moves with it.  One calibration pass (about a
millisecond) is a fixed mix of the operations the workloads spend their
time on: small complex arrays built from Python lists, 4x4 products,
and eigvalsh/svd at size 12.  So its duration follows the same speed.
Reported times are scaled to a host on which one pass takes
``REFERENCE_S``: ``reported = measured * REFERENCE_S / local``, where
``local`` is the median of the passes timed next to the measurement.

The kernel imports only numpy and is the same code at every commit, so
a change to gframes moves the measurement and never the calibration.
"""

from __future__ import annotations

import gc
import statistics
import time

import numpy as np

# Duration of one pass on the host the benchmark was defined on (a
# 2-vCPU Intel Xeon VM, numpy with OpenBLAS pinned to one thread) in
# its fast state.  Only the scale of the reported times depends on it.
REFERENCE_S = 0.001

_RNG = np.random.default_rng(20231222)
_SMALL = [_RNG.standard_normal((4, 4)) + 1j * _RNG.standard_normal((4, 4)) for _ in range(6)]
_LARGE = [_RNG.standard_normal((12, 12)) + 1j * _RNG.standard_normal((12, 12)) for _ in range(3)]


def _kernel() -> float:
    acc = 0.0
    for _ in range(8):
        for m in _SMALL:
            a = np.asarray(m.tolist(), dtype=complex).reshape(4, 4)
            b = a @ a.conj().T + np.eye(4)
            acc += float(np.abs(b).sum()) + float(np.trace(b).real)
    for m in _LARGE:
        h = m @ m.conj().T
        acc += float(np.linalg.eigvalsh(h)[-1])
        acc += float(np.linalg.svd(m, compute_uv=False)[0])
    return acc


def sample() -> float:
    """Seconds one calibration pass takes, with the collector paused.

    Pausing the collector keeps the size of the caller's heap out of
    the pass.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def local_passes(samples: list, index: int, half_width: int) -> float:
    """Median pass time over the samples within ``half_width`` of ``index``."""
    lo = max(0, index - half_width)
    return statistics.median(samples[lo:index + half_width + 1])
