"""Scenario documents for the benchmark workloads.

Every workload is the 14 registry theorems, one scenario each, written
as ordinary ``gframes run`` scenario files.  The documents are a pure
function of the workload name and seed; the program under test only
ever sees the files.

- ``desk_mix``: no size keys, so the registry draws its own desk sizes
  (n, d in 1..3, 2..5 members) afresh for every repetition seed.
- ``wide_mix``: explicit 8x8 algebra, module length 4 (a 32x32
  flattening) and eight members, so the numpy kernels dominate.
- ``inline_replay``: one generated instance per theorem, dumped inline
  with ``serialize.*_to_json``, so every repetition re-parses and
  re-checks the same instance and no generator runs.
"""

from __future__ import annotations

import json
import os
import zlib

import numpy as np

WORKLOADS = ("desk_mix", "wide_mix", "inline_replay")

# Repetitions each document declares; a benchmark run takes a
# time-limited prefix of them.
MAX_REPETITIONS = 1_000_000

FINAL_ALPHA = {"alpha": 0.5}
WIDE_SIZES = {
    "algebra_dim": 8,
    "module_len": 4,
    "member_dims": [2, 3, 4, 5, 2, 3, 4, 5],
}

# inline_replay instances are generated at n=4, d=3 with five members;
# the tight theorems need even member dims.  Sizes are fixed, not drawn,
# because every repetition replays the same instance: its size would
# otherwise set the cost of the whole run.
INLINE_N, INLINE_D = 4, 3
INLINE_DIMS = [1, 2, 3, 4, 5]
TIGHT_DIMS = [2, 4, 2, 4, 2]
TIGHT_THEOREMS = ("TIGHT_SUM", "TIGHT_MN")
# Generation seeds are 1 mod 70 (odd, and no multiple of 5 or 7), so the
# registry's seed-residue branches (M = I, N = 0, pair mode, lambda kind)
# are the same for every workload seed and only the drawn values differ.
SEED_MODULUS = 70

# For each theorem: the name the registry module binds its checker to,
# and the inline instance key of each positional checker argument before
# the tolerance.  The registry prefers every one of these keys over
# generation, so an instance holding them all bypasses the generators.
INLINE_KEYS = {
    "CLASSIFY": ("classify", ("family",)),
    "PERTURB_LAMBDA": ("perturb_lambda", ("family", "lambda")),
    "T3_EQUIV": ("op_weighted_sum", ("family", "second_family", "m", "n")),
    "T3_COROLLARY": ("t3_corollary_check", ("family", "second_family")),
    "T7_SCALAR": ("scalar_weighted_sum", ("family", "second_family", "weights")),
    "T11_POSITIVE": ("t11_check", ("family", "second_family", "weights")),
    "TIGHT_SUM": ("tight_sum_check", ("family", "second_family")),
    "ISOMETRY_SUM": ("isometry_sum_check", ("family", "second_family", "lambda")),
    "LAMBDA_LOWER": (
        "lambda_lower_check",
        ("family", "second_family", "m", "n", "lambda_bound"),
    ),
    "TIGHT_MN": ("tight_mn_check", ("family", "second_family", "m", "n")),
    "PROP_MIXED": (
        "prop_mixed_check",
        ("family", "second_family", "weights", "alpha1", "alpha2"),
    ),
    "THM_DIFFERENCE": (
        "difference_check",
        ("family", "second_family", "weights", "alpha1", "alpha2"),
    ),
    "T12_OPERATOR": ("t12_check", ("family", "delta_ops")),
    "FINAL_COROLLARY": ("final_corollary_check", ("family", "second_family", "alpha")),
}
THEOREMS = tuple(INLINE_KEYS)


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), zlib.crc32(workload.encode())])


def _scenario(workload: str, theorem: str, seed: int, instance: dict) -> dict:
    return {
        "schema": 1,
        "name": f"{workload}_{theorem.lower()}",
        "theorem": theorem,
        "seed": seed,
        "seed_stride": 1,
        "repetitions": MAX_REPETITIONS,
        "instance": instance,
    }


def _to_json(value):
    """Inline JSON form of one captured checker argument."""
    from gframes import serialize
    from gframes.frames import GFrameFamily
    from gframes.hilbert import AdjointableOp
    from gframes.sums import ScalarWeights

    if isinstance(value, GFrameFamily):
        return serialize.family_to_json(value)
    if isinstance(value, AdjointableOp):
        return serialize.op_to_json(value)
    if isinstance(value, ScalarWeights):
        return serialize.weights_to_json(value)
    if isinstance(value, (list, tuple)):
        return [_to_json(v) for v in value]
    return float(value)


def capture_instance(theorem: str, instance: dict, seed: int) -> dict:
    """Run one registry repetition and return its checker inputs as inline JSON.

    The registry's checker binding is swapped for a recorder for the
    duration of the call, so the instance is exactly the one the
    registry's own hypothesis-satisfying construction produced.
    """
    from gframes import registry

    attr, keys = INLINE_KEYS[theorem]
    original = getattr(registry, attr)
    captured = []

    def recorder(*args, **kwargs):
        captured.append(args[: len(keys)])
        return original(*args, **kwargs)

    setattr(registry, attr, recorder)
    try:
        registry.build_and_run(theorem, instance, seed)
    finally:
        setattr(registry, attr, original)
    (args,) = captured
    inline = {key: _to_json(value) for key, value in zip(keys, args)}
    if theorem == "PERTURB_LAMBDA":
        # The zero branch draws nothing before the inline lambda replaces it.
        inline["lambda_kind"] = "zero"
    return inline


def inline_source(theorem: str, rng: np.random.Generator) -> tuple[dict, int]:
    """Generator config and seed of the instance inline_replay dumps for a theorem."""
    dims = TIGHT_DIMS if theorem in TIGHT_THEOREMS else INLINE_DIMS
    sizes = {"algebra_dim": INLINE_N, "module_len": INLINE_D, "member_dims": list(dims)}
    if theorem == "FINAL_COROLLARY":
        sizes.update(FINAL_ALPHA)
    return sizes, SEED_MODULUS * int(rng.integers(0, 1 << 55)) + 1


def documents(workload: str, seed: int) -> list[dict]:
    """The workload's 14 scenario documents, in theorem order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = workload_rng(workload, seed)
    docs = []
    for theorem in THEOREMS:
        if workload == "inline_replay":
            instance = capture_instance(theorem, *inline_source(theorem, rng))
        else:
            instance = dict(WIDE_SIZES) if workload == "wide_mix" else {}
            if theorem == "FINAL_COROLLARY":
                instance.update(FINAL_ALPHA)
        rep_seed = int(rng.integers(0, 1 << 62))
        docs.append(_scenario(workload, theorem, rep_seed, instance))
    return docs


def write_documents(workload: str, seed: int, directory: str) -> list[str]:
    """Write one scenario file per theorem and return their paths."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for index, doc in enumerate(documents(workload, seed)):
        path = os.path.join(directory, f"{index:02d}_{doc['theorem'].lower()}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        paths.append(path)
    return paths
