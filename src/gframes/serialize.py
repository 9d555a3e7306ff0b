"""JSON forms of the core values.

Complex scalars are [re, im] pairs; matrices are nested lists of those;
operators carry their block grid; families list their members.  These
shapes appear verbatim inside scenario files and reports.
"""

from __future__ import annotations

import math
from dataclasses import fields, is_dataclass
from functools import cache

import numpy as np

from .algebra import AlgebraElement
from .errors import ValidationError
from .frames import GFrameFamily
from .hilbert import AdjointableOp
from .sums import ScalarWeights, TheoremReport


def array_from_json(data, key: str, rank: int) -> np.ndarray:
    """Finite complex array of the given rank from nested [re, im] pairs,
    converted in one call; errors name ``key``."""
    try:
        pairs = np.array(data)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed complex array in {key!r}: {exc}") from exc
    # Entries must be JSON numbers: a string such as "1.5" makes a text
    # array and a null, an object or a huge integer an object array.
    if pairs.dtype.kind not in "biuf" or pairs.ndim != rank + 1 or pairs.shape[-1] != 2:
        raise ValidationError(
            f"{key!r} must be a rank-{rank} array of [re, im] number pairs"
        )
    if not np.isfinite(pairs).all():
        raise ValidationError(f"non-finite complex matrix entry in {key!r}")
    return pairs.astype(np.float64).view(np.complex128)[..., 0]


def element_to_json(a: AlgebraElement) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a.entries]


def _grid_from_json(rows, key: str) -> tuple[np.ndarray, int]:
    """Flattening and block size of a grid of equal-sized square blocks."""
    grid = array_from_json(rows, key, 4)
    height, width, n, m = grid.shape
    if n != m:
        raise ValidationError(f"{key!r} must hold square blocks, got {n}x{m} blocks")
    return grid.transpose(0, 2, 1, 3).reshape(height * n, width * n), n


def op_to_json(op: AdjointableOp) -> dict:
    return {
        "algebra_dim": op.algebra_dim,
        "source_len": op.source_len,
        "target_len": op.target_len,
        "blocks": [[element_to_json(b) for b in row] for row in op.blocks],
    }


def op_from_json(data) -> AdjointableOp:
    if not isinstance(data, dict) or "blocks" not in data:
        raise ValidationError("operator needs a 'blocks' grid")
    op = AdjointableOp(*_grid_from_json(data["blocks"], "blocks"))
    for key in ("algebra_dim", "source_len", "target_len"):
        if key in data and data[key] != getattr(op, key):
            raise ValidationError(f"operator {key!r} disagrees with its blocks")
    return op


def family_to_json(family: GFrameFamily) -> dict:
    return {
        "algebra_dim": family.algebra_dim,
        "source_len": family.source_len,
        "members": [op_to_json(m) for m in family.members],
    }


def family_from_json(data) -> GFrameFamily:
    if not isinstance(data, dict) or not isinstance(data.get("members"), list):
        raise ValidationError("family needs a 'members' list")
    return GFrameFamily.of(op_from_json(m) for m in data["members"])


def weights_to_json(w: ScalarWeights) -> dict:
    return {
        "thetas": [element_to_json(t) for t in w.thetas],
        "deltas": [element_to_json(t) for t in w.deltas],
        "band": [w.band_lower, w.band_upper],
    }


def weights_from_json(data) -> ScalarWeights:
    try:
        band = data["band"]
        return ScalarWeights(
            tuple(map(AlgebraElement, array_from_json(data["thetas"], "thetas", 3))),
            tuple(map(AlgebraElement, array_from_json(data["deltas"], "deltas", 3))),
            float(band[0]),
            float(band[1]),
        )
    except (KeyError, TypeError, IndexError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed weights: {exc}") from exc


# What a report writes between "theorem"/"verdict" and the sorted
# "details"; a report without a result kind is a perturbation report.
_SUM_KEYS = (
    "hypothesis_checks", "predicted_lower", "predicted_upper", "achieved", "result_kind"
)
_PERTURBATION_KEYS = (
    "alphas", "measured_lhs", "allowed_rhs", "claimed_bounds", "achieved",
    "bound_discrepancy_note",
)


@cache
def _field_names(kind: type) -> tuple[str, ...] | None:
    """Field names of a dataclass type, in field order; None for other types."""
    return tuple(f.name for f in fields(kind)) if is_dataclass(kind) else None


def _to_json(value):
    """Strict JSON form of a report value: dataclasses as dicts in field
    order, tuples as lists, numpy scalars as Python ones and non-finite
    floats as null."""
    names = _field_names(type(value))
    if names is not None:
        return {name: _to_json(getattr(value, name)) for name in names}
    if isinstance(value, (list, tuple)):
        return [_to_json(item) for item in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def report_to_json(report: TheoremReport) -> dict:
    """A report as a plain JSON-ready dict."""
    data = {"theorem": report.theorem_id, "verdict": report.verdict.value}
    keys = _PERTURBATION_KEYS if report.result_kind is None else _SUM_KEYS
    for key in keys:
        data[key] = _to_json(getattr(report, key))
    data["details"] = {k: _to_json(report.details[k]) for k in sorted(report.details)}
    return data
