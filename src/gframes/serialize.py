"""JSON forms of the core values.

Complex scalars are [re, im] pairs; matrices are nested lists of those;
operators carry their block grid; families list their members.  These
shapes appear verbatim inside scenario files and reports.  Every JSON
object the runner reads decodes through ``decode_fields``, by its table,
and every JSON text it writes is written by ``json_text``.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from json.encoder import encode_basestring_ascii as _encode_str

import numpy as np

from .algebra import AlgebraElement
from .errors import GFrameError, ValidationError
from .frames import FrameBounds, GFrameFamily
from .hilbert import AdjointableOp
from .sums import CheckItem, ScalarWeights, TheoremReport


def is_int(value) -> bool:
    """A JSON integer, which a bool is not."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_number(value) -> bool:
    """A JSON number within the float range, found by comparison: float()
    of a larger integer overflows."""
    return (is_int(value) or isinstance(value, float)) and abs(value) <= sys.float_info.max


def is_positive_number(value) -> bool:
    return is_number(value) and value > 0


def _is_list(value) -> bool:
    return isinstance(value, list)


def is_pair(value) -> bool:
    """A list [lower, upper] of positive numbers."""
    return _is_list(value) and len(value) == 2 and all(map(is_positive_number, value))


def _is_object(value) -> bool:
    return isinstance(value, dict)


# A field's kind: its description, the predicate a present value must
# meet and its decoder.  The band of weights and of ``weight_band``:
BAND = (
    "a list [lower, upper] of positive numbers with lower < upper",
    lambda v: is_pair(v) and v[0] < v[1],
    lambda v: tuple(map(float, v)),
)
# A size label beside an object's contents.
_LABEL = ("a positive integer", lambda v: is_int(v) and v > 0, int)


def decode_fields(data, kinds: dict, what: str, required=()) -> dict:
    """The decoded values of the non-null fields of the JSON object
    ``data``, once each of its keys is declared in ``kinds`` and each
    value meets its kind; a null reads as absent, and each key in
    ``required`` must be present.  Every error names the field."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object, got {reprlib.repr(data)}")
    for key in data:
        if key not in kinds:
            accepted = ", ".join(sorted(kinds))
            raise ValidationError(f"unknown {what} field {key!r}; accepted: {accepted}")
    decoded = {}
    for key, value in data.items():
        if value is None:
            continue
        description, valid, decode = kinds[key]
        try:
            if not valid(value):
                raise ValidationError(f"got {reprlib.repr(value)}")
            decoded[key] = decode(value)
        except GFrameError as exc:
            message = f"{what} field {key!r} must be {description}: {exc}"
            raise ValidationError(message) from exc
    for key in required:
        if key not in decoded:
            raise ValidationError(f"{what} field {key!r} is required")
    return decoded


def _labelled(data, kinds: dict, what: str, contents: str):
    """The decoded ``contents`` field of ``data``, once the size labels
    beside it agree with the sizes it has."""
    labels = decode_fields(data, kinds, what, (contents,))
    value = labels.pop(contents)
    sizes = {key: getattr(value, key) for key in labels}
    if labels != sizes:
        raise ValidationError(f"{what} labels {labels}, but its {contents} give {sizes}")
    return value


def _has_bool(data) -> bool:
    return isinstance(data, bool) or isinstance(data, list) and any(map(_has_bool, data))


def array_from_json(data, rank: int) -> np.ndarray:
    """Finite complex array of the given rank from nested [re, im] pairs,
    converted in one call."""
    try:
        pairs = np.array(data)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed complex array: {exc}") from exc
    # Entries must be JSON numbers: a string such as "1.5" makes a text
    # array, a null, an object or a huge integer an object array, and a
    # bool among numbers reads as 0 or 1, so bools are searched for once
    # the shape bounds the depth.
    shaped = pairs.ndim == rank + 1 and pairs.shape[-1] == 2
    if pairs.dtype.kind not in "iuf" or not shaped or _has_bool(data):
        raise ValidationError(f"need a rank-{rank} array of [re, im] number pairs")
    if not np.isfinite(pairs).all():
        raise ValidationError("non-finite complex entry")
    return pairs.astype(np.float64).view(np.complex128)[..., 0]


def element_to_json(a: AlgebraElement) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in a.entries]


def _op_from_grid(rows) -> AdjointableOp:
    """The operator of a grid of equal-sized square blocks."""
    grid = array_from_json(rows, 4)
    height, width, n, m = grid.shape
    if n != m:
        raise ValidationError(f"need square blocks, got {n}x{m} blocks")
    return AdjointableOp(grid.transpose(0, 2, 1, 3).reshape(height * n, width * n), n)


def op_to_json(op: AdjointableOp) -> dict:
    return {
        "algebra_dim": op.algebra_dim,
        "source_len": op.source_len,
        "target_len": op.target_len,
        "blocks": [[element_to_json(b) for b in row] for row in op.blocks],
    }


_OPERATOR_FIELDS = {
    "blocks": ("a grid of equal-sized square blocks", _is_list, _op_from_grid),
    **dict.fromkeys(("algebra_dim", "source_len", "target_len"), _LABEL),
}


def op_from_json(data) -> AdjointableOp:
    return _labelled(data, _OPERATOR_FIELDS, "operator", "blocks")


def family_to_json(family: GFrameFamily) -> dict:
    return {
        "algebra_dim": family.algebra_dim,
        "source_len": family.source_len,
        "members": [op_to_json(m) for m in family.members],
    }


# Members decode through the module's ``op_from_json`` when called.
_FAMILY_FIELDS = {
    "members": ("a nonempty list of operator objects", _is_list,
                lambda v: GFrameFamily.of(op_from_json(m) for m in v)),
    **dict.fromkeys(("algebra_dim", "source_len"), _LABEL),
}


def family_from_json(data) -> GFrameFamily:
    return _labelled(data, _FAMILY_FIELDS, "family", "members")


def weights_to_json(w: ScalarWeights) -> dict:
    return {
        "thetas": [element_to_json(t) for t in w.thetas],
        "deltas": [element_to_json(t) for t in w.deltas],
        "band": [w.band_lower, w.band_upper],
    }


_COEFFICIENTS = ("a list of square [re, im] matrices", _is_list,
                 lambda v: tuple(map(AlgebraElement, array_from_json(v, 3))))
_WEIGHTS_FIELDS = {"thetas": _COEFFICIENTS, "deltas": _COEFFICIENTS, "band": BAND}


def weights_from_json(data) -> ScalarWeights:
    fields = decode_fields(data, _WEIGHTS_FIELDS, "weights", tuple(_WEIGHTS_FIELDS))
    return ScalarWeights(fields["thetas"], fields["deltas"], *fields["band"])


# The kinds of the inline values of an instance.  Each looks its decoder
# up on the module when called, because span tracing rebinds it there.
FAMILY = ("a family object", _is_object, lambda v: family_from_json(v))
OPERATOR = ("an operator object", _is_object, lambda v: op_from_json(v))
OPERATORS = ("a nonempty list of operator objects", lambda v: _is_list(v) and v,
             lambda v: tuple(op_from_json(x) for x in v))
WEIGHTS = ("a weights object", _is_object, lambda v: weights_from_json(v))


# The text of a JSON scalar, by its exact type.
_SCALARS = {
    float: lambda value: float.__repr__(value) if math.isfinite(value) else "null",
    str: _encode_str,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda value: "null",
}


def json_text(value, indent: str = "\n") -> str:
    """The strict JSON text of ``value`` as ``json.dumps`` with
    ``indent=2`` writes it, ``indent`` being the newline and spaces
    before the value's line: each ``TheoremReport`` as ``report_text``
    writes it, tuples as lists, numpy scalars as Python ones and
    non-finite floats as null.  Any other type JSON lacks raises
    TypeError."""
    write = _SCALARS.get(type(value))
    if write is not None:
        return write(value)
    out = []
    _write(value, indent, out)
    return "".join(out)


def _write(value, indent: str, out: list) -> None:
    """Append the pieces of ``json_text(value, indent)`` to ``out``, so
    that a document is copied once.  ``json.dumps`` cannot use its C
    encoder when it indents, and its Python encoder takes about twice as
    long as this writer."""
    write = _SCALARS.get(type(value))
    if write is not None:
        out.append(write(value))
    elif isinstance(value, dict):
        inner, sep = indent + "  ", "{"
        for key, item in value.items():
            out.append(f"{sep}{inner}{_encode_str(key)}: ")
            _write(item, inner, out)
            sep = ","
        out.append(indent + "}" if value else "{}")
    elif isinstance(value, (list, tuple)):
        inner, sep = indent + "  ", "["
        for item in value:
            out.append(sep + inner)
            _write(item, inner, out)
            sep = ","
        out.append(indent + "]" if value else "[]")
    elif isinstance(value, TheoremReport):
        out.append(report_text(value, indent))
    elif isinstance(value, np.generic):
        _write(value.item(), indent, out)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _checks_text(checks: tuple[CheckItem, ...], indent: str) -> str:
    """A report's checks: a list of objects, each with the ``CheckItem``
    fields in field order."""
    inner = indent + "  "
    field = inner + "  "
    body = ",".join([
        f'{inner}{{{field}"name": {json_text(check.name, field)},'
        f'{field}"passed": {json_text(check.passed, field)},'
        f'{field}"measured": {json_text(check.measured, field)},'
        f'{field}"limit": {json_text(check.limit, field)}{inner}}}'
        for check in checks
    ])
    return f"[{body}{indent}]" if body else "[]"


def _bounds_text(bounds: FrameBounds, indent: str) -> str:
    """A report's achieved bounds: an object with the ``FrameBounds``
    fields in field order."""
    inner = indent + "  "
    return (
        f'{{{inner}"lower": {json_text(bounds.lower, inner)},'
        f'{inner}"upper": {json_text(bounds.upper, inner)},'
        f'{inner}"tight": {json_text(bounds.tight, inner)},'
        f'{inner}"parseval": {json_text(bounds.parseval, inner)}{indent}}}'
    )


# Each key a report writes between "theorem"/"verdict" and the sorted
# "details", in order, with the writer of its value: a new report field
# is one more row, written by ``json_text``.  The checks and the bounds
# are written field by field because a generic walk over
# ``dataclasses.fields`` makes a report take about 1.5 times as long to
# write; the report encoding tests hold both writers to such a walk.
_REPORT_WRITERS = (
    ("hypothesis_checks", _checks_text),
    ("predicted_lower", json_text),
    ("predicted_upper", json_text),
    ("achieved", _bounds_text),
    ("result_kind", json_text),
)
_REPORT_KEYS = tuple(key for key, _ in _REPORT_WRITERS)


def report_text(report: TheoremReport, indent: str) -> str:
    """The JSON text of ``report`` as ``json.dumps`` with ``indent=2``
    writes its strict form, ``indent`` being the newline and spaces
    before the report's line.  Keys come in one fixed order:
    ``theorem``, ``verdict``, ``_REPORT_KEYS`` and the ``details``,
    sorted by key."""
    inner = indent + "  "
    fields_text = "".join(
        [f',{inner}"{key}": {write(getattr(report, key), inner)}' for key, write in _REPORT_WRITERS]
    )
    details_text = json_text(dict(sorted(report.details.items())), inner)
    return (
        f'{{{inner}"theorem": {json_text(report.theorem_id, inner)},'
        f'{inner}"verdict": {json_text(report.verdict.value, inner)}{fields_text},'
        f'{inner}"details": {details_text}{indent}}}'
    )


def report_to_json(report: TheoremReport) -> dict:
    """A report as the plain dict that ``report_text`` writes."""
    return json.loads(report_text(report, "\n"))
