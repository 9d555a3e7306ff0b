"""JSON forms of the core values.

Complex scalars are [re, im] pairs; matrices are nested lists of those;
operators carry their block grid; families list their members.  These
shapes appear verbatim inside scenario files and reports.  Every JSON
object the runner reads decodes through ``decode_fields``, by its table,
and every JSON text it writes is written by ``json_text``, the one
writer of a JSON scalar.  A report document is written by templates,
one per level: ``document_text`` for the document, ``run_text`` for each
run's entry, straight from its ``cli.RunReport``, and ``report_text``
for each report, whose scalars take one ``json_text`` call each.  Only
containers, such as a nested detail value, take the walk ``_write``,
which hands each leaf back to ``json_text``.
"""

from __future__ import annotations

import json
import math
import reprlib
import sys
from json.encoder import encode_basestring_ascii as _encode_str
from typing import NamedTuple

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


class Document(NamedTuple):
    """A report document, which ``json_text`` writes as ``document_text``
    does: ``schema``, ``generated_at`` unless it is None, and one entry
    per run of ``runs`` (``cli.RunReport``s).  A document with
    ``generated_at`` is timed: each entry holds its run's wall time."""

    schema: int
    generated_at: str | None
    runs: list


def json_text(value, indent: str = "\n") -> str:
    """The strict JSON text of ``value`` as ``json.dumps`` with
    ``indent=2`` writes it, ``indent`` being the newline and spaces
    before the value's line: a JSON scalar by its exact type, here, a
    ``Document`` or a ``TheoremReport`` by its template, and containers
    and numpy scalars by ``_write``, tuples as lists and numpy scalars as
    Python ones.  A non-finite float is null, and any other type JSON
    lacks raises TypeError."""
    kind = type(value)
    if kind is float:
        return float.__repr__(value) if math.isfinite(value) else "null"
    if kind is str:
        return _encode_str(value)
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return int.__repr__(value)
    if value is None:
        return "null"
    template = _TEMPLATES.get(kind)
    if template is not None:
        return template(value, indent)
    if not isinstance(value, (dict, list, tuple, np.generic)):
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    out = []
    _write(value, indent, out)
    return "".join(out)


def _write(value, indent: str, out: list) -> None:
    """Append the pieces of ``json_text(value, indent)`` to ``out``, so
    that a nested container is copied once; every other value is written
    by ``json_text``, a numpy scalar as its ``item()``.  ``json.dumps``
    cannot use its C encoder when it indents, and its Python encoder
    takes about twice as long as this writer."""
    if isinstance(value, dict):
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
    else:
        out.append(json_text(value.item() if isinstance(value, np.generic) else value, indent))


# The keys a report writes between "theorem"/"verdict" and the sorted
# "details", in order.  The checks and the bounds are written field by
# field because a generic walk over ``dataclasses.fields`` makes a report
# take about 1.5 times as long to write; the report encoding tests hold
# the template to such a walk.
_REPORT_KEYS = ("hypothesis_checks", "predicted_lower", "predicted_upper", "achieved",
                "result_kind")


def report_text(report: TheoremReport, indent: str) -> str:
    """The JSON text of ``report`` as ``json.dumps`` with ``indent=2``
    writes its strict form, ``indent`` being the newline and spaces
    before the report's line.  Keys come in one fixed order:
    ``theorem``, ``verdict``, ``_REPORT_KEYS`` and the ``details``,
    sorted by key; the checks are objects of the ``CheckItem`` fields
    and the bounds one of the ``FrameBounds`` fields, in field order."""
    inner = indent + "  "
    item = inner + "  "
    field = item + "  "
    checks = ",".join([
        f'{item}{{{field}"name": {json_text(check.name, field)},'
        f'{field}"passed": {json_text(check.passed, field)},'
        f'{field}"measured": {json_text(check.measured, field)},'
        f'{field}"limit": {json_text(check.limit, field)}{item}}}'
        for check in report.hypothesis_checks
    ])
    details = ",".join([
        f"{item}{_encode_str(key)}: {json_text(value, item)}"
        for key, value in sorted(report.details.items())
    ])
    bounds = report.achieved
    return (
        f'{{{inner}"theorem": {json_text(report.theorem_id, inner)},'
        f'{inner}"verdict": {json_text(report.verdict.value, inner)},'
        f'{inner}"hypothesis_checks": {f"[{checks}{inner}]" if checks else "[]"},'
        f'{inner}"predicted_lower": {json_text(report.predicted_lower, inner)},'
        f'{inner}"predicted_upper": {json_text(report.predicted_upper, inner)},'
        f'{inner}"achieved": {{{item}"lower": {json_text(bounds.lower, item)},'
        f'{item}"upper": {json_text(bounds.upper, item)},'
        f'{item}"tight": {json_text(bounds.tight, item)},'
        f'{item}"parseval": {json_text(bounds.parseval, item)}{inner}}},'
        f'{inner}"result_kind": {json_text(report.result_kind, inner)},'
        f'{inner}"details": {f"{{{details}{inner}}}" if details else "{}"}{indent}}}'
    )


def run_text(run, indent: str, timed: bool) -> str:
    """A run's entry in a report document, written from its
    ``cli.RunReport``: the scenario's name, theorem, seed, seed stride
    and repetitions, the aggregate verdict counts, each report as
    ``json_text`` writes it and, when ``timed``, the wall time."""
    inner = indent + "  "
    item = inner + "  "
    scenario = run.scenario
    counts = ",".join([
        f"{item}{_encode_str(verdict)}: {json_text(count)}"
        for verdict, count in run.aggregate.items()
    ])
    reports = ",".join([item + json_text(report, item) for report in run.reports])
    timing = f',{inner}"wall_time_s": {json_text(run.wall_time_s, inner)}' if timed else ""
    return (
        f'{{{inner}"scenario": {json_text(scenario.name, inner)},'
        f'{inner}"theorem": {json_text(scenario.theorem, inner)},'
        f'{inner}"seed": {json_text(scenario.seed, inner)},'
        f'{inner}"seed_stride": {json_text(scenario.seed_stride, inner)},'
        f'{inner}"repetitions": {json_text(scenario.repetitions, inner)},'
        f'{inner}"aggregate": {f"{{{counts}{inner}}}" if counts else "{}"},'
        f'{inner}"reports": {f"[{reports}{inner}]" if reports else "[]"}{timing}{indent}}}'
    )


def document_text(document: Document, indent: str) -> str:
    """The JSON text of ``document`` as ``json.dumps`` with ``indent=2``
    writes the object of its fields, each run as ``run_text`` writes it."""
    inner = indent + "  "
    item = inner + "  "
    timed = document.generated_at is not None
    stamp = f'{inner}"generated_at": {json_text(document.generated_at, inner)},' if timed else ""
    runs = ",".join([item + run_text(run, item, timed) for run in document.runs])
    return (
        f'{{{inner}"schema": {json_text(document.schema, inner)},{stamp}'
        f'{inner}"runs": {f"[{runs}{inner}]" if runs else "[]"}{indent}}}'
    )


# The writers of the values whose text is a template, by exact type.
_TEMPLATES = {Document: document_text, TheoremReport: report_text}


def report_to_json(report: TheoremReport) -> dict:
    """A report as the plain dict that ``report_text`` writes."""
    return json.loads(report_text(report, "\n"))
