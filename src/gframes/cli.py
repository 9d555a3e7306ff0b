"""Scenario runner.

Reads declarative JSON scenario files, executes the named theorem
checker over seeded repetitions, and emits a machine-readable report
(JSON or CSV).  Exit status: 0 when no repetition anywhere reports
ConclusionFails, 1 when at least one does, 2 on validation problems.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from functools import cached_property

from .algebra import DEFAULT_TOL, Tolerance
from .errors import GFrameError, ValidationError
from .registry import THEOREMS, run_decoded, validate_instance
from .serialize import decode_fields, is_int, is_number, json_text

SCHEMA_VERSION = 1
# Inclusive cap on a scenario's repetitions, so that every run ends.
MAX_REPETITIONS = 1_000_000
_MASK64 = (1 << 64) - 1
# The fields of a scenario object and of its tolerance object, as
# ``serialize.decode_fields`` reads them; an absent field takes the
# ``Scenario`` or ``Tolerance`` default.
_NONNEGATIVE = ("a finite nonnegative number", lambda v: is_number(v) and v >= 0, float)
_TOLERANCE_FIELDS = {"rel": _NONNEGATIVE, "abs": _NONNEGATIVE}
_SCENARIO_FIELDS = {
    "schema": (str(SCHEMA_VERSION), lambda v: is_int(v) and v == SCHEMA_VERSION, int),
    "name": ("a string with no lone surrogate, which UTF-8 cannot encode",
             lambda v: isinstance(v, str) and not any("\ud800" <= c <= "\udfff" for c in v), str),
    "theorem": ("a theorem id; see --list-theorems",
                lambda v: isinstance(v, str) and v in THEOREMS, str),
    **dict.fromkeys(("seed", "seed_stride"), ("an integer", is_int, int)),
    "repetitions": (f"a positive integer at most {MAX_REPETITIONS}",
                    lambda v: is_int(v) and 0 < v <= MAX_REPETITIONS, int),
    "tolerance": ("a tolerance object", lambda v: isinstance(v, dict),
                  lambda v: Tolerance(**decode_fields(v, _TOLERANCE_FIELDS, "tolerance"))),
    "instance": ("an instance object", lambda v: isinstance(v, dict), lambda v: v),
}


@dataclass(frozen=True, eq=False)
class _Decoded:
    """A scenario's instance, decoded on first use and then shared by
    every repetition and by every ``replace`` slice of the scenario."""

    theorem: str
    instance: dict

    @cached_property
    def config(self):
        return validate_instance(self.theorem, self.instance)


@dataclass(frozen=True)
class Scenario:
    name: str
    theorem: str
    instance: dict = field(default_factory=dict)
    tolerance: Tolerance = DEFAULT_TOL
    repetitions: int = 1
    seed: int = 0
    seed_stride: int = 1
    # Reused only while it holds this scenario's theorem and instance
    # object, so the instance must not be changed in place.
    decoded: _Decoded | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class RunReport:
    scenario: Scenario
    reports: list
    wall_time_s: float

    @property
    def aggregate(self) -> dict:
        counts = {"ConclusionHolds": 0, "HypothesisFails": 0, "ConclusionFails": 0}
        for report in self.reports:
            counts[report.verdict.value] += 1
        return counts


def parse_scenario(data: dict, path: str = "<memory>") -> Scenario:
    try:
        fields = decode_fields(data, _SCENARIO_FIELDS, "scenario", ("schema", "theorem"))
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    del fields["schema"]
    theorem = fields["theorem"]
    fields.setdefault("name", theorem)
    instance = fields.setdefault("instance", {})
    return Scenario(**fields, decoded=_Decoded(theorem, instance))


def run_scenario(scenario: Scenario) -> RunReport:
    """Execute every repetition; deterministic given the scenario.  The
    instance is decoded in the first repetition and the decode is kept."""
    started = time.perf_counter()
    decoded = scenario.decoded
    if (
        decoded is None
        or decoded.theorem != scenario.theorem
        or decoded.instance is not scenario.instance
    ):
        decoded = _Decoded(scenario.theorem, scenario.instance)
    reports = []
    for rep in range(scenario.repetitions):
        rep_seed = (scenario.seed + scenario.seed_stride * rep) & _MASK64
        reports.append(run_decoded(scenario.theorem, decoded.config, rep_seed, scenario.tolerance))
    return RunReport(scenario, reports, time.perf_counter() - started)


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice is an error."""
    data = dict(pairs)
    if len(data) != len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in keys if keys.count(k) > 1)!r}")
    return data


def load_scenarios(path: str) -> list[Scenario]:
    """One file holds either a scenario object or a list of them."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except (ValueError, RecursionError) as exc:
        # Bytes that are not UTF-8, a repeated key, an integer past Python's
        # digit limit, or nesting past the decoder's recursion limit.
        raise ValidationError(f"{path}: {exc}") from exc
    items = data if isinstance(data, list) else [data]
    return [parse_scenario(item, path) for item in items]


def _run_document(run: RunReport, with_timing: bool) -> dict:
    """A run's entry in the report document; its reports stay
    ``TheoremReport``s, which ``serialize.json_text`` writes."""
    out = {
        "scenario": run.scenario.name,
        "theorem": run.scenario.theorem,
        "seed": run.scenario.seed,
        "seed_stride": run.scenario.seed_stride,
        "repetitions": run.scenario.repetitions,
        "aggregate": run.aggregate,
        "reports": run.reports,
    }
    if with_timing:
        out["wall_time_s"] = run.wall_time_s
    return out


def render_json(runs: list[RunReport], with_timing: bool) -> str:
    doc = {"schema": SCHEMA_VERSION}
    if with_timing:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    doc["runs"] = [_run_document(r, with_timing) for r in runs]
    return json_text(doc) + "\n"


_CSV_COLUMNS = (
    "scenario",
    "rep",
    "verdict",
    "achieved_lower",
    "achieved_upper",
    "predicted_lower",
    "predicted_upper",
)


def _bound_cell(value) -> str:
    """A bound's CSV cell: empty when the bound is absent or not finite."""
    return "" if value is None or not math.isfinite(value) else repr(float(value))


def render_csv(runs: list[RunReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for run in runs:
        for rep, report in enumerate(run.reports):
            writer.writerow(
                [
                    run.scenario.name,
                    rep,
                    report.verdict.value,
                    _bound_cell(report.achieved.lower),
                    _bound_cell(report.achieved.upper),
                    _bound_cell(report.predicted_lower),
                    _bound_cell(report.predicted_upper),
                ]
            )
    return buffer.getvalue()


def _list_theorems() -> str:
    width = max(map(len, THEOREMS))
    lines = [f"{name:<{width}}  {spec.description}" for name, spec in THEOREMS.items()]
    return "\n".join(lines) + "\n"


def _emit(text: str, report: str | None) -> bool:
    """Write ``text`` to the ``report`` path, else to standard output.
    A failed write prints ``error: <where>: <reason>`` and returns False:
    an ``OSError`` such as a full disk, or a standard output whose
    encoding cannot hold a character of ``text`` (report files are
    UTF-8, which holds every string the decoder accepts)."""
    where = report or "<stdout>"
    try:
        if report:
            with open(report, "w", encoding="utf-8") as handle:
                handle.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        print(f"error: {where}: {exc.strerror or exc}", file=sys.stderr)
        return False
    except UnicodeEncodeError as exc:
        bad = exc.object[exc.start:exc.end]
        print(f"error: {where}: encoding {exc.encoding} cannot encode {bad!r}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gframes",
        description="Run declarative theorem-checking scenarios.",
    )
    parser.add_argument(
        "--list-theorems",
        action="store_true",
        help="print the theorem-id registry and exit",
    )
    sub = parser.add_subparsers(dest="command")
    run_parser = sub.add_parser("run", help="run one or more scenario files")
    run_parser.add_argument("files", nargs="+", help="scenario JSON files")
    run_parser.add_argument("--report", help="write the report here instead of stdout")
    run_parser.add_argument(
        "--format", choices=("json", "csv"), default="json", help="report format"
    )
    run_parser.add_argument(
        "--seed", type=int, default=None, help="override every scenario seed"
    )
    run_parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit timing fields so identical runs are byte-identical",
    )

    args = parser.parse_args(argv)
    if args.list_theorems:
        return 0 if _emit(_list_theorems(), None) else 2
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2

    try:
        scenarios = []
        for path in args.files:
            scenarios.extend(load_scenarios(path))
        if args.seed is not None:
            scenarios = [replace(s, seed=args.seed) for s in scenarios]
        runs = [run_scenario(s) for s in scenarios]
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except GFrameError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    if args.format == "csv":
        text = render_csv(runs)
    else:
        text = render_json(runs, with_timing=not args.no_timestamp)
    if not _emit(text, args.report):
        return 2
    failures = sum(run.aggregate["ConclusionFails"] for run in runs)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
