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
import reprlib
import sys
import time
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

from .algebra import DEFAULT_TOL, Tolerance
from .errors import GFrameError, ValidationError
from .registry import THEOREMS, build_and_run, theorem_ids
from .serialize import report_to_json

SCHEMA_VERSION = 1
# Inclusive cap on a scenario's repetitions, so that every run ends.
MAX_REPETITIONS = 1_000_000
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Scenario:
    name: str
    theorem: str
    instance: dict = field(default_factory=dict)
    tolerance: Tolerance = DEFAULT_TOL
    repetitions: int = 1
    seed: int = 0
    seed_stride: int = 1


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
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: scenario must be a JSON object")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: expected \"schema\": {SCHEMA_VERSION}, got {data.get('schema')!r}"
        )
    theorem = data.get("theorem")
    if theorem not in THEOREMS:
        raise ValidationError(
            f"{path}: unknown theorem {theorem!r}; see --list-theorems"
        )
    reps = data.get("repetitions", 1)
    if not isinstance(reps, int) or isinstance(reps, bool) or not (
        0 < reps <= MAX_REPETITIONS
    ):
        raise ValidationError(
            f"{path}: 'repetitions' must be a positive integer at most"
            f" {MAX_REPETITIONS}, got {reprlib.repr(reps)}"
        )
    tol_data = data.get("tolerance", {})
    if not isinstance(tol_data, dict):
        raise ValidationError(f"{path}: tolerance must be an object")
    bounds = {}
    for key in ("rel", "abs"):
        try:
            bounds[key] = float(tol_data.get(key, getattr(DEFAULT_TOL, key)))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"{path}: tolerance {key!r}: {exc}") from exc
    try:
        tol = Tolerance(**bounds)
    except ValueError as exc:
        raise ValidationError(f"{path}: bad tolerance: {exc}") from exc
    instance = data.get("instance", {})
    if not isinstance(instance, dict):
        raise ValidationError(f"{path}: instance must be an object")
    seeds = {"seed": data.get("seed", 0), "seed_stride": data.get("seed_stride", 1)}
    for key, value in seeds.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValidationError(f"{path}: {key!r} must be an integer, got {value!r}")
    return Scenario(
        name=str(data.get("name", theorem)),
        theorem=theorem,
        instance=instance,
        tolerance=tol,
        repetitions=reps,
        **seeds,
    )


def run_scenario(scenario: Scenario) -> RunReport:
    """Execute every repetition; deterministic given the scenario."""
    started = time.perf_counter()
    reports = []
    for rep in range(scenario.repetitions):
        rep_seed = (scenario.seed + scenario.seed_stride * rep) & _MASK64
        reports.append(
            build_and_run(
                scenario.theorem, scenario.instance, rep_seed, scenario.tolerance
            )
        )
    return RunReport(scenario, reports, time.perf_counter() - started)


def load_scenarios(path: str) -> list[Scenario]:
    """One file holds either a scenario object or a list of them."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(
            f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        # Bytes that are not UTF-8, or an integer past Python's digit limit.
        raise ValidationError(f"{path}: {exc}") from exc
    items = data if isinstance(data, list) else [data]
    return [parse_scenario(item, path) for item in items]


def run_report_to_json(run: RunReport, with_timing: bool) -> dict:
    out = {
        "scenario": run.scenario.name,
        "theorem": run.scenario.theorem,
        "seed": run.scenario.seed,
        "seed_stride": run.scenario.seed_stride,
        "repetitions": run.scenario.repetitions,
        "aggregate": run.aggregate,
        "reports": [report_to_json(r) for r in run.reports],
    }
    if with_timing:
        out["wall_time_s"] = run.wall_time_s
    return out


def render_json(runs: list[RunReport], with_timing: bool) -> str:
    doc = {"schema": SCHEMA_VERSION}
    if with_timing:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    doc["runs"] = [run_report_to_json(r, with_timing) for r in runs]
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


_CSV_COLUMNS = (
    "scenario",
    "rep",
    "verdict",
    "achieved_lower",
    "achieved_upper",
    "predicted_lower",
    "predicted_upper",
)


def render_csv(runs: list[RunReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for run in runs:
        for rep, report in enumerate(run.reports):
            data = report_to_json(report)
            achieved = data["achieved"]
            predicted_lower = data.get("predicted_lower")
            predicted_upper = data.get("predicted_upper")
            writer.writerow(
                [
                    run.scenario.name,
                    rep,
                    data["verdict"],
                    repr(achieved["lower"]),
                    repr(achieved["upper"]),
                    "" if predicted_lower is None else repr(float(predicted_lower)),
                    "" if predicted_upper is None else repr(float(predicted_upper)),
                ]
            )
    return buffer.getvalue()


def _list_theorems() -> str:
    width = max(len(name) for name in theorem_ids())
    lines = [f"{name:<{width}}  {THEOREMS[name][1]}" for name in theorem_ids()]
    return "\n".join(lines) + "\n"


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
        sys.stdout.write(_list_theorems())
        return 0
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
    if args.report:
        with open(args.report, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)

    failures = sum(run.aggregate["ConclusionFails"] for run in runs)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
