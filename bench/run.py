"""gframes benchmark: closed-loop runner throughput, plus a traced run per layer.

Usage, from the repository root:

    python3 bench/run.py --workload desk_mix --seed 0 --seconds 20 --trace 0

The workload's scenario documents are generated from ``--seed`` into
``.bench_work/<workload>/`` and run in this process through the public
runner API (``cli.load_scenarios``, ``cli.run_scenario``,
``cli.render_json``), one repetition at a time, with BLAS pinned to one
thread.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every round untraced and then again traced, and reports the
per-layer metrics.  End-to-end times are calibrated for the host's
speed by a fixed numpy kernel timed after every repetition (see
calibrate.py).  The last line of standard output is the JSON result.
See bench/README.md for every metric.
"""

import os

# Pinned before numpy is imported here or in any child interpreter.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402

import calibrate  # noqa: E402
import floors  # noqa: E402
import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCE_DIR = os.path.join(HERE, "reference")

DEFAULT_SEED = 0
# Highest percentile that leaves at least ten repetitions beyond it in a
# run of the BENCHMARK.json length (40 s), even when the run completes
# only 60% of the repetitions it did when the value was chosen.
TAIL_PERCENTILE = {"desk_mix": 99.7, "wide_mix": 96.5, "inline_replay": 99.5}
SETUP_SAMPLES = 15
# A calibration pass follows every timed repetition; each repetition is
# scaled by the median of the passes within this many repetitions of it.
CALIBRATION_HALF_WIDTH = 7

# Set-up is timed from the import on; then the same interpreter times
# calibration passes (one warm-up, then the median of five) for its scale.
SETUP_CODE = """
import statistics, sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from gframes import cli
for path in sys.argv[3:]:
    cli.load_scenarios(path)
elapsed = time.perf_counter() - started
sys.path.insert(0, sys.argv[2])
import calibrate
calibrate.sample()
print(repr(elapsed), repr(statistics.median(calibrate.sample() for _ in range(5))))
"""


def machine_record() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "cpu": cpu,
        "loadavg_start": os.getloadavg(),
    }


def setup_sample(paths: list) -> tuple[float, float]:
    """Seconds a fresh interpreter takes to import gframes and load the files,
    and the seconds of one calibration pass in that interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, SRC, HERE, *paths],
        capture_output=True, text=True, check=True, timeout=120,
    )
    elapsed, calibration = done.stdout.strip().splitlines()[-1].split()
    return float(elapsed), float(calibration)


def load_reference(workload: str):
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if data["seed"] != DEFAULT_SEED:
        raise ValueError(f"{path}: reference is for seed {data['seed']}")
    return data["entries"]


def load_all(cli, paths: list) -> list:
    return [s for path in paths for s in cli.load_scenarios(path)]


def percentile_ms(outcomes, q: float) -> float:
    samples = [o.seconds if o.failure is None else float("inf") for o in outcomes]
    return float(np.percentile(samples, q, method="inverted_cdf")) * 1e3


def calibrated(outcomes, passes: list) -> list:
    """The outcomes with their times scaled to the reference host speed;
    ``passes[i]`` is the calibration pass timed after ``outcomes[i]``."""
    return [
        replace(o, seconds=o.seconds * calibrate.REFERENCE_S
                / calibrate.local_passes(passes, i, CALIBRATION_HALF_WIDTH))
        for i, o in enumerate(outcomes)
    ]


def end_to_end(outcomes, workload: str, setup_s: float) -> dict:
    passed = sum(o.failure is None for o in outcomes)
    wall = sum(o.seconds for o in outcomes)
    tail = TAIL_PERCENTILE[workload]
    return {
        "reps_per_s": (passed / wall, "1/s"),
        "rep_p50_ms": (percentile_ms(outcomes, 50), "ms"),
        "rep_tail_ms": (percentile_ms(outcomes, tail), "ms"),
        "setup_s": (setup_s, "s"),
    }


def timed_run(cli, workload, paths, seconds, gate):
    scenarios = load_all(cli, paths)
    warmup = harness.run_round(cli, scenarios, 0, gate)
    calibrate.sample()
    # A calibration pass follows every repetition, outside its timed
    # interval.  Set-up is sampled after the timed rounds, so no child
    # interpreter evicts the caches of a timed repetition.
    passes = []
    outcomes = harness.run_for(cli, scenarios, 1, seconds, gate,
                               after_each=lambda: passes.append(calibrate.sample()))
    setups = [setup_sample(paths) for _ in range(SETUP_SAMPLES)]
    setup_s = statistics.median(t * calibrate.REFERENCE_S / c for t, c in setups)
    raw_setup_s = statistics.median(t for t, _ in setups)
    metrics = end_to_end(calibrated(outcomes, passes), workload, setup_s)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    raw = end_to_end(outcomes, workload, raw_setup_s)
    every = warmup + outcomes
    failed = sum(o.failure is not None for o in every)
    summary = {
        "timed_repetitions": len(outcomes),
        "tail_percentile": TAIL_PERCENTILE[workload],
        "calibration_pass_ms": statistics.median(passes) * 1e3,
        "calibration_reference_ms": calibrate.REFERENCE_S * 1e3,
        "uncalibrated": {k: v for k, (v, _) in raw.items()},
    }
    return metrics, every, failed, summary


def traced_run(cli, paths, seconds, gate, spans_path):
    tracer = tracing.Tracer()
    with tracer:
        load_all(cli, paths)
    scenarios = load_all(cli, paths)
    warmup = harness.run_round(cli, scenarios, 0, gate)
    # Each round runs untraced, then traced, so both halves of a pair see
    # the same machine and the overhead is not confounded with drift.
    traced = []

    def traced_round(rep):
        with tracer:
            traced.extend(harness.run_round(cli, scenarios, rep, gate, tracer))

    untraced = harness.run_for(cli, scenarios, 1, seconds, gate, traced_round)
    mismatches = sum(a.key() != b.key() for a, b in zip(untraced, traced))
    untraced_s = sum(o.seconds for o in untraced)
    traced_s = sum(o.seconds for o in traced)
    floor_s = {
        "frames.optimal_bounds": floors.optimal_bounds_floor(tracer.bounds_shapes),
        "hilbert.compose": floors.compose_floor(tracer.compose_shapes),
    }
    spans = tracer.spans()
    metrics = tracing.layer_metrics(tracer, spans, len(traced), traced_s, untraced_s, floor_s)
    self_sum_s = float(spans["self_ns"][spans["rep"] >= 0].sum()) / 1e9
    tracer.save(spans_path, spans)
    every = warmup + untraced + traced
    failed = sum(o.failure is not None for o in every) + mismatches
    summary = {
        "traced_repetitions": len(traced),
        "verdict_mismatches": mismatches,
        "self_sum_over_traced_wall": self_sum_s / traced_s,
        "floor_s_per_call": floor_s,
        "spans": spans_path,
    }
    return metrics, every, failed, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gframes", "__init__.py")):
        print(f"error: no gframes sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from gframes import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: gframes imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2

    machine = machine_record()
    workdir = os.path.join(WORK, args.workload)
    paths = workloads.write_documents(args.workload, args.seed, os.path.join(workdir, "scenarios"))
    reference = load_reference(args.workload) if args.seed == DEFAULT_SEED else None
    gate = harness.Gate(reference)
    if args.trace:
        spans_path = os.path.join(workdir, "spans.npz")
        metrics, every, failed, summary = traced_run(cli, paths, args.seconds, gate, spans_path)
    else:
        metrics, every, failed, summary = timed_run(cli, args.workload, paths, args.seconds, gate)
    machine["loadavg_end"] = os.getloadavg()

    failures = [f"{o.theorem} rep {o.rep}: {o.failure}" for o in every if o.failure][:20]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "reference_checked": reference is not None,
        "failed_frac": failed / len(every),
        "machine": machine,
        "summary": summary,
        "failures": failures,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(workdir, f"result-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, allow_nan=False)

    print("machine: " + json.dumps(machine))
    print(f"{args.workload} seed {args.seed}: {len(every)} repetitions attempted,"
          f" {failed} failed (failed_frac {record['failed_frac']:.6g} ratio)")
    for line in failures:
        print("  failure: " + line)
    for key, value in summary.items():
        print(f"  {key}: {value}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(every),
        "failed": failed,
        "metrics": record["metrics"],
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
