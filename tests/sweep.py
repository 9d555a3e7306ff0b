"""Default-instance sweep: one report per theorem and seed, as JSON lines.

Runs every registered theorem on the empty instance (every field
generated or defaulted) for seeds 0 to N-1 and writes one
``report_to_json`` line per (theorem, seed), theorems in registry order.
With ``--render`` it runs one 3-repetition default scenario per theorem
and seed instead, and writes the runner's whole JSON document (without
its timestamp) followed by its CSV.  The package is imported from the
checkout that holds this script, so two checkouts compare with ``cmp``:

    python tests/sweep.py --seeds 200 > head.jsonl
    python ../other/tests/sweep.py --seeds 200 > other.jsonl
    cmp head.jsonl other.jsonl
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gframes.cli import parse_scenario, render_csv, render_json, run_scenario  # noqa: E402
from gframes.registry import THEOREMS, build_and_run  # noqa: E402
from gframes.serialize import report_to_json  # noqa: E402

RENDER_REPETITIONS = 3


def sweep(seeds: int):
    """The JSON line of each theorem's report at each seed below ``seeds``."""
    for theorem in THEOREMS:
        for seed in range(seeds):
            yield json.dumps(report_to_json(build_and_run(theorem, {}, seed)))


def render(seeds: int) -> str:
    """The JSON document, then the CSV, of one default scenario per
    theorem and seed below ``seeds``, each of ``RENDER_REPETITIONS``."""
    runs = [
        run_scenario(parse_scenario(
            {"schema": 1, "theorem": theorem, "seed": seed, "repetitions": RENDER_REPETITIONS}
        ))
        for theorem in THEOREMS
        for seed in range(seeds)
    ]
    return render_json(runs, with_timing=False) + render_csv(runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="seeds 0 to N-1 (default 200)")
    parser.add_argument(
        "--render", action="store_true",
        help="write the runner's JSON document and CSV of 3-repetition scenarios",
    )
    args = parser.parse_args(argv)
    if args.render:
        sys.stdout.write(render(args.seeds))
        return 0
    for line in sweep(args.seeds):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
