"""Default-instance sweep: one report per theorem and seed, as JSON lines.

Runs every registered theorem on the empty instance (every field
generated or defaulted) for seeds 0 to N-1 and writes one
``report_to_json`` line per (theorem, seed), theorems in registry order.
The package is imported from the checkout that holds this script, so
two checkouts compare with ``cmp``:

    python tests/sweep.py --seeds 200 > head.jsonl
    python ../other/tests/sweep.py --seeds 200 > other.jsonl
    cmp head.jsonl other.jsonl
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gframes.registry import THEOREMS, build_and_run  # noqa: E402
from gframes.serialize import report_to_json  # noqa: E402


def sweep(seeds: int):
    """The JSON line of each theorem's report at each seed below ``seeds``."""
    for theorem in THEOREMS:
        for seed in range(seeds):
            yield json.dumps(report_to_json(build_and_run(theorem, {}, seed)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=200, help="seeds 0 to N-1 (default 200)")
    args = parser.parse_args(argv)
    for line in sweep(args.seeds):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
