"""Write bench/reference/<workload>.json, the correctness gate's reference.

Records verdict, result kind and achieved bounds of the first rounds of
every workload at the default seed.  Run from the repository root:

    python3 bench/make_reference.py [workload ...]

It refuses to write a reference in which any repetition failed.
"""

import json
import os
import sys

import run  # pins BLAS threads before numpy loads
from run import harness, workloads

REFERENCE_ROUNDS = 64


def build(workload: str) -> dict:
    from gframes import cli

    workdir = os.path.join(run.WORK, workload, "reference-scenarios")
    paths = workloads.write_documents(workload, run.DEFAULT_SEED, workdir)
    scenarios = run.load_all(cli, paths)
    outcomes = harness.run_rounds(cli, scenarios, range(REFERENCE_ROUNDS), harness.Gate())
    failures = [o for o in outcomes if o.failure is not None]
    if failures:
        raise SystemExit(f"{workload}: {len(failures)} failed repetitions, e.g. {failures[0]}")
    entries = {}
    for o in outcomes:
        entries.setdefault(o.theorem, []).append([o.verdict, o.result_kind, o.lower, o.upper])
    return {"workload": workload, "seed": run.DEFAULT_SEED, "rounds": REFERENCE_ROUNDS,
            "entries": entries}


def main(argv) -> int:
    sys.path.insert(0, run.SRC)
    os.makedirs(run.REFERENCE_DIR, exist_ok=True)
    for workload in argv or workloads.WORKLOADS:
        data = build(workload)
        path = os.path.join(run.REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle, separators=(",", ":"))
            handle.write("\n")
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
