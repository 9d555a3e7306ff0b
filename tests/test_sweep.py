"""The default-instance sweep script writes one report line per theorem and seed."""

import json
import subprocess
import sys
from pathlib import Path

from gframes.registry import THEOREMS, build_and_run
from gframes.serialize import report_to_json

SWEEP = Path(__file__).resolve().parent / "sweep.py"


def test_the_sweep_writes_each_default_report_as_one_line():
    done = subprocess.run(
        [sys.executable, str(SWEEP), "--seeds", "2"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    lines = done.stdout.splitlines()
    assert len(lines) == 2 * len(THEOREMS)
    expected = [
        report_to_json(build_and_run(theorem, {}, seed)) for theorem in THEOREMS for seed in (0, 1)
    ]
    assert [json.loads(line) for line in lines] == expected
