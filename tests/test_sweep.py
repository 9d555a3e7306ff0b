"""The default-instance sweep script writes one report line per theorem
and seed, or with ``--render`` the runner's whole document and CSV."""

import json
import subprocess
import sys
from pathlib import Path

from gframes.cli import parse_scenario, render_csv, render_json, run_scenario
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


def test_the_render_sweep_writes_the_runner_document_then_its_csv():
    done = subprocess.run(
        [sys.executable, str(SWEEP), "--render", "--seeds", "2"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    runs = [
        run_scenario(parse_scenario({"schema": 1, "theorem": theorem, "seed": seed, "repetitions": 3}))
        for theorem in THEOREMS
        for seed in (0, 1)
    ]
    document = render_json(runs, with_timing=False)
    assert done.stdout == document + render_csv(runs)
    assert len(json.loads(document)["runs"]) == 2 * len(THEOREMS)
