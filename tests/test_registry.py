"""The declared theorem table: defaults, checker inputs and descriptions."""

import importlib.util
from pathlib import Path

import pytest

from gframes import registry
from gframes.cli import main
from gframes.generators import FamilyTarget
from gframes.registry import THEOREMS, build_and_run
from gframes.serialize import report_to_json

# The choice fields that an absent value fills by seed parity: the first
# choice at even seeds, the second at odd ones.
_PARITY_CHOICES = {
    "PERTURB_LAMBDA": ("lambda_kind", "expansive", "scalar"),
    "T3_COROLLARY": ("mode", "scaled", "orthogonal"),
    "T11_POSITIVE": ("mode", "orthogonal", "same"),
    "ISOMETRY_SUM": ("mode", "scaled", "orthogonal"),
    "TIGHT_MN": ("mode", "scalar", "violating"),
}


def _json_form(value):
    """A declared default as an instance spells it."""
    if isinstance(value, FamilyTarget):
        return "random" if value.lower is None else {"bounds": [value.lower, value.upper]}
    return list(value) if isinstance(value, tuple) else value


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_each_declared_default_written_out_reports_what_its_absence_reports(theorem):
    spec = THEOREMS[theorem]
    assert ("mode" in spec.fields or "lambda_kind" in spec.fields) == (theorem in _PARITY_CHOICES)
    defaults = {key: _json_form(value) for key, value in spec.defaults.items()}
    variants = [{key: value} for key, value in defaults.items()] + [defaults]
    for seed in range(20):
        choice = {}
        if theorem in _PARITY_CHOICES:
            key, even, odd = _PARITY_CHOICES[theorem]
            choice = {key: odd if seed % 2 else even}
        absent = report_to_json(build_and_run(theorem, {}, seed))
        for variant in variants:
            instance = {**variant, **choice}
            assert report_to_json(build_and_run(theorem, instance, seed)) == absent, instance


def _bench_workloads():
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("theorem", list(THEOREMS))
def test_each_checker_stamps_its_report_with_its_registry_key(theorem):
    assert build_and_run(theorem, {}, 0).theorem_id == theorem


def test_declared_checkers_and_inputs_match_the_bench_capture_table(capsys):
    # The benchmark keeps its own copy of the table to capture inline
    # instances; CLASSIFY's declared checker wraps ``classify``.
    inline_keys = _bench_workloads().INLINE_KEYS
    assert sorted(inline_keys) == sorted(THEOREMS)
    for theorem, (checker, inputs) in inline_keys.items():
        spec = THEOREMS[theorem]
        assert spec.inputs == inputs, theorem
        assert callable(getattr(registry, spec.checker)), theorem
        assert theorem == "CLASSIFY" or spec.checker == checker, theorem
    assert main(["--list-theorems"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for theorem, spec in THEOREMS.items():
        assert any(line.split()[0] == theorem and line.endswith(f"  {spec.description}")
                   for line in lines), theorem


@pytest.mark.parametrize("seed", range(3))
def test_a_zero_lambda_leaves_the_family_as_it_was(seed):
    report = build_and_run("PERTURB_LAMBDA", {"lambda_kind": "zero"}, seed)
    assert report.verdict.value == "ConclusionHolds"
    assert report.achieved.lower == report.predicted_lower
