"""Tests of the benchmark itself: workload generation, the gate, tracing
and the host-speed calibration.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import sys

import pytest

import calibrate
import harness
import run
import tracing
import workloads
from gframes import cli, registry, serialize
from gframes.algebra import AlgebraElement
from gframes.hilbert import AdjointableOp


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_documents_are_deterministic_in_the_seed(workload):
    first = workloads.documents(workload, 11)
    assert first == workloads.documents(workload, 11)
    assert first != workloads.documents(workload, 12)
    assert [d["theorem"] for d in first] == list(workloads.THEOREMS)


def _decode(key, value):
    if key in ("family", "second_family"):
        return serialize.family_to_json(serialize.family_from_json(value))
    if key in ("m", "n", "lambda"):
        return serialize.op_to_json(serialize.op_from_json(value))
    if key == "delta_ops":
        return [serialize.op_to_json(serialize.op_from_json(v)) for v in value]
    if key == "weights":
        return serialize.weights_to_json(serialize.weights_from_json(value))
    return value


@pytest.mark.parametrize("theorem", workloads.THEOREMS)
def test_inline_replay_round_trips_to_the_generated_instance(theorem):
    rng = workloads.workload_rng("inline_replay", 4)
    for earlier in workloads.THEOREMS[: workloads.THEOREMS.index(theorem)]:
        workloads.inline_source(earlier, rng)
        rng.integers(0, 1 << 62)
    sizes, seed = workloads.inline_source(theorem, rng)
    inline = workloads.capture_instance(theorem, sizes, seed)
    assert {k: _decode(k, v) for k, v in inline.items()} == inline

    generated = serialize.report_to_json(registry.build_and_run(theorem, sizes, seed))
    replayed = serialize.report_to_json(registry.build_and_run(theorem, inline, seed + 1))
    assert replayed["verdict"] == generated["verdict"] == "ConclusionHolds"
    assert replayed["achieved"] == generated["achieved"]


def test_inline_replay_documents_hold_the_dumped_instances():
    docs = workloads.documents("inline_replay", 4)
    rng = workloads.workload_rng("inline_replay", 4)
    for doc in docs:
        sizes, seed = workloads.inline_source(doc["theorem"], rng)
        rng.integers(0, 1 << 62)
        assert doc["instance"] == workloads.capture_instance(doc["theorem"], sizes, seed)


def _bindings():
    """Every function-valued binding in the gframes namespaces, plus the two class hooks."""
    out = {
        (mod_name, attr): value
        for mod_name, mod in sys.modules.items()
        if mod_name == "gframes" or mod_name.startswith("gframes.")
        for attr, value in vars(mod).items()
        if callable(value)
    }
    out[("AlgebraElement", "__post_init__")] = AlgebraElement.__dict__["__post_init__"]
    out[("AdjointableOp", "flat")] = AdjointableOp.__dict__["flat"]
    return out


def _scenarios(workload, tmp_path):
    paths = workloads.write_documents(workload, 2, str(tmp_path / workload))
    return [s for p in paths for s in cli.load_scenarios(p)]


@pytest.mark.parametrize("workload", ["desk_mix", "inline_replay"])
def test_traced_run_matches_untraced_and_restores_every_binding(workload, tmp_path):
    scenarios = _scenarios(workload, tmp_path)
    gate = harness.Gate()
    before = _bindings()
    untraced = harness.run_rounds(cli, scenarios, range(2), gate)

    tracer = tracing.Tracer()
    with tracer:
        during = _bindings()
        traced = harness.run_rounds(cli, scenarios, range(2), gate, tracer)
    after = _bindings()

    assert [o.key() for o in traced] == [o.key() for o in untraced]
    assert all(o.failure is None for o in untraced + traced)
    # Installed wherever bound, e.g. both the defining and an importing module.
    for key in [("gframes.frames", "optimal_bounds"), ("gframes.sums", "optimal_bounds"),
                ("gframes", "compose"), ("AdjointableOp", "flat")]:
        assert during[key] is not before[key]
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    spans = tracer.spans()
    assert len(spans["name"]) > 0
    assert (spans["self_ns"] >= 0).all()
    assert (spans["rep"] >= 0).sum() > 0


def test_layer_metrics_cover_every_traced_function(tmp_path):
    scenarios = _scenarios("inline_replay", tmp_path)
    tracer = tracing.Tracer()
    with tracer:
        outcomes = harness.run_rounds(cli, scenarios, range(1), harness.Gate(), tracer)
    wall = sum(o.seconds for o in outcomes)
    floors = {"frames.optimal_bounds": 1e-5, "hilbert.compose": 1e-6}
    metrics = tracing.layer_metrics(tracer, tracer.spans(), len(outcomes), wall, wall, floors)
    for name in tracing.span_names():
        assert f"{name}.calls" in metrics and f"{name}.self_ms" in metrics
    assert sum(metrics[f"{m.lstrip('_')}.share"][0] for m in tracing.LAYERS) <= 1.0
    assert metrics["generators.gen_family.calls"][0] == 0
    assert metrics["serialize.family_from_json.calls"][0] > 0


def _rendered(verdict="ConclusionHolds", lower=0.5, upper=2.0):
    return ('{"runs": [{"reports": [{"verdict": "%s", "result_kind": "Frame",'
            ' "achieved": {"lower": %s, "upper": %s}}]}]}' % (verdict, lower, upper))


def test_gate_counts_each_kind_of_failure():
    reference = {"CLASSIFY": [["ConclusionHolds", "Frame", 0.5, 2.0]]}
    gate = harness.Gate(reference)
    assert gate.outcome("CLASSIFY", 0, 0.1, _rendered(), None).failure is None
    assert gate.outcome("CLASSIFY", 5, 0.1, _rendered(lower=0.7), None).failure is None
    assert "raised" in gate.outcome("CLASSIFY", 0, 0.1, None, ValueError("x")).failure
    assert "ConclusionFails" in gate.outcome(
        "CLASSIFY", 1, 0.1, _rendered("ConclusionFails"), None).failure
    assert "strict JSON" in gate.outcome(
        "CLASSIFY", 1, 0.1, _rendered(upper="Infinity"), None).failure
    assert "reference" in gate.outcome(
        "CLASSIFY", 0, 0.1, _rendered("HypothesisFails"), None).failure
    assert "reference" in gate.outcome(
        "CLASSIFY", 0, 0.1, _rendered(lower=0.5 + 1e-6), None).failure
    assert gate.outcome("CLASSIFY", 0, 0.1, _rendered(lower=0.5 + 1e-9), None).failure is None


def test_calibration_scales_each_repetition_by_its_local_passes():
    ref = calibrate.REFERENCE_S
    outcomes = [harness.Outcome("CLASSIFY", r, 0.01, "ConclusionHolds", "Frame", 0.5, 2.0, None)
                for r in range(20)]
    # The host runs at the reference speed, then at half of it.
    passes = [ref] * 10 + [2 * ref] * 10
    scaled = [o.seconds for o in run.calibrated(outcomes, passes)]
    assert scaled[:7] == pytest.approx([0.01] * 7)
    assert scaled[13:] == pytest.approx([0.005] * 7)
    assert [o.key() for o in run.calibrated(outcomes, passes)] == [o.key() for o in outcomes]
    assert calibrate.sample() > 0
