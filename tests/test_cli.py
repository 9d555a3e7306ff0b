"""Scenario runner: schema validation, determinism, exit-code contract."""

import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gframes
from gframes import serialize as ser
from gframes.cli import (
    MAX_REPETITIONS,
    load_scenarios,
    main,
    parse_scenario,
    render_csv,
    run_scenario,
)
from gframes.errors import ValidationError
from gframes.registry import THEOREMS, build_and_run, validate_instance

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _basic_scenario(**overrides):
    doc = {
        "schema": 1,
        "name": "classify",
        "theorem": "CLASSIFY",
        "seed": 1,
        "repetitions": 3,
        "instance": {
            "algebra_dim": 2,
            "module_len": 2,
            "member_dims": [2, 2],
            "family_target": "parseval",
        },
    }
    doc.update(overrides)
    return doc


def test_parse_scenario_validation():
    with pytest.raises(ValidationError):
        parse_scenario({"schema": 2, "theorem": "CLASSIFY"})
    with pytest.raises(ValidationError):
        parse_scenario(_basic_scenario(theorem="NOPE"))
    with pytest.raises(ValidationError):
        parse_scenario(_basic_scenario(repetitions=0))
    scenario = parse_scenario(_basic_scenario())
    assert scenario.repetitions == 3


def test_run_scenario_is_deterministic():
    scenario = parse_scenario(_basic_scenario(repetitions=5))
    first = run_scenario(scenario)
    second = run_scenario(scenario)
    assert first.aggregate == second.aggregate
    for a, b in zip(first.reports, second.reports):
        assert ser.report_to_json(a) == ser.report_to_json(b)
    assert sum(first.aggregate.values()) == 5


def test_classify_parseval_reports_parseval_kind():
    scenario = parse_scenario(_basic_scenario(repetitions=10))
    run = run_scenario(scenario)
    kinds = {ser.report_to_json(r)["result_kind"] for r in run.reports}
    assert kinds == {"ParsevalFrame"}


def test_inline_t3_mirrors_classification(tmp_path):
    two = gframes.AdjointableOp(np.array([[2.0 + 0j]]), 1)
    family = gframes.GFrameFamily.of((two,))
    doc = {
        "schema": 1,
        "name": "inline",
        "theorem": "T3_EQUIV",
        "repetitions": 1,
        "instance": {
            "family": ser.family_to_json(family),
            "second_family": ser.family_to_json(family),
            "m": ser.op_to_json(gframes.identity_op(1, 1)),
            "n": ser.op_to_json(gframes.zero_op(1, 1, 1)),
        },
    }
    path = _write(tmp_path, "inline.json", doc)
    report_path = tmp_path / "out.json"
    code = main(["run", path, "--no-timestamp", "--report", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    rep = payload["runs"][0]["reports"][0]
    assert rep["verdict"] == "ConclusionHolds"
    assert rep["details"]["condition_frame"] == 1.0
    assert rep["achieved"]["lower"] == pytest.approx(4.0)


def test_serialization_roundtrip():
    rng = np.random.default_rng(0)
    flat = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    op = gframes.AdjointableOp(flat, 2)
    assert np.array_equal(ser.op_from_json(ser.op_to_json(op)).flat, op.flat)
    # The block and component views are the n-by-n slices of the flattening.
    for n, source_len, target_len in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        op = gframes.AdjointableOp(
            rng.standard_normal((n * source_len, n * target_len)) + 0.5j, n
        )
        assert np.array_equal(ser.op_from_json(ser.op_to_json(op)).flat, op.flat)
        for i in range(source_len):
            for j in range(target_len):
                block = op.flat[i * n : (i + 1) * n, j * n : (j + 1) * n]
                assert np.array_equal(op.blocks[i][j].entries, block)
        vec = gframes.ModuleVector(op.flat[:n])
        for i in range(target_len):
            component = vec.flat[:, i * n : (i + 1) * n]
            assert np.array_equal(vec.components[i].entries, component)
    weights = gframes.gen_weights(1, 2, 3, 0.5, 2.0)
    back = ser.weights_from_json(ser.weights_to_json(weights))
    for a, b in zip(weights.thetas, back.thetas):
        assert np.array_equal(a.entries, b.entries)


@pytest.mark.parametrize(
    "text",
    [
        b'{"schema": 1, "theorem": "CLASSIFY", "seed": ' + b"1" * 5000 + b"}",
        b'{"schema": 1, "theorem": "CLASSIFY", "name": "\xff"}',
    ],
    ids=["integer-past-digit-limit", "not-utf8"],
)
def test_unreadable_scenario_file_exits_2(tmp_path, capsys, text):
    path = tmp_path / "unreadable.json"
    path.write_bytes(text)
    assert main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert "unreadable.json" in err and "Traceback" not in err


def test_malformed_json_gives_line_and_column(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "schema": 1,\n  "oops"\n}\n')
    code = main(["run", str(path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "broken.json:4:1:" in err  # json module points at the delimiter


def test_unknown_theorem_exits_2(tmp_path, capsys):
    path = _write(tmp_path, "bad.json", _basic_scenario(theorem="MYSTERY"))
    assert main(["run", path]) == 2
    assert "MYSTERY" in capsys.readouterr().err


def test_list_theorems(capsys):
    assert main(["--list-theorems"]) == 0
    out = capsys.readouterr().out
    for tid in gframes.TheoremId:
        assert tid.value in out
    for tid in gframes.StabilityId:
        assert tid.value in out
    assert "CLASSIFY" in out


def test_bundled_scenarios_run_clean_and_deterministically(tmp_path):
    files = sorted(str(p) for p in SCENARIO_DIR.glob("*.json"))
    assert files, "bundled scenario files missing"
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", *files, "--no-timestamp", "--report", str(out1)]) == 0
    assert main(["run", *files, "--no-timestamp", "--report", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_seed_override_changes_draws(tmp_path):
    doc = _basic_scenario(repetitions=2, instance={"family_target": "random"})
    path = _write(tmp_path, "seeded.json", doc)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["run", path, "--no-timestamp", "--seed", "1", "--report", str(a)]) == 0
    assert main(["run", path, "--no-timestamp", "--seed", "2", "--report", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_csv_format(tmp_path):
    path = _write(tmp_path, "s.json", _basic_scenario(repetitions=2))
    report = tmp_path / "out.csv"
    assert main(["run", path, "--format", "csv", "--report", str(report)]) == 0
    lines = report.read_text().splitlines()
    assert lines[0] == (
        "scenario,rep,verdict,achieved_lower,achieved_upper,"
        "predicted_lower,predicted_upper"
    )
    assert len(lines) == 3
    assert lines[1].startswith("classify,0,ConclusionHolds,")


def test_conclusion_fails_exits_1(tmp_path):
    # A hypothesis-satisfying instance that violates the weighted-sum
    # claim: opposite-phase unit weights cancel identical families.
    family = gframes.gen_family(
        gframes.GenSpec(5, 2, 2, (2, 2), gframes.FamilyTarget.parseval())
    )
    eye = gframes.identity(2)
    weights = gframes.ScalarWeights(
        (eye,) * family.size, ((-1.0) * eye,) * family.size, 0.5, 2.0
    )
    doc = {
        "schema": 1,
        "name": "cancelling_weights",
        "theorem": "T11_POSITIVE",
        "repetitions": 1,
        "instance": {
            "family": ser.family_to_json(family),
            "second_family": ser.family_to_json(family),
            "weights": ser.weights_to_json(weights),
        },
    }
    path = _write(tmp_path, "fail.json", doc)
    report_path = tmp_path / "out.json"
    code = main(["run", path, "--no-timestamp", "--report", str(report_path)])
    assert code == 1
    payload = json.loads(report_path.read_text())
    assert payload["runs"][0]["aggregate"]["ConclusionFails"] == 1


def test_inline_delta_ops_for_operator_budget(tmp_path):
    family = gframes.gen_family(
        gframes.GenSpec(3, 2, 2, (2, 2), gframes.FamilyTarget.bounds(1.0, 2.0))
    )
    deltas = [
        gframes.compose(gframes.adjoint_op(m), m) for m in family.members
    ]
    doc = {
        "schema": 1,
        "name": "t12_inline",
        "theorem": "T12_OPERATOR",
        "repetitions": 1,
        "instance": {
            "family": ser.family_to_json(family),
            "delta_ops": [ser.op_to_json(o) for o in deltas],
        },
    }
    path = _write(tmp_path, "t12.json", doc)
    report_path = tmp_path / "out.json"
    assert main(["run", path, "--no-timestamp", "--report", str(report_path)]) == 0
    rep = json.loads(report_path.read_text())["runs"][0]["reports"][0]
    assert rep["verdict"] == "ConclusionHolds"
    assert rep["measured_lhs"] <= 1e-12


def test_scenario_list_in_one_file(tmp_path):
    docs = [_basic_scenario(name="a"), _basic_scenario(name="b", seed=9)]
    path = _write(tmp_path, "multi.json", docs)
    scenarios = load_scenarios(path)
    assert [s.name for s in scenarios] == ["a", "b"]


def test_render_csv_blank_predicted_columns():
    scenario = parse_scenario(_basic_scenario(repetitions=1))
    run = run_scenario(scenario)
    text = render_csv([run])
    row = text.splitlines()[1]
    assert row.endswith(",,")


def _inline_pair_instance(key="family"):
    family = gframes.gen_family(
        gframes.GenSpec(1, 1, 2, (2, 2), gframes.FamilyTarget.parseval())
    )
    return {key: ser.family_to_json(family)}


def _op(n, d):
    return ser.op_to_json(gframes.identity_op(n, d))


_IDENTITY_MN = {"m": _op(1, 2), "n": _op(1, 2)}


# JSON forms of the blocks [1], [inf], [1 0] (not square) and the 2x2 identity.
_ONE = [[[1, 0]]]
_INF = [[[1e999, 0]]]
_ROW = [[[1, 0], [0, 0]]]
_EYE2 = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]


_WEIGHTS = {"thetas": [_ONE], "deltas": [_ONE], "band": [0.5, 2]}
# An integer that float() cannot convert.
_HUGE = 10**400


_MALFORMED = [
    # Negative sizes used to loop forever while drawing the module length.
    ("CLASSIFY", {}, {"algebra_dim": -3}, "algebra_dim"),
    ("CLASSIFY", {}, {"algebra_dim": 0}, "algebra_dim"),
    ("CLASSIFY", {}, {"member_dims": [2, 0]}, "member_dims"),
    ("CLASSIFY", {"seed": "abc"}, {}, "seed"),
    ("CLASSIFY", {"seed_stride": 1.5}, {}, "seed_stride"),
    ("CLASSIFY", {}, {"family_target": {"bounds": [1.0]}}, "family_target"),
    ("T7_SCALAR", {}, {"weight_band": [1.0]}, "weight_band"),
    ("TIGHT_SUM", {}, {"alpha1": "two"}, "alpha1"),
    ("TIGHT_SUM", {}, {"alpah1": 2.0}, "alpah1"),
    ("TIGHT_MN", {}, {"mode": "sideways"}, "mode"),
    ("PERTURB_LAMBDA", {}, {"lambda_kind": "huge"}, "lambda_kind"),
    ("TIGHT_SUM", {}, _inline_pair_instance(), "second_family"),
    ("T3_COROLLARY", {}, _inline_pair_instance(), "second_family"),
    ("T11_POSITIVE", {}, _inline_pair_instance(), "second_family"),
    ("ISOMETRY_SUM", {}, _inline_pair_instance(), "second_family"),
    ("TIGHT_MN", {}, _inline_pair_instance(), "second_family"),
    ("PROP_MIXED", {}, _inline_pair_instance(), "second_family"),
    ("THM_DIFFERENCE", {}, _inline_pair_instance(), "second_family"),
    ("LAMBDA_LOWER", {}, dict(_IDENTITY_MN, module_len=2), "lambda_bound"),
    ("TIGHT_MN", {}, {"m": _IDENTITY_MN["m"]}, "n"),
    # Inline matrices: non-finite entries, non-list grids and member lists,
    # and block grids that are ragged, non-square, mixed-size or mislabelled.
    ("CLASSIFY", {}, {"family": {"members": [{"blocks": [[_INF]]}]}}, "blocks"),
    ("T7_SCALAR", {}, {"weights": {"thetas": [_INF], "deltas": [_ONE], "band": [1, 2]}}, "thetas"),
    ("PERTURB_LAMBDA", {}, {"lambda": {"blocks": 5}}, "blocks"),
    ("CLASSIFY", {}, {"family": {"members": 3}}, "members"),
    ("T3_EQUIV", {}, {"m": {"blocks": [[_ONE, _ONE], [_ONE]]}}, "blocks"),
    ("ISOMETRY_SUM", {}, {"lambda": {"blocks": [[_ROW], [_ROW]]}}, "blocks"),
    ("T12_OPERATOR", {}, {"delta_ops": [{"blocks": [[_ONE], [_EYE2]]}]}, "blocks"),
    ("T3_EQUIV", {}, {"n": {"source_len": 2, "blocks": [[_ONE]]}}, "source_len"),
    # Scenario fields: a tolerance must be finite, repetitions not a bool.
    ("CLASSIFY", {"tolerance": {"rel": "nan"}}, {}, "rel"),
    ("CLASSIFY", {"tolerance": {"abs": 1e999}}, {}, "abs"),
    ("CLASSIFY", {"repetitions": True}, {}, "repetitions"),
    # Inline values: a size the family contradicts, a non-numeric band, and
    # decode errors, which name the instance field that holds the value.
    ("CLASSIFY", {}, dict(_inline_pair_instance(), algebra_dim=2), "algebra_dim"),
    ("T7_SCALAR", {}, {"weights": dict(_WEIGHTS, band=["abc", 2])}, "weights"),
    ("T3_EQUIV", {}, {"m": {"blocks": [[_ONE, _ONE], [_ONE]]}}, "m"),
    ("CLASSIFY", {}, {"family": {"members": []}}, "family"),
    ("T7_SCALAR", {}, dict(_inline_pair_instance("second_family"), algebra_dim=2), "algebra_dim"),
    # Numbers beyond the float range, and targets that are not finite.
    ("TIGHT_SUM", {}, {"alpha2": _HUGE}, "alpha2"),
    ("T11_POSITIVE", {}, {"weights": dict(_WEIGHTS, band=[0.5, _HUGE])}, "weights"),
    ("PERTURB_LAMBDA", {"tolerance": {"rel": _HUGE}}, {}, "rel"),
    ("PERTURB_LAMBDA", {}, {"family_target": {"tight": _HUGE}}, "family_target"),
    ("T12_OPERATOR", {}, {"family_target": {"tight": "inf"}}, "family_target"),
    # Sizes above the cap on n*d and n*d_i: beyond numpy's range, beyond the
    # cap alone, and within it one by one but not as a product.
    ("CLASSIFY", {}, {"algebra_dim": _HUGE}, "algebra_dim"),
    ("T3_EQUIV", {}, {"member_dims": [2, _HUGE]}, "member_dims"),
    ("T12_OPERATOR", {}, {"module_len": 10**6}, "module_len"),
    ("CLASSIFY", {}, {"algebra_dim": 8, "module_len": 9}, "module_len"),
    # Inline weights whose member count contradicts the family or a
    # declared size.
    ("PROP_MIXED", {}, dict(_inline_pair_instance(), weights=_WEIGHTS,
                            second_family=_inline_pair_instance()["family"]), "weights"),
    ("T7_SCALAR", {}, {"weights": _WEIGHTS, "member_dims": [1, 2]}, "member_dims"),
    # A reversed or empty weight band, and perturbation coefficients
    # outside (0, 1).
    ("T11_POSITIVE", {}, {"weight_band": [2, 1]}, "weight_band"),
    ("THM_DIFFERENCE", {}, {"weight_band": [1, 1]}, "weight_band"),
    ("PROP_MIXED", {}, {"alpha1": 1.5}, "alpha1"),
    ("THM_DIFFERENCE", {}, {"alpha2": 2.0}, "alpha2"),
    ("T12_OPERATOR", {}, {"delta_ops": []}, "delta_ops"),
]


# (theorem, instance, the field that contradicts, the field that set the
# size it contradicts): inline operators that contradict the family, a size
# field or each other, that do not map a module to itself, or whose count
# differs from the family's member count; weights and a family against a
# size field.
_CONTRADICTIONS = [
    ("PERTURB_LAMBDA", dict(_inline_pair_instance(), **{"lambda": _op(2, 2)}), "lambda", "family"),
    ("LAMBDA_LOWER", dict(_IDENTITY_MN, lambda_bound=0.5, module_len=3), "m", "module_len"),
    ("TIGHT_MN", dict(_IDENTITY_MN, algebra_dim=2), "m", "algebra_dim"),
    ("T3_EQUIV", {"m": _op(1, 2), "n": _op(1, 3)}, "n", "m"),
    ("ISOMETRY_SUM", {"lambda": ser.op_to_json(gframes.zero_op(1, 2, 3))}, "lambda", "lambda"),
    ("T12_OPERATOR", dict(_inline_pair_instance(), delta_ops=[_op(1, 2)] * 3), "delta_ops", "family"),
    ("T7_SCALAR", {"weights": _WEIGHTS, "member_dims": [1, 2]}, "weights", "member_dims"),
    ("CLASSIFY", dict(_inline_pair_instance(), algebra_dim=2), "family", "algebra_dim"),
]


@pytest.mark.parametrize(
    "theorem, doc_fields, instance, field",
    _MALFORMED,
    ids=[f"{case[0]}-{case[3]}" for case in _MALFORMED],
)
def test_malformed_instance_exits_2_and_names_the_field(
    tmp_path, capsys, theorem, doc_fields, instance, field
):
    doc = dict(_basic_scenario(theorem=theorem, repetitions=1, instance=instance))
    doc.update(doc_fields)
    path = _write(tmp_path, "bad.json", doc)
    if instance.get("algebra_dim", 1) < 0:
        # Run in a child process so that a hang fails the test instead
        # of stalling the suite.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-m", "gframes", "run", path],
            capture_output=True, text=True, env=env, timeout=60,
        )
        code, err = done.returncode, done.stderr
    else:
        code, err = main(["run", path]), capsys.readouterr().err
    assert code == 2
    assert repr(field) in err
    assert "Traceback" not in err


@pytest.mark.parametrize("reps", [MAX_REPETITIONS + 1, _HUGE], ids=["cap_plus_one", "huge"])
def test_repetitions_above_the_cap_are_rejected(reps):
    # Rejected while parsing, so that no run loops at the extreme.
    at_cap = parse_scenario(_basic_scenario(repetitions=MAX_REPETITIONS))
    assert at_cap.repetitions == MAX_REPETITIONS
    with pytest.raises(ValidationError, match="'repetitions'"):
        parse_scenario(_basic_scenario(repetitions=reps))


_SUM_SHAPE = [
    "theorem", "verdict", "hypothesis_checks", "predicted_lower", "predicted_upper",
    "achieved", "result_kind", "details",
]
_PERTURBATION_SHAPE = [
    "theorem", "verdict", "alphas", "measured_lhs", "allowed_rhs", "claimed_bounds",
    "achieved", "bound_discrepancy_note", "details",
]


def test_report_keys_keep_their_order_for_every_theorem():
    perturbation = {s.value for s in gframes.StabilityId}
    for theorem in sorted(THEOREMS):
        data = ser.report_to_json(build_and_run(theorem, {}, 0))
        shape = _PERTURBATION_SHAPE if theorem in perturbation else _SUM_SHAPE
        assert list(data) == shape, theorem
        assert list(data["achieved"]) == ["lower", "upper", "tight", "parseval"]
        for check in data.get("hypothesis_checks", []):
            assert list(check) == ["name", "passed", "measured", "limit"]
        assert list(data["details"]) == sorted(data["details"])
        # LAMBDA_LOWER decides its hypotheses spectrally, without samples.
        assert "sampled_lower_gap" not in data["details"], theorem


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_unknown_instance_field_is_rejected_for_every_theorem(theorem):
    with pytest.raises(ValidationError, match="alpah1"):
        build_and_run(theorem, {"alpah1": 2.0}, 0)


@pytest.mark.parametrize(
    "theorem",
    [
        "T3_EQUIV",
        "PERTURB_LAMBDA",
        "LAMBDA_LOWER",
        "T7_SCALAR",
        "T12_OPERATOR",
        "FINAL_COROLLARY",
    ],
)
def test_inline_family_sets_the_sizes_of_generated_companions(theorem):
    # Only the family, or only the second family, is inline: the generated
    # companions must take its sizes, whatever sizes the seed draws.
    instances = [
        _inline_pair_instance(key)
        for key in ("family", "second_family")
        if key in THEOREMS[theorem][2]
    ]
    if theorem == "T7_SCALAR":
        # One-member inline weights fix n and the member count the same way.
        instances.append({"weights": _WEIGHTS})
    for instance in instances:
        for seed in range(10):
            report = build_and_run(theorem, instance, seed)
            assert report.verdict.value != "ConclusionFails"


@pytest.mark.parametrize(
    "theorem, instance, field, source",
    _CONTRADICTIONS,
    ids=[f"{case[0]}-{case[2]}" for case in _CONTRADICTIONS],
)
def test_contradicting_sizes_exit_2_and_name_the_fields(
    tmp_path, capsys, theorem, instance, field, source
):
    doc = _basic_scenario(theorem=theorem, repetitions=1, instance=instance)
    assert main(["run", _write(tmp_path, "bad.json", doc)]) == 2
    err = capsys.readouterr().err
    if source == field:
        assert f"instance field {field!r} gives both " in err
    else:
        assert f"instance field {field!r} gives " in err
        assert f", but {source!r} gives " in err
    # Only the field that set the size is blamed besides.
    assert not [key for key in instance if repr(key) in err and key not in (field, source)]


_PAIR = {"family": _inline_pair_instance()["family"]}
# A second family with the first one's n and d but other member dimensions.
_OTHER_DIMS = ser.family_to_json(
    gframes.gen_family(gframes.GenSpec(2, 1, 2, (1, 3), gframes.FamilyTarget.parseval()))
)


@pytest.mark.parametrize(
    "theorem, instance",
    [
        ("FINAL_COROLLARY", dict(_PAIR, second_family=_OTHER_DIMS)),
        ("T12_OPERATOR", dict(_PAIR, second_family=_OTHER_DIMS)),
        ("T12_OPERATOR", dict(_PAIR, second_family=_OTHER_DIMS, delta_ops=[_op(1, 2)] * 2)),
    ],
)
def test_a_second_family_leaves_the_sizes_to_the_first(theorem, instance):
    # How the two families fit together is the checker's to decide.
    for seed in range(5):
        build_and_run(theorem, instance, seed)


@pytest.mark.parametrize(
    "theorem, key", [("ISOMETRY_SUM", "lambda"), ("PERTURB_LAMBDA", "lambda"), ("T3_EQUIV", "m")]
)
def test_an_inline_operator_fixes_the_sizes_it_carries(theorem, key):
    # The operator alone sets n = 2 and d = 3, whatever sizes the seed draws.
    instance = {key: _op(2, 3)}
    for seed in range(40):
        report = build_and_run(theorem, instance, seed)
        assert report.verdict.value != "ConclusionFails"


def test_inline_families_are_decoded_through_the_serialize_module(monkeypatch):
    # Span tracing rebinds module attributes, so a decoder bound at import
    # time would go uncounted.
    calls = []
    original = ser.family_from_json

    def counting(data):
        calls.append(data)
        return original(data)

    monkeypatch.setattr(ser, "family_from_json", counting)
    family = _inline_pair_instance()["family"]
    build_and_run("T3_COROLLARY", {"family": family, "second_family": family}, 0)
    assert len(calls) == 2


def _counting_decoders(monkeypatch) -> Counter:
    """Calls through the family and operator decoders, by decoder name."""
    calls = Counter()
    for name in ("family_from_json", "op_from_json"):

        def counting(data, _original=getattr(ser, name), _name=name):
            calls[_name] += 1
            return _original(data)

        monkeypatch.setattr(ser, name, counting)
    return calls


def _t3_inline_instance():
    family = _inline_pair_instance()["family"]
    return dict(_IDENTITY_MN, family=family, second_family=family)


def test_decoded_instances_are_read_only():
    op = _IDENTITY_MN["m"]
    cfg = validate_instance("T12_OPERATOR", {"delta_ops": [op, op], "module_len": 2})
    assert isinstance(cfg["delta_ops"], tuple)
    with pytest.raises(TypeError):
        cfg["module_len"] = 3
    with pytest.raises(TypeError):
        cfg["delta_ops"][0] = None
    with pytest.raises(AttributeError):
        cfg["delta_ops"].append(None)


def test_an_inline_scenario_is_decoded_once_for_all_its_repetitions(monkeypatch):
    instance = _t3_inline_instance()
    calls = _counting_decoders(monkeypatch)
    validate_instance("T3_EQUIV", instance)
    # Two families of two members each, plus the m and n operators.
    assert calls == {"family_from_json": 2, "op_from_json": 6}
    once = dict(calls)
    calls.clear()
    scenario = parse_scenario(
        _basic_scenario(theorem="T3_EQUIV", repetitions=10, instance=instance)
    )
    assert not calls
    run = run_scenario(scenario)
    assert len(run.reports) == 10
    assert calls == once


def test_one_repetition_slices_of_a_loaded_scenario_share_one_decode(tmp_path, monkeypatch):
    instance = _t3_inline_instance()
    doc = _basic_scenario(theorem="T3_EQUIV", repetitions=10, instance=instance)
    (scenario,) = load_scenarios(_write(tmp_path, "inline.json", doc))
    calls = _counting_decoders(monkeypatch)
    slices = [run_scenario(replace(scenario, seed=k, repetitions=1)) for k in range(10)]
    assert calls == {"family_from_json": 2, "op_from_json": 6}
    got = [ser.report_to_json(run.reports[0]) for run in slices]
    want = [ser.report_to_json(build_and_run("T3_EQUIV", instance, k)) for k in range(10)]
    assert got == want


def test_a_replaced_theorem_or_instance_is_decoded_afresh(monkeypatch):
    family = _inline_pair_instance()["family"]
    pair = {"family": family, "second_family": family}
    scenario = parse_scenario(
        _basic_scenario(theorem="T3_COROLLARY", repetitions=3, instance=pair)
    )
    first = [ser.report_to_json(r) for r in run_scenario(scenario).reports]
    doubled = ser.family_to_json(gframes.scale_family(ser.family_from_json(family), 2.0))
    calls = _counting_decoders(monkeypatch)
    for changed in (
        replace(scenario, instance=dict(pair, second_family=doubled)),
        replace(scenario, theorem="TIGHT_SUM"),
    ):
        calls.clear()
        got = [ser.report_to_json(r) for r in run_scenario(changed).reports]
        assert calls["family_from_json"] == 2
        want = [
            ser.report_to_json(build_and_run(changed.theorem, changed.instance, seed))
            for seed in range(changed.seed, changed.seed + 3)
        ]
        assert got == want != first


def test_a_malformed_instance_exits_2_before_any_report(tmp_path, capsys):
    good = _write(tmp_path, "good.json", _basic_scenario())
    bad_instance = {"family": {"members": []}}
    bad = _write(
        tmp_path, "bad.json", _basic_scenario(repetitions=5, instance=bad_instance)
    )
    assert main(["run", good, bad]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    with pytest.raises(ValidationError) as raised:
        validate_instance("CLASSIFY", bad_instance)
    assert err == f"error: {raised.value}\n"


def _inline_instance(theorem: str) -> dict:
    """The inline family, second family and weights that ``theorem`` accepts;
    the families are tight, as TIGHT_SUM and TIGHT_MN require."""
    family = gframes.gen_family(
        gframes.GenSpec(3, 1, 2, (2, 2), gframes.FamilyTarget.parseval())
    )
    values = {
        "family": ser.family_to_json(family),
        "second_family": ser.family_to_json(gframes.scale_family(family, 0.99)),
        "weights": ser.weights_to_json(gframes.gen_weights(4, 1, 2, 0.9, 1.1)),
    }
    return {k: v for k, v in values.items() if k in THEOREMS[theorem][2]}


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_repetitions_sharing_a_decode_report_what_fresh_runs_report(theorem):
    for instance in ({}, _inline_instance(theorem)):
        for seed in range(5):
            doc = _basic_scenario(theorem=theorem, seed=seed, repetitions=3, instance=instance)
            run = run_scenario(parse_scenario(doc))
            got = [json.dumps(ser.report_to_json(r)) for r in run.reports]
            want = [
                json.dumps(ser.report_to_json(build_and_run(theorem, instance, s)))
                for s in range(seed, seed + 3)
            ]
            assert got == want


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_reports_are_strict_json_with_null_for_non_finite(tmp_path):
    # A rank-deficient (Bessel-only) family: its lower bound is zero, so
    # the inverse and contraction norms and a claimed bound are infinite.
    member = gframes.AdjointableOp(np.array([[1.0 + 0j], [0.0 + 0j]]), 1)
    family = ser.family_to_json(gframes.GFrameFamily.of((member,)))
    doc = _basic_scenario(
        theorem="T12_OPERATOR",
        repetitions=1,
        instance={"family": family, "second_family": family},
    )
    report_path = tmp_path / "out.json"
    assert main(["run", _write(tmp_path, "t12.json", doc), "--no-timestamp",
                 "--report", str(report_path)]) == 0
    payload = json.loads(report_path.read_text(), parse_constant=_reject_constant)
    rep = payload["runs"][0]["reports"][0]
    assert rep["verdict"] == "HypothesisFails"
    assert rep["claimed_bounds"][0] is None
    assert rep["details"]["contraction_norm"] is None
    assert rep["details"]["inverse_norm"] is None
