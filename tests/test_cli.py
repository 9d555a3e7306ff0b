"""Scenario runner: schema validation, determinism, exit-code contract."""

import ast
import errno
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import gframes
from gframes import registry
from oracles import walk_report_to_json
from gframes import serialize as ser
from gframes.cli import (
    MAX_REPETITIONS,
    RunReport,
    Scenario,
    load_scenarios,
    main,
    parse_scenario,
    render_csv,
    render_json,
    run_scenario,
)
from gframes.errors import ValidationError
from gframes._rand import make_rng
from gframes.registry import THEOREMS, _sizes, build_and_run, validate_instance

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
        b'{"schema": 1, "theorem": "CLASSIFY", "instance": {"family": '
        + b"[" * 100_000 + b"]" * 100_000 + b"}}",
    ],
    ids=["integer-past-digit-limit", "not-utf8", "nested-past-recursion-limit"],
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
    for tid in registry.THEOREMS:
        assert tid in out


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
    checks = {c["name"]: c for c in rep["hypothesis_checks"]}
    assert checks["subset_sup_within_budget"]["measured"] <= 1e-12


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
    # A JSON bool is no number, alone or beside numbers that numpy would
    # turn it into.
    ("FINAL_COROLLARY", {}, {"family": {"members": [{"blocks": [[[[[True, False]]]]]}]}},
     "blocks"),
    ("T7_SCALAR", {}, {"family": {"members": [{"blocks": [[[[[1.0, True]]]]]}]}}, "blocks"),
    ("T11_POSITIVE", {}, dict(_inline_pair_instance(), weights=dict(_WEIGHTS, thetas=[[[[True, 0]]]]),
                              second_family=_inline_pair_instance()["family"]), "thetas"),
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
    # Scenario and tolerance keys that are misspelt, tolerances that are not
    # JSON numbers, and a name that is not a string.
    ("CLASSIFY", {"repititions": 50}, {}, "repititions"),
    ("CLASSIFY", {"sead": 7}, {}, "sead"),
    ("CLASSIFY", {"tolerance": {"rell": 0.5}}, {}, "rell"),
    ("T12_OPERATOR", {"tolerance": {"rel": "1e-6"}}, {}, "rel"),
    ("T12_OPERATOR", {"tolerance": {"abs": True}}, {}, "abs"),
    ("CLASSIFY", {"name": {"a": [1, 2]}}, {}, "name"),
    # A lone surrogate, which JSON can escape but UTF-8 cannot encode.
    ("TIGHT_SUM", {"name": "a\ud800b"}, {}, "name"),
    # Theorem ids that cannot be hashed, and so cannot be looked up.
    ("CLASSIFY", {"theorem": []}, {}, "theorem"),
    ("CLASSIFY", {"theorem": {}}, {}, "theorem"),
    # Finite numbers that overflow in the products the checker forms.
    ("TIGHT_MN", {}, {"alpha1": sys.float_info.max}, "alpha1"),
    ("T3_EQUIV", {}, {"second_family_target": {"bounds": [1, sys.float_info.max]}},
     "second_family_target"),
    # Every object accepts only its declared keys, and the size labels of a
    # family or an operator must agree with its contents; a band has two
    # entries, and a family target object holds one form.
    ("CLASSIFY", {}, {"family": dict(_inline_pair_instance()["family"], source_len=5)},
     "source_len"),
    ("T3_EQUIV", {}, {"m": dict(_IDENTITY_MN["m"], colour=1)}, "colour"),
    ("CLASSIFY", {}, {"family": dict(_inline_pair_instance()["family"], colour=1)}, "colour"),
    ("T7_SCALAR", {}, {"weights": dict(_WEIGHTS, colour=1)}, "colour"),
    ("T7_SCALAR", {}, {"weights": dict(_WEIGHTS, band=[0.5, 2, 3])}, "band"),
    ("LAMBDA_LOWER", {}, {"family_target": {"tight": 2, "bounds": [1, 2]}}, "family_target"),
    ("FINAL_COROLLARY", {}, {"family_target": {"tight": 2, "x": 1}}, "x"),
]


# (theorem, instance, the field that contradicts, the field that set the
# size it contradicts, the whole error line): inline operators that
# contradict the family, a size field or each other, that do not map a
# module to itself, or whose count differs from the family's member count;
# weights and a family against a size field.
_CONTRADICTIONS = [
    ("PERTURB_LAMBDA", dict(_inline_pair_instance(), **{"lambda": _op(2, 2)}), "lambda", "family",
     "error: instance field 'lambda' gives n = 2, but 'family' gives n = 1"),
    ("LAMBDA_LOWER", dict(_IDENTITY_MN, lambda_bound=0.5, module_len=3), "m", "module_len",
     "error: instance field 'm' gives d = 2, but 'module_len' gives d = 3"),
    ("TIGHT_MN", dict(_IDENTITY_MN, algebra_dim=2), "m", "algebra_dim",
     "error: instance field 'm' gives n = 1, but 'algebra_dim' gives n = 2"),
    ("T3_EQUIV", {"m": _op(1, 2), "n": _op(1, 3)}, "n", "m",
     "error: instance field 'n' gives d = 3, but 'm' gives d = 2"),
    ("ISOMETRY_SUM", {"lambda": ser.op_to_json(gframes.zero_op(1, 2, 3))}, "lambda", "lambda",
     "error: instance field 'lambda' gives both d = 2 and d = 3"),
    ("T12_OPERATOR", dict(_inline_pair_instance(), delta_ops=[_op(1, 2)] * 3), "delta_ops",
     "family",
     "error: instance field 'delta_ops' gives members = 3, but 'family' gives members = 2"),
    ("T7_SCALAR", {"weights": _WEIGHTS, "member_dims": [1, 2]}, "weights", "member_dims",
     "error: instance field 'weights' gives members = 1, but 'member_dims' gives members = 2"),
    ("CLASSIFY", dict(_inline_pair_instance(), algebra_dim=2), "family", "algebra_dim",
     "error: instance field 'family' gives n = 1, but 'algebra_dim' gives n = 2"),
]


def _child(args, stdout=subprocess.PIPE, **env):
    """``python -m gframes`` on ``args`` in a child process that imports
    this checkout, with ``env`` added to its environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, **env}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gframes", *args],
        stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
    )


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
        done = _child(["run", path])
        code, err = done.returncode, done.stderr
    else:
        code, err = main(["run", path]), capsys.readouterr().err
    assert code == 2
    assert repr(field) in err
    assert "Traceback" not in err


def test_families_of_other_member_dims_exit_2_without_a_traceback(tmp_path, capsys):
    family = gframes.gen_family(gframes.GenSpec(1, 1, 2, (2, 2)))
    other = gframes.gen_family(gframes.GenSpec(2, 1, 2, (1, 3)))
    instance = {"family": ser.family_to_json(family), "second_family": ser.family_to_json(other)}
    doc = _basic_scenario(theorem="T3_COROLLARY", repetitions=1, instance=instance)
    code = main(["run", _write(tmp_path, "dims.json", doc)])
    err = capsys.readouterr().err
    assert code == 2
    assert "DimensionMismatch: families are not index-compatible" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("reps", [MAX_REPETITIONS + 1, _HUGE], ids=["cap_plus_one", "huge"])
def test_repetitions_above_the_cap_are_rejected(reps):
    # Rejected while parsing, so that no run loops at the extreme.
    at_cap = parse_scenario(_basic_scenario(repetitions=MAX_REPETITIONS))
    assert at_cap.repetitions == MAX_REPETITIONS
    with pytest.raises(ValidationError, match="'repetitions'"):
        parse_scenario(_basic_scenario(repetitions=reps))


_REPORT_SHAPE = [
    "theorem", "verdict", "hypothesis_checks", "predicted_lower", "predicted_upper",
    "achieved", "result_kind", "details",
]


def test_report_keys_keep_their_order_for_every_theorem():
    for theorem in sorted(THEOREMS):
        data = ser.report_to_json(build_and_run(theorem, {}, 0))
        assert list(data) == _REPORT_SHAPE, theorem
        assert list(data["achieved"]) == ["lower", "upper", "tight", "parseval"]
        for check in data["hypothesis_checks"]:
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
    "theorem, instance, field, source, line",
    _CONTRADICTIONS,
    ids=[f"{case[0]}-{case[2]}" for case in _CONTRADICTIONS],
)
def test_contradicting_sizes_exit_2_and_name_the_fields(
    tmp_path, capsys, theorem, instance, field, source, line
):
    # The whole message, byte for byte: the field, and only the field that
    # set the size besides, in the "both ..." form when they are one.
    doc = _basic_scenario(theorem=theorem, repetitions=1, instance=instance)
    assert main(["run", _write(tmp_path, "bad.json", doc)]) == 2
    assert capsys.readouterr().err == line + "\n"
    assert (f"'{field}' gives both " in line) == (source == field)


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
    ],
)
def test_a_second_family_leaves_the_sizes_to_the_first(theorem, instance):
    # How the two families fit together is the checker's to decide.
    for seed in range(5):
        build_and_run(theorem, instance, seed)


@pytest.mark.parametrize("family", [{}, _PAIR])
def test_a_t12_instance_with_a_second_family_and_deltas_exits_2(tmp_path, capsys, family):
    # T12's deltas are either the second family's operators or inline:
    # given both, the run would read the deltas alone.
    instance = dict(family, second_family=_OTHER_DIMS, delta_ops=[_op(1, 2)] * 2)
    doc = _basic_scenario(theorem="T12_OPERATOR", repetitions=1, instance=instance)
    assert main(["run", _write(tmp_path, "t12.json", doc)]) == 2
    assert capsys.readouterr().err == (
        "error: instance fields 'second_family' and 'delta_ops' each give"
        " the T12_OPERATOR deltas: give one of them\n"
    )


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
    values = cfg.values
    assert isinstance(values["delta_ops"], tuple)
    with pytest.raises(TypeError):
        values["module_len"] = 3
    with pytest.raises(TypeError):
        values["delta_ops"][0] = None
    with pytest.raises(AttributeError):
        values["delta_ops"].append(None)
    with pytest.raises(AttributeError):
        cfg.values = {}
    # Each size from the first field that fixes it.
    assert cfg.fixed == {"d": 2, "n": 1, "members": 2}
    assert cfg.setters == {"d": "module_len", "n": "delta_ops", "members": "delta_ops"}
    # A field that fixes the member dims fixes the count too.
    cfg = validate_instance("T7_SCALAR", {"member_dims": [3], "weights": _WEIGHTS})
    assert cfg.fixed == {"dims": (3,), "members": 1, "n": 1}
    assert cfg.setters == {"dims": "member_dims", "members": "member_dims", "n": "weights"}


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
    assert rep["details"]["claimed_lower"] is None
    assert rep["details"]["contraction_norm"] is None
    assert rep["details"]["inverse_norm"] is None


def test_sizes_that_an_inline_family_fixes_are_not_drawn():
    cfg = validate_instance("T3_EQUIV", _inline_pair_instance())
    for seed in range(5):
        rng = make_rng(seed)
        assert _sizes(cfg, rng, min_flat=2) == (1, 2, (2, 2))
        assert repr(rng.bit_generator.state) == repr(make_rng(seed).bit_generator.state)


# _MALFORMED cases that hold some but not all fields of a group that must
# come together.
_PARTIAL_GROUPS = [
    case
    for case in _MALFORMED
    if any(0 < len(set(group) & set(case[2])) < len(group) for group in THEOREMS[case[0]][3])
]


@pytest.mark.parametrize(
    "theorem, instance, field",
    [case[:3] for case in _CONTRADICTIONS] + [(t, i, f) for t, _, i, f in _PARTIAL_GROUPS],
    ids=[f"{case[0]}-{case[2]}" for case in _CONTRADICTIONS]
    + [f"{case[0]}-{case[3]}" for case in _PARTIAL_GROUPS],
)
def test_instance_rules_are_checked_at_decode(theorem, instance, field):
    with pytest.raises(ValidationError, match=repr(field)):
        validate_instance(theorem, instance)


def test_the_partial_group_cases_cover_every_kind_of_group():
    assert {case[3] for case in _PARTIAL_GROUPS} >= {"second_family", "n", "lambda_bound"}


@pytest.mark.parametrize(
    "theorem, instance, seeds, fields",
    [
        ("T7_SCALAR", {"algebra_dim": 1, "module_len": 1}, (0, 1, 2),
         ("algebra_dim", "module_len")),
        ("ISOMETRY_SUM", {"lambda": _op(1, 1)}, (0, 2), ("lambda",)),
        ("CLASSIFY", {"module_len": 3, "member_dims": [1]}, (0, 1, 2),
         ("module_len", "member_dims")),
    ],
)
def test_sizes_too_small_for_the_generator_name_their_fields(theorem, instance, seeds, fields):
    validate_instance(theorem, instance)
    for seed in seeds:
        with pytest.raises(ValidationError) as raised:
            build_and_run(theorem, instance, seed)
        message = str(raised.value)
        assert message.startswith(f"the sizes fixed by {', '.join(map(repr, fields))} ")
        assert theorem in message


def test_a_one_by_one_family_still_runs_beside_generated_or_inline_companions():
    family = gframes.gen_family(
        gframes.GenSpec(3, 1, 1, (1, 1), gframes.FamilyTarget.random())
    )
    weights = gframes.gen_weights(4, 1, 2, 0.9, 1.1)
    alone = {"family": ser.family_to_json(family)}
    inline = dict(
        alone,
        second_family=ser.family_to_json(gframes.scale_family(family, 0.5)),
        weights=ser.weights_to_json(weights),
    )
    for instance in (alone, inline):
        for seed in range(3):
            build_and_run("T7_SCALAR", instance, seed)


def _counting_generators(monkeypatch) -> list:
    """The seeds of the generators the registry keys, in order."""
    seeds = []

    def counting(seed):
        seeds.append(seed)
        return make_rng(seed)

    monkeypatch.setattr(registry, "make_rng", counting)
    return seeds


@pytest.mark.parametrize(
    "theorem, instance",
    [
        ("CLASSIFY", _PAIR),
        ("T12_OPERATOR", dict(_PAIR, delta_ops=[_op(1, 2), _op(1, 2)])),
        ("T3_COROLLARY", dict(_PAIR, second_family=_PAIR["family"])),
    ],
)
def test_a_fully_inline_repetition_builds_no_generator(monkeypatch, theorem, instance):
    seeds = _counting_generators(monkeypatch)
    for seed in range(10):
        build_and_run(theorem, instance, seed)
    assert seeds == []


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_a_generated_repetition_builds_its_seeds_generator(monkeypatch, theorem):
    seeds = _counting_generators(monkeypatch)
    for seed in range(10):
        build_and_run(theorem, {}, seed)
        assert seeds[-1:] == [seed]
    assert len(seeds) == 10


def test_an_inline_lambda_leaves_perturb_lambda_drawing_nothing(monkeypatch):
    def refuse(seed):
        raise AssertionError(f"a generator was keyed with seed {seed}")

    monkeypatch.setattr(registry, "make_rng", refuse)
    instance = dict(_PAIR, **{"lambda": _op(1, 2)})
    for seed in range(10):
        build_and_run("PERTURB_LAMBDA", instance, seed)


@pytest.mark.parametrize(
    "theorem, key",
    [
        ("CLASSIFY", "family_target"),
        ("T3_EQUIV", "family_target"),
        ("T3_EQUIV", "second_family_target"),
    ],
)
def test_a_bounds_target_is_never_drawn_a_one_dimensional_flattening(theorem, key):
    for seed in range(40):
        report = build_and_run(theorem, {key: {"bounds": [1, 2]}}, seed)
        assert report.verdict.value in ("ConclusionHolds", "HypothesisFails")


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_an_inline_family_that_overflows_exits_2_and_names_the_field(tmp_path, capsys, theorem):
    # Finite entries near 1e160 overflow in the frame operator T*T.
    instance = _inline_instance(theorem)
    family = ser.family_from_json(instance["family"])
    instance["family"] = ser.family_to_json(gframes.scale_family(family, 1e160))
    doc = _basic_scenario(theorem=theorem, repetitions=1, instance=instance)
    code = main(["run", _write(tmp_path, "huge.json", doc)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "'family'" in err and "too large" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("k", [-60, -40, -20, 20, 40, 60])
def test_classify_reads_a_scaled_parseval_family_as_tight(k):
    parseval = gframes.gen_family(
        gframes.GenSpec(1, 2, 2, (2, 3), gframes.FamilyTarget.parseval())
    )
    base = build_and_run("CLASSIFY", {"family": ser.family_to_json(parseval)}, 0)
    assert base.result_kind == "ParsevalFrame"
    # A power of two scales every product exactly, short of under- or overflow.
    scaled = gframes.scale_family(parseval, 2.0**k)
    report = build_and_run("CLASSIFY", {"family": ser.family_to_json(scaled)}, 0)
    assert report.result_kind == "TightFrame"
    for got, want in ((report.achieved.lower, base.achieved.lower),
                      (report.achieved.upper, base.achieved.upper)):
        assert abs(got - 4.0**k * want) <= 1e-12 * 4.0**k * want


def _default_reports():
    runs = [
        run_scenario(parse_scenario(_basic_scenario(theorem=theorem, seed=seed,
                                                    repetitions=1, instance={})))
        for theorem in sorted(THEOREMS)
        for seed in range(10)
    ]
    return render_json(runs, with_timing=False), render_csv(runs)


def test_trusted_kernel_results_change_no_report(monkeypatch):
    # The same reports when every kernel result goes through the checking
    # public constructor instead of the trusted wrap.
    shipped = _default_reports()
    trusted = gframes.hilbert._op
    checked = []

    def checking(arr, n):
        checked.append(n)
        return gframes.AdjointableOp(arr, n)

    for name, module in list(sys.modules.items()):
        if name.startswith("gframes") and getattr(module, "_op", None) is trusted:
            monkeypatch.setattr(module, "_op", checking)
    assert _default_reports() == shipped
    # The checkers wrap each product chain once, so the wraps are counted
    # per theorem: every theorem's default run still passes through one.
    for theorem in sorted(THEOREMS):
        checked.clear()
        build_and_run(theorem, {}, 0)
        assert checked, theorem


@pytest.mark.parametrize("seed", range(5))
def test_a_huge_budget_fraction_exits_2_and_names_the_field(tmp_path, capsys, seed):
    # Python float arithmetic overflows without a numpy flag; the budget is
    # a numpy float, so the runner's overflow guard sees it.
    doc = _basic_scenario(theorem="T12_OPERATOR", seed=seed, repetitions=1,
                          instance={"budget_fraction": sys.float_info.max})
    code = main(["run", _write(tmp_path, "budget.json", doc), "--no-timestamp"])
    err = capsys.readouterr().err
    assert code in (0, 2)
    assert "Traceback" not in err
    if code == 2:
        assert "'budget_fraction'" in err


def _hand_made_reports():
    """A sum report and a perturbation report holding numpy scalars,
    non-finite floats and nested tuples; the perturbation report has no
    predicted bounds or result kind, and claimed constants in its details."""
    bounds = gframes.FrameBounds(np.float64(0.5), math.inf, np.bool_(False), False)
    checks = (
        gframes.CheckItem("numpy", np.bool_(True), np.float64(-0.0), math.nan),
        gframes.CheckItem("bare", False),
    )
    details = {"z": np.float64(math.nan), "a": (1.0, (np.float32(2.5), [math.inf, -math.inf]))}
    verdict = gframes.Verdict.CONCLUSION_HOLDS
    return (
        gframes.TheoremReport("HAND_SUM", bounds, verdict, checks, np.float64(math.inf), 1,
                              "Frame", details=details),
        gframes.TheoremReport(
            "HAND_PERTURBATION", bounds, verdict,
            (gframes.CheckItem("within", np.bool_(False), math.nan, np.float64(-math.inf)),),
            details={**details, "claimed_lower": math.inf, "claimed_upper": np.float64(1.0)},
        ),
    )


def test_report_encoding_is_the_dataclass_walk():
    reports = [build_and_run(theorem, {}, seed) for theorem in sorted(THEOREMS) for seed in range(10)]
    for report in reports + list(_hand_made_reports()):
        # repr shows key order and value types as well as values.
        assert repr(ser.report_to_json(report)) == repr(walk_report_to_json(report))


def test_csv_writes_a_non_finite_bound_as_an_empty_cell():
    # JSON writes each of these bounds as null, and CSV leaves its cell
    # empty, whether the bound is achieved or predicted.
    run = RunReport(Scenario("hand", "CLASSIFY"), list(_hand_made_reports()), 0.0)
    assert render_csv([run]).splitlines()[1:] == [
        "hand,0,ConclusionHolds,0.5,,,1.0",
        "hand,1,ConclusionHolds,0.5,,,",
    ]


def test_rendering_never_encodes_a_report_twice(monkeypatch):
    # Each report is written straight from its TheoremReport, so neither
    # format goes through report_to_json's parsed form.
    def refuse(report):
        raise AssertionError("report_to_json called while rendering")

    encode = ser.report_to_json
    for name, module in list(sys.modules.items()):
        if name.startswith("gframes") and getattr(module, "report_to_json", None) is encode:
            monkeypatch.setattr(module, "report_to_json", refuse)
    runs = [
        run_scenario(parse_scenario(_basic_scenario(theorem=theorem, repetitions=2, instance={})))
        for theorem in sorted(THEOREMS)
    ]
    runs.append(RunReport(Scenario("hand", "CLASSIFY"), list(_hand_made_reports()), 0.0))
    assert render_json(runs, with_timing=True) and render_csv(runs)


def test_render_json_writes_the_whole_document_through_the_one_writer(monkeypatch):
    # The runner hands json_text one Document holding its RunReports, and
    # the text is that document's, key for key as json.dumps writes it.
    documents = []

    def recording(value, *args):
        documents.append(value)
        return ser.json_text(value, *args)

    monkeypatch.setattr(gframes.cli, "json_text", recording)
    run = run_scenario(parse_scenario(_basic_scenario()))
    text = render_json([run], with_timing=True)
    (document,) = documents
    assert isinstance(document, ser.Document) and document.runs == [run]
    assert text == ser.json_text(document) + "\n"
    written = json.loads(text)
    assert list(written) == ["schema", "generated_at", "runs"]
    assert written["generated_at"] == document.generated_at
    (entry,) = written["runs"]
    assert entry["reports"] == [ser.report_to_json(report) for report in run.reports]
    assert entry["aggregate"] == run.aggregate and entry["wall_time_s"] == run.wall_time_s
    assert text == json.dumps(written, indent=2, allow_nan=False) + "\n"


def _scalar_writers(node, owner: str) -> list:
    """The function, by name, around each place below ``node`` that writes
    a JSON scalar's text itself: ``float.__repr__``, or a "null", "true"
    or "false" literal."""
    if isinstance(node, ast.FunctionDef):
        owner = f"{owner.partition('.')[0]}.{node.name}"
    is_repr = (isinstance(node, ast.Attribute) and node.attr == "__repr__"
               and getattr(node.value, "id", None) == "float")
    literal = isinstance(node, ast.Constant) and node.value in ("null", "true", "false")
    found = [owner] if is_repr or literal else []
    for child in ast.iter_child_nodes(node):
        found += _scalar_writers(child, owner)
    return found


def test_serialize_holds_the_only_json_text_writer():
    # No other module imports the JSON string encoder, the one function in
    # the package that calls itself is the writer's walk, and the one
    # function that writes a float, a null or a bool is ``json_text``.
    importers, recursive, scalars = [], [], set()
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "gframes").glob("*.py")):
        tree = ast.parse(path.read_text())
        importers += [
            path.stem
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "json.encoder"
        ]
        recursive += [
            f"{path.stem}.{function.name}"
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef)
            and any(
                isinstance(node, ast.Call) and getattr(node.func, "id", None) == function.name
                for node in ast.walk(function)
            )
        ]
        scalars.update(_scalar_writers(tree, path.stem))
    assert importers == ["serialize"]
    assert recursive == ["serialize._write"]
    assert scalars == {"serialize.json_text"}


# Values JSON lacks, among them a str subclass that the exact-type rule
# rejects, and numpy scalars that are written as their ``item()``.
_NOT_JSON = [object(), 1j, np.complex128(1j), {1, 2}, gframes.Verdict.CONCLUSION_HOLDS]
_NUMPY_SCALARS = [np.bool_(True), np.bool_(False), np.int64(-7), np.float32(0.1)]


@pytest.mark.parametrize("nest", [lambda v: v, lambda v: {"k": v}, lambda v: [1, v],
                                  lambda v: (v,), lambda v: {"a": [{"b": (v,)}]}],
                         ids=["top", "dict", "list", "tuple", "deep"])
def test_the_json_writer_takes_only_json_types_at_every_depth(nest):
    for value in _NOT_JSON:
        with pytest.raises(TypeError, match="is not JSON serializable"):
            ser.json_text(nest(value))
    for value in _NUMPY_SCALARS:
        assert ser.json_text(nest(value)) == json.dumps(nest(value.item()), indent=2)


def _nonorthogonal_parseval_pair(seed):
    """Two Parseval families with a non-zero mixed operator."""
    return tuple(
        gframes.gen_family(gframes.GenSpec(s, 2, 2, (2, 2, 2), gframes.FamilyTarget.parseval()))
        for s in (seed, seed + 100)
    )


def _scaled_pair_instance(seed, k):
    # A power of two scales every product exactly, short of under- or overflow.
    return {
        key: ser.family_to_json(gframes.scale_family(family, 2.0**k))
        for key, family in zip(("family", "second_family"), _nonorthogonal_parseval_pair(seed))
    }


@pytest.mark.parametrize("theorem", ["TIGHT_SUM", "TIGHT_MN"])
@pytest.mark.parametrize("seed", range(3))
def test_a_tight_pair_reads_the_same_at_every_scale(theorem, seed):
    def outcome(k):
        report = build_and_run(theorem, _scaled_pair_instance(seed, k), 0)
        return report.verdict, [check.passed for check in report.hypothesis_checks]

    base = outcome(0)
    assert base[0] is gframes.Verdict.HYPOTHESIS_FAILS
    for k in (-60, -40, -20, 20, 40, 60):
        assert outcome(k) == base, k


def test_a_tight_pair_far_below_unit_scale_exits_0(tmp_path):
    doc = _basic_scenario(theorem="TIGHT_SUM", repetitions=1, instance=_scaled_pair_instance(0, -40))
    report_path = tmp_path / "out.json"
    code = main(["run", _write(tmp_path, "tiny.json", doc), "--no-timestamp",
                 "--report", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["runs"][0]["aggregate"]["HypothesisFails"] == 1


def _orthogonal_tight_pair_instance(seed, k):
    # A power of two scales every product exactly, short of under- or overflow.
    pair = gframes.gen_orthogonal_pair(
        gframes.GenSpec(seed, 2, 2, (2, 2, 2, 2), gframes.FamilyTarget.parseval())
    )
    return {
        key: ser.family_to_json(gframes.scale_family(family, 2.0**k))
        for key, family in zip(("family", "second_family"), pair)
    }


@pytest.mark.parametrize("seed", range(3))
def test_tight_mn_holds_for_an_orthogonal_pair_at_every_scale(seed):
    # Run seed 0 draws scalar multiples of unitaries for M and N, so the
    # combination is a multiple of the identity and the sum is tight.
    for k in (-60, -40, -20, 0, 20, 40, 60):
        report = build_and_run("TIGHT_MN", _orthogonal_tight_pair_instance(seed, k), 0)
        assert report.verdict is gframes.Verdict.CONCLUSION_HOLDS, k
        assert report.details["condition_holds"] == 1.0, k


def test_a_tight_mn_pair_far_below_unit_scale_exits_0(tmp_path):
    instance = _orthogonal_tight_pair_instance(0, -40)
    doc = _basic_scenario(theorem="TIGHT_MN", repetitions=1, instance=instance)
    report_path = tmp_path / "out.json"
    code = main(["run", _write(tmp_path, "tiny.json", doc), "--no-timestamp",
                 "--report", str(report_path)])
    assert code == 0
    payload = json.loads(report_path.read_text())
    assert payload["runs"][0]["aggregate"]["ConclusionHolds"] == 1


@pytest.mark.parametrize(
    "key", ["name", "seed", "seed_stride", "repetitions", "tolerance", "instance"]
)
def test_a_null_scenario_field_reads_as_absent(key):
    bare = {"schema": 1, "theorem": "CLASSIFY"}
    assert parse_scenario(dict(bare, **{key: None})) == parse_scenario(bare)


def test_a_null_tolerance_field_reads_as_absent():
    doc = {"schema": 1, "theorem": "CLASSIFY", "tolerance": {"rel": None, "abs": 0.5}}
    assert parse_scenario(doc).tolerance == gframes.Tolerance(abs=0.5)


def _encoded(value):
    """The JSON form of one decoded instance value."""
    if isinstance(value, gframes.GFrameFamily):
        return ser.family_to_json(value)
    if isinstance(value, gframes.AdjointableOp):
        return ser.op_to_json(value)
    if isinstance(value, gframes.ScalarWeights):
        return ser.weights_to_json(value)
    if isinstance(value, tuple):
        return [_encoded(item) for item in value]
    return value


def _reencoded(theorem, instance):
    values = validate_instance(theorem, instance).values
    return {key: _encoded(value) for key, value in values.items()}


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_captured_bench_instances_decode_and_reencode_identically(monkeypatch, theorem):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    for sizes, seed in ({}, 1), workloads.inline_source(theorem, np.random.default_rng(5)):
        instance = workloads.capture_instance(theorem, sizes, seed)
        assert _reencoded(theorem, instance) == instance


@pytest.mark.parametrize("name", ["t3_inline_identity.json", "t7_inline_family.json"])
def test_bundled_inline_scenarios_decode_and_reencode_identically(name):
    (scenario,) = load_scenarios(str(SCENARIO_DIR / name))
    assert _reencoded(scenario.theorem, scenario.instance) == scenario.instance


# One value of each JSON type; a field is given each value its kind rejects.
_JSON_SAMPLES = ("text", True, 1.5, 7, [7], {"k": 7})
_OBJECT_TABLES = {
    # table: (its declared fields, the scenario document that holds a value)
    "scenario": (
        gframes.cli._SCENARIO_FIELDS,
        lambda key, value: dict(_basic_scenario(repetitions=1), **{key: value}),
    ),
    "tolerance": (
        gframes.cli._TOLERANCE_FIELDS,
        lambda key, value: _basic_scenario(repetitions=1, tolerance={key: value}),
    ),
    "operator": (
        ser._OPERATOR_FIELDS,
        lambda key, value: _basic_scenario(
            theorem="T3_EQUIV", repetitions=1, instance={"m": dict(_IDENTITY_MN["m"], **{key: value})}
        ),
    ),
    "family": (
        ser._FAMILY_FIELDS,
        lambda key, value: _basic_scenario(
            repetitions=1, instance={"family": dict(_inline_pair_instance()["family"], **{key: value})}
        ),
    ),
    "weights": (
        ser._WEIGHTS_FIELDS,
        lambda key, value: _basic_scenario(
            theorem="T7_SCALAR", repetitions=1, instance={"weights": dict(_WEIGHTS, **{key: value})}
        ),
    ),
    "family_target": (
        registry._TARGET_FIELDS,
        lambda key, value: _basic_scenario(repetitions=1, instance={"family_target": {key: value}}),
    ),
    **{
        theorem: (
            THEOREMS[theorem][2],
            lambda key, value, theorem=theorem: _basic_scenario(
                theorem=theorem, repetitions=1, instance={key: value}
            ),
        )
        for theorem in sorted(THEOREMS)
    },
}


@pytest.mark.parametrize("table", list(_OBJECT_TABLES))
def test_a_value_of_the_wrong_json_type_exits_2_and_names_the_field(tmp_path, capsys, table):
    kinds, document = _OBJECT_TABLES[table]
    for key, (_, valid, _) in kinds.items():
        rejected = [value for value in _JSON_SAMPLES if not valid(value)]
        assert rejected, key
        for value in rejected:
            path = _write(tmp_path, "bad.json", document(key, value))
            assert main(["run", path]) == 2, (key, value)
            err = capsys.readouterr().err
            assert repr(key) in err and "Traceback" not in err, (key, value)


@pytest.mark.parametrize("where", ["directory", "missing_directory"])
def test_a_report_path_that_cannot_be_written_exits_2(tmp_path, capsys, where):
    report = tmp_path if where == "directory" else tmp_path / "missing" / "out.json"
    scenario = str(SCENARIO_DIR / "tight_sum.json")
    assert main(["run", scenario, "--no-timestamp", "--report", str(report)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {report}: ") and "Traceback" not in err


class _FullStdout:
    """A standard output on a full disk, failing at ``write`` or only at
    ``flush``."""

    def __init__(self, failing):
        self.failing = failing

    def write(self, text):
        if self.failing == "write":
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return len(text)

    def flush(self):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_stdout_that_cannot_be_written_exits_2(monkeypatch, capsys, failing):
    monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
    assert main(["run", str(SCENARIO_DIR / "tight_sum.json"), "--format", "csv"]) == 2
    assert capsys.readouterr().err == f"error: <stdout>: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.parametrize("failing", ["write", "flush"])
def test_a_theorem_list_to_a_stdout_that_cannot_be_written_exits_2(
    monkeypatch, capsys, failing
):
    monkeypatch.setattr(sys, "stdout", _FullStdout(failing))
    assert main(["--list-theorems"]) == 2
    assert capsys.readouterr().err == f"error: <stdout>: {os.strerror(errno.ENOSPC)}\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a full device")
@pytest.mark.parametrize("args", [["--list-theorems"], ["run", str(SCENARIO_DIR / "tight_sum.json")]])
def test_a_full_device_as_stdout_exits_2_without_a_traceback(args):
    with open("/dev/full", "w") as full:
        done = _child(args, stdout=full)
    assert done.returncode == 2
    assert done.stderr == f"error: <stdout>: {os.strerror(errno.ENOSPC)}\n"


def test_a_stdout_encoding_that_cannot_hold_a_name_exits_2(tmp_path):
    path = _write(tmp_path, "s.json", _basic_scenario(name="caf\u00e9", repetitions=1))
    done = _child(["run", path, "--format", "csv"], PYTHONIOENCODING="ascii")
    assert done.returncode == 2
    assert done.stderr == "error: <stdout>: encoding ascii cannot encode '\\xe9'\n"
    assert done.stdout == ""
    # The JSON format escapes every non-ASCII character.
    done = _child(["run", path], PYTHONIOENCODING="ascii")
    assert done.returncode == 0 and "caf\\u00e9" in done.stdout


def _captured_inputs(monkeypatch, theorem, seed=0):
    """The inputs that the checker of ``theorem`` receives on the instance
    generated at ``seed``."""
    checker = THEOREMS[theorem].checker
    original, captured = getattr(registry, checker), []
    monkeypatch.setattr(registry, checker, lambda *args: captured.append(args) or original(*args))
    build_and_run(theorem, {}, seed)
    monkeypatch.setattr(registry, checker, original)
    return captured[0]


@pytest.mark.parametrize("seed", range(6))
def test_final_corollary_slack_lets_no_non_frame_reach_the_conclusion(
    tmp_path, monkeypatch, seed
):
    # G has frame operator S_F - C.P, P the projection onto the least
    # eigenvector of S_F: ||S_F - S_G|| = C and G is no frame.  With
    # alpha = C(1 - eps) < C, the distance C lies within the slack of the
    # alpha check, so the check against C must fail it.
    family = _captured_inputs(monkeypatch, "FINAL_COROLLARY", seed)[0]
    eigs, vecs = np.linalg.eigh(gframes.frame_operator(family).flat)
    lower = float(eigs[0])
    eigs[0] = 0.0
    root = (vecs * np.sqrt(eigs)) @ vecs.conj().T
    other = gframes.GFrameFamily.of((gframes.AdjointableOp(root, family.algebra_dim),))
    report_path = tmp_path / "out.json"
    for eps in (1e-9, 1e-10, 1e-11):
        instance = {"family": ser.family_to_json(family),
                    "second_family": ser.family_to_json(other), "alpha": lower * (1.0 - eps)}
        doc = _basic_scenario(theorem="FINAL_COROLLARY", repetitions=1, instance=instance)
        argv = ["run", _write(tmp_path, "near.json", doc), "--no-timestamp"]
        assert main(argv + ["--report", str(report_path)]) == 0, eps
        rep = json.loads(report_path.read_text())["runs"][0]["reports"][0]
        assert rep["verdict"] == "HypothesisFails", eps
        passed = {c["name"]: c["passed"] for c in rep["hypothesis_checks"]}
        assert passed == {"input_is_frame": True, "proximity_within_alpha": True,
                          "proximity_below_lower": False}, eps


def _diagonal_family(*weights):
    """n = 1, d = 2: one member per weight, the column sqrt(w_j) e_j, so
    that the frame operator is diag(weights)."""
    columns = np.sqrt(np.array(weights)) * np.eye(2, dtype=complex)
    return ser.family_to_json(gframes.GFrameFamily.of(
        gframes.AdjointableOp(columns[:, [j]], 1) for j in range(2)
    ))


def _diagonal_op(*entries):
    return ser.op_to_json(gframes.AdjointableOp(np.diag(entries).astype(complex), 1))


def _probe(tmp_path, theorem, instance):
    """The exit code and the one report of an inline instance run once."""
    doc = _basic_scenario(theorem=theorem, repetitions=1, instance=instance)
    report_path = tmp_path / "out.json"
    argv = ["run", _write(tmp_path, "probe.json", doc), "--no-timestamp"]
    code = main(argv + ["--report", str(report_path)])
    rep = json.loads(report_path.read_text())["runs"][0]["reports"][0]
    return code, rep, {c["name"]: c["passed"] for c in rep["hypothesis_checks"]}


@pytest.mark.parametrize("eps", [1e-9, 1e-10, 1e-11, 1e-12])
def test_t12_deviation_at_the_lower_bound_fails_its_companion_check(tmp_path, eps):
    # S = diag(1, D), D = 1 + eps, and the summands diag(0, 0), diag(0, D):
    # the subset supremum is C = 1, past the budget 1/D by about eps and
    # within its slack, and K = diag(0, D) is no frame.
    d_high = 1.0 + eps
    instance = {"family": _diagonal_family(1.0, d_high),
                "delta_ops": [_diagonal_op(0.0, 0.0), _diagonal_op(0.0, d_high)]}
    code, rep, passed = _probe(tmp_path, "T12_OPERATOR", instance)
    assert (code, rep["verdict"]) == (0, "HypothesisFails"), eps
    assert passed["subset_sup_within_budget"] and not passed["subset_sup_below_lower"], eps


@pytest.mark.parametrize("c_low, d_high, over", [(1e-3, 2.0, 5e-10), (1e-2, 2.0, 5e-10),
                                                 (1e-3, 4.0, 9e-10)])
def test_t12_budget_overshoot_within_its_slack_reads_no_conclusion_failure(
    tmp_path, c_low, d_high, over
):
    # S = diag(C, D) and one deviation (C/D + over) e1e1*: the budget check
    # passes by its slack, K = diag(C - C/D - over, D) is a frame, and only
    # the contraction misses 1/D, which is recorded, not concluded.
    instance = {"family": _diagonal_family(c_low, d_high),
                "delta_ops": [_diagonal_op(c_low - c_low / d_high - over, 0.0),
                              _diagonal_op(0.0, d_high)]}
    code, rep, passed = _probe(tmp_path, "T12_OPERATOR", instance)
    assert code == 0 and rep["verdict"] != "ConclusionFails"
    assert passed["subset_sup_within_budget"]
    assert rep["details"]["contraction_norm"] > rep["details"]["contraction_limit"]


@pytest.mark.parametrize("d_high, gap", [(1e4, 1e-7), (10.0, 5e-9)])
def test_final_corollary_proximity_is_held_below_c_at_the_upper_bound_scale(
    tmp_path, d_high, gap
):
    # S_F = diag(1, D), S_G = diag(gap, D) and alpha = 1 - gap: the hypothesis
    # holds exactly and G is a frame, but its bound ratio is below tol.rel,
    # so C - alpha must clear a slack at the scale of D.
    instance = {"family": _diagonal_family(1.0, d_high),
                "second_family": _diagonal_family(gap, d_high), "alpha": 1.0 - gap}
    code, rep, passed = _probe(tmp_path, "FINAL_COROLLARY", instance)
    assert (code, rep["verdict"]) == (0, "HypothesisFails"), d_high
    assert passed == {"input_is_frame": True, "proximity_within_alpha": True,
                      "proximity_below_lower": False}, d_high


@pytest.mark.parametrize("theorem", ["FINAL_COROLLARY", "T12_OPERATOR"])
def test_an_svd_that_does_not_converge_exits_2_and_names_the_fields(
    tmp_path, capsys, monkeypatch, theorem
):
    # The seed-0 families scaled by 2^-520 and their operators by 2^-1040:
    # finite entries whose frame operators lie at the end of the subnormal
    # range, where LAPACK's SVD does not converge.
    inputs, scale = _captured_inputs(monkeypatch, theorem), 2.0**-520
    instance = {"family": ser.family_to_json(gframes.scale_family(inputs[0], scale))}
    if theorem == "FINAL_COROLLARY":
        instance["second_family"] = ser.family_to_json(gframes.scale_family(inputs[1], scale))
        instance["alpha"] = inputs[2] * scale**2
    else:
        instance["delta_ops"] = [
            ser.op_to_json(gframes.AdjointableOp(op.flat * scale**2, op.algebra_dim))
            for op in inputs[1]
        ]
    doc = _basic_scenario(theorem=theorem, repetitions=1, instance=instance)
    code = main(["run", _write(tmp_path, "tiny.json", doc)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert "'family'" in err and "did not converge" in err
    assert "Traceback" not in err


def _repeated_member_key() -> str:
    """A list of one scenario whose inline family's last member gives
    ``target_len`` twice."""
    text = json.dumps([_basic_scenario(theorem="CLASSIFY", repetitions=1, instance=_PAIR)])
    before, member, after = text.rpartition(json.dumps(_PAIR["family"]["members"][-1]))
    return before + '{"target_len": 1, ' + member[1:] + after


@pytest.mark.parametrize(
    "text, key, where",
    [
        ('{"schema": 1, "theorem": "CLASSIFY", "theorem": "T3_EQUIV", "repetitions": 1}',
         "theorem", "the top-level object"),
        ('{"schema": 1, "theorem": "FINAL_COROLLARY", "repetitions": 1,'
         ' "instance": {"alpha": 0.5, "alpha": 0.9}}', "alpha", "instance"),
        (_repeated_member_key(), "target_len", "[0].instance.family.members[1]"),
    ],
    ids=["scenario-field", "instance-field", "family-member-field"],
)
def test_a_repeated_key_exits_2_and_names_the_file_and_the_key(
    tmp_path, capsys, text, key, where
):
    path = tmp_path / "repeated.json"
    path.write_text(text)
    assert main(["run", str(path), "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert f"repeated.json: repeated key {key!r}" in err
    assert f"repeated.json: repeated key {key!r} in {where}\n" in err


def test_a_repeated_key_before_a_syntax_error_is_named_without_a_path(tmp_path, capsys):
    # The decoder stops at the repeated key, and the document cannot be
    # read whole again to find where it is.
    path = tmp_path / "repeated.json"
    path.write_text('{"instance": {"alpha": 0.5, "alpha": 0.9}, "theorem": [')
    assert main(["run", str(path), "--no-timestamp"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {path}: repeated key 'alpha'\n"


@pytest.mark.parametrize("seed", [0, -1])
def test_seeds_equal_modulo_2_64_run_the_same_repetitions(tmp_path, seed):
    # Repetition i runs at (seed + seed_stride * i) mod 2^64; the run
    # document echoes the seed as given.  Some generators branch on the
    # seed modulo 5 or 7, which 2^64 is not a multiple of.
    runs = []
    for i, given in enumerate((seed, seed + 2**64)):
        docs = [_basic_scenario(theorem=theorem, seed=given, seed_stride=3, repetitions=3,
                                instance={}) for theorem in sorted(THEOREMS)]
        report_path = tmp_path / f"out{i}.json"
        argv = ["run", _write(tmp_path, f"seed{i}.json", docs), "--no-timestamp"]
        assert main(argv + ["--report", str(report_path)]) == 0
        runs.append(json.loads(report_path.read_text())["runs"])
        assert {run["seed"] for run in runs[-1]} == {given}
    assert [run["reports"] for run in runs[0]] == [run["reports"] for run in runs[1]]


def _run_child(tmp_path, theorem, instance):
    """Exit code and standard error of an inline instance run once in a
    child process, where a traceback shows on standard error."""
    doc = _basic_scenario(theorem=theorem, repetitions=1, instance=instance)
    done = _child(["run", _write(tmp_path, "probe.json", doc), "--no-timestamp"])
    return done.returncode, done.stderr


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="valid input whose products underflow; no magnitude contract yet")
def test_t3_equiv_far_below_unit_scale_does_not_exit_1(tmp_path, monkeypatch):
    # The seed-0 instance with its family scaled by 2^-540.  Known wrong:
    # its details read condition_frame 0, condition_surjective 1 and
    # condition_positive 0, and the run exits 1.
    family, other, m_op, n_op = _captured_inputs(monkeypatch, "T3_EQUIV")[:4]
    instance = {"family": ser.family_to_json(gframes.scale_family(family, 2.0**-540)),
                "second_family": ser.family_to_json(other),
                "m": ser.op_to_json(m_op), "n": ser.op_to_json(n_op)}
    code, err = _run_child(tmp_path, "T3_EQUIV", instance)
    assert "Traceback" not in err
    assert code != 1


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the conclusion rejects a frame whose bound ratio is below tol.rel")
@pytest.mark.parametrize("theorem", ["PROP_MIXED", "THM_DIFFERENCE"])
def test_an_ill_conditioned_perturbed_frame_does_not_exit_1(tmp_path, theorem):
    # S_F = diag(2e-9, 1) and S_G = diag(8e-10, 1) with unit weights: every
    # check passes and G is a frame with lower bound 8e-10.  Known wrong:
    # the verdict reads ConclusionFails and the run exits 1.
    ones = (gframes.identity(1),) * 2
    instance = {"family": _diagonal_family(2e-9, 1.0),
                "second_family": _diagonal_family(8e-10, 1.0),
                "weights": ser.weights_to_json(gframes.ScalarWeights(ones, ones, 0.9, 1.1)),
                "alpha1": 0.5, "alpha2": 0.5}
    code, err = _run_child(tmp_path, theorem, instance)
    assert "Traceback" not in err
    assert code != 1
