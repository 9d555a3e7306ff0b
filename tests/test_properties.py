"""Property tests of the scenario runner over arbitrary scenario and instance fields."""

import json
import math
import os
import tempfile
from datetime import timedelta

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gframes
from gframes import serialize as ser
from gframes.cli import (
    MAX_REPETITIONS,
    SCHEMA_VERSION,
    RunReport,
    Scenario,
    main,
    parse_scenario,
    render_json,
)
from gframes.errors import ValidationError
from gframes.registry import THEOREMS
from oracles import walk_report_to_json

_FAMILIES = [
    ser.family_to_json(gframes.gen_family(gframes.GenSpec(seed, n, d, dims, target)))
    for seed, n, d, dims, target in (
        (1, 1, 2, (2, 2), gframes.FamilyTarget.parseval()),
        (2, 2, 1, (1, 2, 1), gframes.FamilyTarget.bounds(1.0, 2.0)),
        (3, 1, 1, (1, 1), gframes.FamilyTarget.random()),
    )
]
_OPERATORS = [
    ser.op_to_json(gframes.identity_op(1, 2)),
    ser.op_to_json(gframes.zero_op(2, 1, 1)),
    ser.op_to_json(gframes.AdjointableOp(gframes.identity(2).entries * 0.5j, 1)),
]
# Wall-time bound per example: examples take milliseconds, and the bound
# leaves room for a slow shared machine while still catching a hang.
_DEADLINE = timedelta(seconds=10)
_TARGETS = ["random", "parseval", {"tight": 1.5}, {"bounds": [0.5, 2.0]}]
_WEIGHTS = [ser.weights_to_json(gframes.gen_weights(4, 1, 2, 0.5, 2.0))]

_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 4)
    | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
_VALUES = st.one_of(
    _JSON,
    st.sampled_from(_FAMILIES + _OPERATORS + _TARGETS + _WEIGHTS),
    st.lists(st.sampled_from(_OPERATORS), max_size=3),
)


@st.composite
def _cases(draw):
    theorem = draw(st.sampled_from(sorted(THEOREMS)))
    keys = draw(st.lists(st.sampled_from(sorted(THEOREMS[theorem][2])), unique=True))
    return theorem, {key: draw(_VALUES) for key in keys}, draw(st.integers(0, 9))


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@settings(max_examples=150, derandomize=True, deadline=_DEADLINE, database=None)
@given(_cases())
# An inline family whose generated deltas must take its sizes, not drawn ones.
@example(("T12_OPERATOR", {"family": _FAMILIES[0]}, 2))
# A weight band entry that is not a number.
@example(("T7_SCALAR", {"weights": dict(_WEIGHTS[0], band=["abc", 2])}, 0))
def test_run_exits_0_1_or_2_and_writes_strict_json(case):
    theorem, instance, seed = case
    doc = {"schema": 1, "theorem": theorem, "seed": seed, "instance": instance}
    with tempfile.TemporaryDirectory() as tmp:
        path, report = os.path.join(tmp, "s.json"), os.path.join(tmp, "out.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        code = main(["run", path, "--no-timestamp", "--report", report])
        assert code in (0, 1, 2)
        if os.path.exists(report):
            with open(report, encoding="utf-8") as handle:
                json.load(handle, parse_constant=_reject_constant)


# Scenario-level values: arbitrary JSON plus integers of any size and
# the non-finite floats a lenient JSON parser yields.
_SCALARS = st.one_of(
    _JSON,
    st.integers(),
    st.sampled_from(
        [10**400, -(10**400), 2**64, 2**63 - 1, float("nan"), float("inf"), -float("inf"), "1e999"]
    ),
)
_TOLERANCES = st.fixed_dictionaries({}, optional={"rel": _SCALARS, "abs": _SCALARS}) | _SCALARS


@st.composite
def _scenario_docs(draw):
    # The schema is drawn in one case of four and every other field is left
    # out half the time, so that the checks after a malformed field run too.
    schema = draw(st.integers(0, 3).flatmap(lambda k: _SCALARS if k == 0 else st.just(1)))
    doc = {"schema": schema, "theorem": draw(st.sampled_from(["CLASSIFY", "T12_OPERATOR"]))}
    for key in ("seed", "seed_stride", "repetitions", "tolerance", "name"):
        if draw(st.booleans()):
            doc[key] = draw(_TOLERANCES if key == "tolerance" else _SCALARS)
    return doc


@settings(max_examples=300, derandomize=True, deadline=_DEADLINE, database=None)
@given(_scenario_docs())
@example({"theorem": "CLASSIFY", "schema": 1, "tolerance": {"rel": 10**400}})
# Repetitions beyond the cap, which would never finish running.
@example({"theorem": "CLASSIFY", "schema": 1, "repetitions": 10**400})
def test_parse_scenario_returns_a_scenario_or_raises_validation_error(doc):
    try:
        scenario = parse_scenario(doc)
    except ValidationError:
        return
    assert isinstance(scenario, Scenario)
    assert 1 <= scenario.repetitions <= MAX_REPETITIONS


# Report-like JSON values: str keys, any text (control characters and
# lone surrogates included), wide integers and awkward floats.
_TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16, 1e-7]
)
_REPORT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | _FINITE | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=300, derandomize=True, deadline=_DEADLINE, database=None)
@given(_REPORT_VALUES)
def test_the_report_writer_writes_what_json_dumps_writes(value):
    assert ser.json_text(value) == json.dumps(value, indent=2, allow_nan=False)


def _nulled(value):
    """``value`` with each non-finite float in it replaced by None."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, list):
        return [_nulled(item) for item in value]
    if isinstance(value, dict):
        return {key: _nulled(item) for key, item in value.items()}
    return value


# Report-like JSON values whose floats may be infinite or NaN.
_ANY_FLOAT_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.floats() | _TEXT,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_TEXT, inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=200, derandomize=True, deadline=_DEADLINE, database=None)
@given(_ANY_FLOAT_VALUES, st.sampled_from([math.nan, math.inf, -math.inf]))
def test_the_json_writer_writes_a_non_finite_float_anywhere_as_null(value, bad):
    document = {"value": [value, bad]}
    assert ser.json_text(document) == json.dumps(_nulled(document), indent=2, allow_nan=False)


# Report fields and details as checkers and hand-made reports hold them:
# numpy scalars, non-finite floats, the sign of zero, the least subnormal,
# nested tuples and lists, and any text in names and keys.
_NON_FINITE = st.sampled_from([math.inf, -math.inf, math.nan])
_NUMBERS = st.one_of(
    _FINITE,
    _NON_FINITE,
    _FINITE.map(np.float64),
    _NON_FINITE.map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(10**30), 10**30),
)
_FLAGS = st.booleans() | st.booleans().map(np.bool_)
_DETAILS = st.dictionaries(
    _TEXT,
    st.recursive(
        st.none() | _FLAGS | _NUMBERS | _TEXT,
        lambda inner: st.lists(inner, max_size=3) | st.tuples(inner, inner),
        max_leaves=6,
    ),
    max_size=4,
)


@st.composite
def _reports(draw):
    checks = st.builds(gframes.CheckItem, _TEXT, _FLAGS, st.none() | _NUMBERS, st.none() | _NUMBERS)
    return gframes.TheoremReport(
        draw(_TEXT),
        gframes.FrameBounds(draw(_NUMBERS), draw(_NUMBERS), draw(_FLAGS), draw(_FLAGS)),
        draw(st.sampled_from(gframes.Verdict)),
        tuple(draw(st.lists(checks, max_size=3))),
        draw(st.none() | _NUMBERS),
        draw(st.none() | _NUMBERS),
        draw(st.none() | _TEXT),
        details=draw(_DETAILS),
    )


@settings(max_examples=60, derandomize=True, deadline=_DEADLINE, database=None)
@given(st.lists(_reports(), max_size=3))
def test_render_json_writes_each_report_as_json_dumps_writes_its_walk(reports):
    run = RunReport(Scenario("reports", "CLASSIFY", seed=3), reports, 0.0)
    doc = {
        "schema": SCHEMA_VERSION,
        "runs": [
            {
                "scenario": "reports",
                "theorem": "CLASSIFY",
                "seed": 3,
                "seed_stride": 1,
                "repetitions": 1,
                "aggregate": run.aggregate,
                "reports": [walk_report_to_json(report) for report in reports],
            }
        ],
    }
    expected = json.dumps(doc, indent=2, allow_nan=False) + "\n"
    assert render_json([run], with_timing=False) == expected
