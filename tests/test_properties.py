"""Property tests of the scenario runner over arbitrary scenario and instance fields."""

import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import gframes
from gframes import serialize as ser
from gframes.cli import MAX_REPETITIONS, Scenario, main, parse_scenario
from gframes.errors import ValidationError
from gframes.registry import THEOREMS

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


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
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


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
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
