"""Property test of the scenario runner over arbitrary instance fields."""

import json
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import gframes
from gframes import serialize as ser
from gframes.cli import main
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
