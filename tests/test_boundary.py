"""Boundary instances (``tests/boundary.py``): no instance whose bare
hypothesis fails reads ConclusionFails, at any step from its limit."""

import pytest

from boundary import CASES, NO_CONSTRUCTOR, STEPS, boundary_report
from gframes import Verdict
from gframes.registry import THEOREMS, build_and_run


@pytest.mark.parametrize("theorem, check", sorted(CASES))
def test_no_instance_beyond_a_bare_limit_reads_conclusion_fails(theorem, check):
    for step in STEPS:
        report, item, target = boundary_report(theorem, check, 0, step)
        # The constructor put the measured value at its target ...
        assert abs(item.measured - target) <= 1e-12 * max(1.0, abs(target)), step
        # ... so far out, the check decides as the bare hypothesis does.
        if step[0] == "rel" and abs(step[1]) == 1e-6:
            assert item.passed is (step[1] < 0), step
        if step[1] > 0:
            assert report.verdict is not Verdict.CONCLUSION_FAILS, step


def test_every_check_has_a_constructor_or_a_table_entry():
    emitted = {
        (theorem, item.name)
        for theorem in THEOREMS
        for item in build_and_run(theorem, {}, 0).hypothesis_checks
    }
    assert not set(CASES) & set(NO_CONSTRUCTOR)
    assert emitted == set(CASES) | set(NO_CONSTRUCTOR)
