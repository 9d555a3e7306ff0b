"""Closed-loop client of the public runner API, and the correctness gate.

One client runs one repetition at a time, exactly the sequence
``gframes run`` performs for it: ``cli.run_scenario`` on the
one-repetition slice of a loaded scenario, then ``cli.render_json``.
Rounds interleave the theorems: round r runs repetition r of every
scenario, in file order.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, replace

MASK64 = (1 << 64) - 1

# Achieved bounds may drift from the stored reference by this much,
# relative to the larger of the two upper bounds (the spectrum's scale,
# so that a numerically zero lower bound is compared on that scale too).
REFERENCE_REL = 1e-8


@dataclass(frozen=True)
class Outcome:
    """What one repetition produced, as read back from its rendered report."""

    theorem: str
    rep: int
    seconds: float
    verdict: str | None
    result_kind: str | None
    lower: float | None
    upper: float | None
    failure: str | None

    def key(self) -> tuple:
        return (self.theorem, self.rep, self.verdict, self.result_kind, self.lower, self.upper)


def one_repetition(scenario, rep: int):
    """The one-repetition scenario that ``run_scenario`` would run as repetition ``rep``."""
    seed = (scenario.seed + scenario.seed_stride * rep) & MASK64
    return replace(scenario, seed=seed, repetitions=1)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


class Gate:
    """Decides whether a repetition failed.

    A repetition fails if it raises, reports ConclusionFails, renders
    anything strict JSON rejects (``Infinity``/``NaN``, which
    ``json.dumps(..., allow_nan=False)`` refuses), or, when a reference
    is given, disagrees with it in verdict, result kind or achieved
    bounds.
    """

    def __init__(self, reference: dict | None = None):
        self.reference = reference or {}

    def outcome(self, theorem: str, rep: int, seconds: float, text: str | None,
                error: BaseException | None) -> Outcome:
        if error is not None:
            return Outcome(theorem, rep, seconds, None, None, None, None,
                           f"raised {type(error).__name__}: {error}")
        try:
            doc = json.loads(text, parse_constant=_reject_constant)
        except ValueError as exc:
            return Outcome(theorem, rep, seconds, None, None, None, None,
                           f"report is not strict JSON: {exc}")
        (report,) = doc["runs"][0]["reports"]
        verdict = report["verdict"]
        kind = report.get("result_kind")
        lower, upper = report["achieved"]["lower"], report["achieved"]["upper"]
        if verdict == "ConclusionFails":
            failure = "ConclusionFails"
        else:
            failure = self._against_reference(theorem, rep, verdict, kind, lower, upper)
        return Outcome(theorem, rep, seconds, verdict, kind, lower, upper, failure)

    def _against_reference(self, theorem, rep, verdict, kind, lower, upper):
        stored = self.reference.get(theorem, [])
        if rep >= len(stored):
            return None
        ref_verdict, ref_kind, ref_lower, ref_upper = stored[rep]
        if (verdict, kind) != (ref_verdict, ref_kind):
            return f"reference mismatch: {verdict}/{kind} vs {ref_verdict}/{ref_kind}"
        scale = REFERENCE_REL * max(abs(upper), abs(ref_upper))
        if abs(lower - ref_lower) > scale or abs(upper - ref_upper) > scale:
            return (f"reference mismatch: bounds ({lower!r}, {upper!r})"
                    f" vs ({ref_lower!r}, {ref_upper!r})")
        return None


def run_round(cli, scenarios, rep: int, gate: Gate, tracer=None,
              after_each=None) -> list[Outcome]:
    """Repetition ``rep`` of every scenario, timed one at a time.

    Only ``run_scenario`` plus ``render_json`` is inside the timed
    interval; the gate reads the rendered text afterwards, and
    ``after_each``, if given, is called with no arguments after every
    repetition.
    """
    outcomes = []
    clock = time.perf_counter
    for index, scenario in enumerate(scenarios):
        single = one_repetition(scenario, rep)
        if tracer is not None:
            tracer.set_rep(rep * len(scenarios) + index)
        text = error = None
        started = clock()
        try:
            text = cli.render_json([cli.run_scenario(single)], with_timing=False)
        except Exception as exc:  # a raising repetition is a counted failure
            error = exc
        seconds = clock() - started
        outcomes.append(gate.outcome(scenario.theorem, rep, seconds, text, error))
        if after_each is not None:
            after_each()
    return outcomes


def run_rounds(cli, scenarios, reps, gate: Gate, tracer=None) -> list[Outcome]:
    outcomes = []
    for rep in reps:
        outcomes.extend(run_round(cli, scenarios, rep, gate, tracer))
    return outcomes


def run_for(cli, scenarios, first_rep: int, seconds: float, gate: Gate,
            after_round=None, after_each=None) -> list[Outcome]:
    """Whole rounds from ``first_rep`` until ``seconds`` of wall time have passed.

    Stopping only at round boundaries keeps the theorem mix of every run
    identical, whatever the per-theorem costs.  ``after_round`` is called
    with the round's repetition index after each round, and
    ``after_each`` after every repetition, both outside any timed
    interval; their time counts towards ``seconds``.
    """
    outcomes = []
    started = time.perf_counter()
    rep = first_rep
    while not outcomes or time.perf_counter() - started < seconds:
        outcomes.extend(run_round(cli, scenarios, rep, gate, after_each=after_each))
        if after_round is not None:
            after_round(rep)
        rep += 1
    return outcomes
