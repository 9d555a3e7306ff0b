"""One verdict path: a report reads HypothesisFails exactly when one of
its listed checks failed, and no scalar limit lets an instance at its
boundary through to ConclusionFails."""

import ast
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from gframes import (
    AdjointableOp,
    FamilyTarget,
    GenSpec,
    TheoremReport,
    Verdict,
    gen_family,
    operators_from_family,
    registry,
    scale_family,
    stability,
    t3_corollary_check,
    t12_check,
)
from gframes.registry import THEOREMS, build_and_run
from gframes.serialize import _REPORT_KEYS, op_to_json, report_to_json

# Scalar overrides under which some seeds fail a hypothesis.
_FAILING = [
    ("PROP_MIXED", {"alpha1": 0.01, "alpha2": 0.01}),
    ("THM_DIFFERENCE", {"alpha1": 1e-4, "alpha2": 1e-4}),
    ("T12_OPERATOR", {"budget_fraction": 3.0}),
    ("FINAL_COROLLARY", {"alpha": 1e-3}),
    ("T7_SCALAR", {"bessel_ratio": 2.0}),
    ("LAMBDA_LOWER", {"bessel_upper": 3.0}),
]


@pytest.mark.parametrize(
    "theorem, instance", [(t, {}) for t in sorted(THEOREMS)] + _FAILING
)
def test_a_report_fails_its_hypotheses_exactly_when_a_listed_check_failed(theorem, instance):
    failed = 0
    for seed in range(20):
        report = build_and_run(theorem, instance, seed)
        names = [c.name for c in report.hypothesis_checks]
        assert len(set(names)) == len(names), (seed, names)
        if THEOREMS[theorem].checker in vars(stability):
            assert len(names) >= 2, seed
        check_failed = not all(c.passed for c in report.hypothesis_checks)
        assert (report.verdict is Verdict.HYPOTHESIS_FAILS) == check_failed, seed
        failed += check_failed
    assert failed or not instance


def test_each_report_field_is_written_once():
    written = ["theorem_id", "verdict", *_REPORT_KEYS, "details"]
    assert sorted(written) == sorted(f.name for f in fields(TheoremReport))
    data = report_to_json(build_and_run("T12_OPERATOR", {}, 0))
    assert list(data) == ["theorem", "verdict", *_REPORT_KEYS, "details"]


def _bits(x: float) -> int:
    """The bits of a float as an integer: consecutive positive floats
    have consecutive integers."""
    return int(np.float64(x).view(np.int64))


def _float(bits: int) -> float:
    return float(np.int64(bits).view(np.float64))


# Each scalar limit with a value at which the default instances hold their
# hypotheses, one beyond which some fail, and the fields held fixed; the
# other coefficient is kept small so that the coefficient varied decides.
_LIMITS = [
    ("T7_SCALAR", "bessel_ratio", 0.4, 2.0, {}),
    ("LAMBDA_LOWER", "bessel_upper", 0.2, 3.0, {}),
    ("T12_OPERATOR", "budget_fraction", 0.5, 3.0, {}),
    ("PROP_MIXED", "alpha1", 0.999, 1e-3, {"alpha2": 0.01}),
    ("PROP_MIXED", "alpha2", 0.999, 1e-3, {"alpha1": 0.01}),
    ("THM_DIFFERENCE", "alpha1", 0.999, 1e-6, {"alpha2": 1e-4}),
    ("THM_DIFFERENCE", "alpha2", 0.999, 1e-6, {"alpha1": 1e-4}),
    ("FINAL_COROLLARY", "alpha", 0.5, 1e-3, {}),
]


def _flip(verdict, good: int, bad: int) -> int:
    """Bisect, in units in the last place, to the first value at which the
    hypothesis verdict flips, then check that no conclusion fails there or
    around it; returns that value's bits."""
    while abs(bad - good) > 1:
        mid = (good + bad) // 2
        if verdict(mid) is Verdict.HYPOTHESIS_FAILS:
            bad = mid
        else:
            good = mid
    for ulps in (0, 1, -1, 10, -10, 1000, -1000):
        assert verdict(bad + ulps) is not Verdict.CONCLUSION_FAILS, ulps
    return bad


@pytest.mark.parametrize("theorem, key, holds, fails, fixed", _LIMITS)
def test_no_conclusion_fails_at_a_scalar_limit(theorem, key, holds, fails, fixed):
    flips = 0
    for seed in range(10):
        def verdict(bits, seed=seed):
            return build_and_run(theorem, {**fixed, key: _float(bits)}, seed).verdict

        good, bad = _bits(holds), _bits(fails)
        if verdict(good) is Verdict.HYPOTHESIS_FAILS:
            continue
        if verdict(bad) is not Verdict.HYPOTHESIS_FAILS:
            continue
        flips += 1
        _flip(verdict, good, bad)
    assert flips


def test_lambda_bound_flips_at_the_least_singular_value_of_n(monkeypatch):
    # ``lambda_bound`` is drawn with M and N, so the seed's M and N are
    # given inline to vary it alone, from its drawn value up to 2 sigma_min(N).
    drawn = []
    checker = registry.lambda_lower_check

    def recording(*args):
        drawn.append(args)
        return checker(*args)

    monkeypatch.setattr(registry, "lambda_lower_check", recording)
    for seed in range(10):
        build_and_run("LAMBDA_LOWER", {}, seed)
        _, _, m_op, n_op, lam_bound, _ = drawn.pop()
        mn = {"m": op_to_json(m_op), "n": op_to_json(n_op)}

        def report(bits, seed=seed, mn=mn):
            return build_and_run("LAMBDA_LOWER", {**mn, "lambda_bound": _float(bits)}, seed)

        at_drawn = report(_bits(lam_bound))
        assert at_drawn.verdict is Verdict.CONCLUSION_HOLDS, seed
        sigma_min = at_drawn.details["n_sigma_min"]
        flip = _flip(lambda bits: report(bits).verdict, _bits(lam_bound), _bits(2 * sigma_min))
        assert flip == _bits(sigma_min), seed


_POSITIVITY_CHECKS = {"conjugation_dominates", "mixed_operator_positive", "summands_positive"}


def _non_hermitian_reports():
    family = gen_family(GenSpec(13, 2, 2, (2, 2), FamilyTarget.bounds(1.0, 2.0)))
    u = np.triu(np.ones((4, 4)), 1)
    summands = operators_from_family(family)
    # A skew-Hermitian bump leaves the Hermitian part, and its least
    # eigenvalue, as it was.
    summands[0] = AdjointableOp(summands[0].flat + 0.5j * (u + u.T), 2)
    yield t12_check(family, summands)
    for phase in (0.3, 1.0, 2.0):
        # Mixed operator e^(i phase) S_F: Hermitian part cos(phase) S_F.
        rotated = scale_family(family, np.exp(1j * phase))
        yield t3_corollary_check(family, rotated)


def test_a_positivity_check_passes_exactly_when_its_measured_value_clears_its_limit():
    checked = 0
    for report in _non_hermitian_reports():
        for item in report.hypothesis_checks:
            if item.name in _POSITIVITY_CHECKS:
                assert item.passed == (item.measured >= item.limit), (report.theorem_id, item)
                assert not item.passed, (report.theorem_id, item)
                checked += 1
    assert checked == 4


def _builders(class_name: str) -> list[str]:
    """The ``module.function`` around each ``<class_name>(...)`` call in
    the package, ``module.<module>`` for a call outside any function."""
    builders = []
    for path in (Path(__file__).resolve().parents[1] / "src" / "gframes").glob("*.py"):
        tree = ast.parse(path.read_text())
        owner = {}
        # Breadth first: a node's owner is set before its children are read.
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                is_function = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                owner[child] = node.name if is_function else owner.get(node, "<module>")
        builders += [
            f"{path.stem}.{owner[node]}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and class_name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
        ]
    return builders


def test_check_items_are_built_only_by_check_and_the_one_disjunction():
    # Every comparison is decided in ``sums.check``; the one hypothesis
    # that is no single comparison is T3_COROLLARY's "either input is a
    # frame".
    assert sorted(_builders("CheckItem")) == ["sums.check", "sums.t3_corollary_check"]


_SLACK_WORDS = {"tol", "slack", "margin"}


def _assignments(function: ast.FunctionDef) -> dict[str, list[ast.expr]]:
    """Each local name with the expressions assigned to it."""
    values = {}
    for node in ast.walk(function):
        for target in node.targets if isinstance(node, ast.Assign) else []:
            for name in target.elts if isinstance(target, ast.Tuple) else [target]:
                if isinstance(name, ast.Name):
                    values.setdefault(name.id, []).append(node.value)
    return values


def _words(expr: ast.expr, values: dict, seen: set) -> set[str]:
    """The ``_``-separated words of every name and attribute that ``expr``
    reads, through the local assignments to the names it reads."""
    words = set()
    for node in ast.walk(expr):
        ident = getattr(node, "id", None) or getattr(node, "attr", None)
        if ident is None:
            continue
        words |= set(ident.split("_"))
        if isinstance(node, ast.Name) and node.id not in seen:
            seen.add(node.id)
            for value in values.get(node.id, []):
                words |= _words(value, values, seen)
    return words


def test_no_check_passes_a_limit_that_carries_a_slack():
    # ``sums.check`` places every slack by its sense, so each call passes
    # the theorem's bare limit: none that reads a tolerance, a slack or a
    # margin, directly or through a local name.
    calls, offenders = 0, []
    for path in (Path(__file__).resolve().parents[1] / "src" / "gframes").glob("*.py"):
        for function in ast.walk(ast.parse(path.read_text())):
            if not isinstance(function, ast.FunctionDef):
                continue
            values = _assignments(function)
            for node in ast.walk(function):
                if not (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "check"):
                    continue
                calls += 1
                limit = node.args[3] if len(node.args) > 3 else next(
                    k.value for k in node.keywords if k.arg == "limit"
                )
                if _words(limit, values, set()) & _SLACK_WORDS:
                    offenders.append(f"{path.stem}.{function.name}: {ast.unparse(limit)}")
    assert calls >= 15
    assert offenders == []


def test_reports_are_built_only_by_the_one_tail():
    # Every checker returns through ``sums.theorem_report``, the one place
    # where a verdict is picked from the checks and the conclusion.
    assert _builders("TheoremReport") == ["sums.theorem_report"]
