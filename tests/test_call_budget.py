"""LAPACK, draw-call and writer budgets of one repetition per theorem.

The checkers end in spectral norms and extreme eigenvalues of small
matrices, and a repetition's cost follows its count of LAPACK calls.
The table holds the most ``svd``, ``eigvalsh`` and ``eigh`` calls that
one repetition made at these sizes and seeds, decode included, so a
change that adds a call fails here instead of going unnoticed.  A
second table does the same for the generators' Philox keyings and
``standard_normal`` calls.  The work a repetition does apart from its
checker is held as well: the sizes an instance fixes are worked out
once per decode, and a one-repetition document is written by templates,
not by the generic walk.
"""

from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from gframes import generators, registry, serialize, stability
from gframes._rand import make_rng
from gframes.algebra import hermitian_part
from gframes.cli import load_scenarios, parse_scenario, render_json, run_scenario
from gframes.registry import THEOREMS, run_decoded, validate_instance

SIZES = {"algebra_dim": 2, "module_len": 2, "member_dims": [2, 2]}
SEEDS = range(4)

# theorem: (svd, eigvalsh, eigh calls), the most over SEEDS.
_CALLS = ("svd", "eigvalsh", "eigh")
BUDGET = {
    "CLASSIFY": (0, 1, 1),
    "PERTURB_LAMBDA": (3, 3, 1),
    "T3_EQUIV": (3, 4, 0),
    "T3_COROLLARY": (2, 6, 2),
    "T7_SCALAR": (0, 5, 1),
    "T11_POSITIVE": (1, 7, 2),
    "TIGHT_SUM": (1, 3, 2),
    "ISOMETRY_SUM": (3, 6, 2),
    "LAMBDA_LOWER": (1, 5, 1),
    "TIGHT_MN": (2, 3, 2),
    "PROP_MIXED": (0, 3, 3),
    "THM_DIFFERENCE": (1, 3, 2),
    "T12_OPERATOR": (2, 4, 1),
    "FINAL_COROLLARY": (1, 2, 1),
}


def test_the_budget_names_every_theorem():
    assert sorted(BUDGET) == sorted(THEOREMS)


@pytest.mark.parametrize("theorem", sorted(BUDGET))
def test_a_repetition_stays_within_its_lapack_budget(monkeypatch, theorem):
    counts = Counter()
    for name in _CALLS:
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    for seed in SEEDS:
        config = validate_instance(theorem, dict(SIZES))
        counts.clear()
        run_decoded(theorem, config, seed)
        for name, budget in zip(_CALLS, BUDGET[theorem]):
            assert counts[name] <= budget, (seed, name, dict(counts))


# theorem: (Philox keyings, standard_normal calls), the most over SEEDS.
# Every seed keys as many generators; a Gaussian draw site makes one call
# for all its blocks.
DRAWS = {
    "CLASSIFY": (2, 1),
    "PERTURB_LAMBDA": (2, 2),
    "T3_EQUIV": (3, 4),
    "T3_COROLLARY": (2, 2),
    "T7_SCALAR": (4, 7),
    "T11_POSITIVE": (3, 5),
    "TIGHT_SUM": (2, 1),
    "ISOMETRY_SUM": (3, 3),
    "LAMBDA_LOWER": (3, 4),
    "TIGHT_MN": (2, 3),
    "PROP_MIXED": (3, 6),
    "THM_DIFFERENCE": (3, 4),
    "T12_OPERATOR": (2, 3),
    "FINAL_COROLLARY": (2, 2),
}


class _CountingRng:
    """A generator that counts its ``standard_normal`` calls."""

    def __init__(self, rng, counts):
        self._rng, self._counts = rng, counts

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def standard_normal(self, *args, **kwargs):
        self._counts["standard_normal"] += 1
        return self._rng.standard_normal(*args, **kwargs)


def test_the_draw_budget_names_every_theorem():
    assert sorted(DRAWS) == sorted(THEOREMS)


@pytest.mark.parametrize("theorem", sorted(DRAWS))
def test_a_repetition_stays_within_its_draw_budget(monkeypatch, theorem):
    counts = Counter()

    def keyed(seed):
        counts["keyings"] += 1
        return _CountingRng(make_rng(seed), counts)

    for module in (registry, generators):
        monkeypatch.setattr(module, "make_rng", keyed)
    keyings, normals = DRAWS[theorem]
    for seed in SEEDS:
        config = validate_instance(theorem, dict(SIZES))
        counts.clear()
        run_decoded(theorem, config, seed)
        assert counts["keyings"] == keyings, (seed, dict(counts))
        assert counts["standard_normal"] <= normals, (seed, dict(counts))


@pytest.mark.parametrize("seed", SEEDS)
def test_t12_subset_search_decomposes_m_plus_one_matrices_for_definite_deviations(
    monkeypatch, seed
):
    # Every generated T12 deviation is negative definite, so the search
    # decomposes the m = 5 members and their full sum: 6 matrices, where
    # enumeration would decompose all 2^m - 1 = 31 subset sums.
    captured = []
    search = stability._subset_sup
    monkeypatch.setattr(stability, "_subset_sup", lambda dev: captured.append(dev) or search(dev))
    sizes = {**SIZES, "member_dims": [1, 2, 1, 2, 1]}
    run_decoded("T12_OPERATOR", validate_instance("T12_OPERATOR", sizes), seed)
    (deviations,) = captured
    assert (np.linalg.eigvalsh(hermitian_part(deviations))[:, -1] < 0.0).all()
    matrices = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(
        np.linalg, "eigvalsh", lambda a, *args: matrices.append(len(a)) or eigvalsh(a, *args)
    )
    search(deviations)
    assert matrices == [len(deviations) + 1]


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.mark.parametrize(
    "name, sizes",
    [("t3_inline_identity.json", (1, 1, (1,))), ("classify_parseval.json", (2, 2, (2, 2)))],
)
def test_the_sizes_an_instance_fixes_are_worked_out_once_per_decode(monkeypatch, name, sizes):
    # A fully inline instance and one that fixes only its sizes: neither
    # repetition sizes again, nor keys its generator to do so.
    counts = Counter()
    fixed_sizes, sizing = registry._fixed_sizes, registry._sizes

    def counting(cfg):
        counts["fixed_sizes"] += 1
        return fixed_sizes(cfg)

    def unkeyed(cfg, rng, **options):
        got = sizing(cfg, rng, **options)
        assert got == sizes and "_rng" not in vars(rng)
        counts["sizes"] += 1
        return got

    monkeypatch.setattr(registry, "_fixed_sizes", counting)
    monkeypatch.setattr(registry, "_sizes", unkeyed)
    (scenario,) = load_scenarios(str(SCENARIOS / name))
    run = run_scenario(replace(scenario, repetitions=5))
    assert len(run.reports) == 5
    assert counts == {"fixed_sizes": 1, "sizes": 5}


# The exact types whose text a report's template writes without the walk.
_PLAIN = (float, str, bool, int, type(None))


@pytest.mark.parametrize("theorem", sorted(THEOREMS))
def test_a_one_repetition_document_stays_within_its_writer_budget(monkeypatch, theorem):
    # Only a detail value that is not a plain scalar may take the generic
    # walk, ``serialize._write``: none of today's checkers records one.
    calls = Counter()
    write = serialize._write

    def counting(*args):
        calls["_write"] += 1
        return write(*args)

    monkeypatch.setattr(serialize, "_write", counting)
    for seed in SEEDS:
        doc = {"schema": 1, "theorem": theorem, "seed": seed, "instance": dict(SIZES)}
        run = run_scenario(parse_scenario(doc))
        (report,) = run.reports
        nested = sum(type(value) not in _PLAIN for value in report.details.values())
        for with_timing in (False, True):
            calls.clear()
            render_json([run], with_timing)
            assert calls["_write"] <= nested == 0, (seed, with_timing)
