"""LAPACK call budget of one repetition per theorem.

The checkers end in spectral norms and extreme eigenvalues of small
matrices, and a repetition's cost follows its count of LAPACK calls.
The table holds the most ``svd``, ``eigvalsh`` and ``eigh`` calls that
one repetition made at these sizes and seeds, decode included, so a
change that adds a call fails here instead of going unnoticed.
"""

from collections import Counter

import numpy as np
import pytest

from gframes import stability
from gframes.algebra import hermitian_part
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
    "TIGHT_SUM": (1, 5, 2),
    "ISOMETRY_SUM": (3, 6, 2),
    "LAMBDA_LOWER": (1, 5, 1),
    "TIGHT_MN": (2, 5, 2),
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
