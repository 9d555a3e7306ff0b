"""LAPACK call budget of one repetition per theorem.

The checkers end in spectral norms and extreme eigenvalues of small
matrices, and a repetition's cost follows its count of LAPACK calls.
The table holds the most ``svd`` and ``eigvalsh`` calls that one
repetition made at these sizes and seeds, decode included, so a change
that adds a call fails here instead of going unnoticed.
"""

from collections import Counter

import numpy as np
import pytest

from gframes.registry import THEOREMS, run_decoded, validate_instance

SIZES = {"algebra_dim": 2, "module_len": 2, "member_dims": [2, 2]}
SEEDS = range(4)

# theorem: (svd calls, eigvalsh calls), the most over SEEDS.
BUDGET = {
    "CLASSIFY": (0, 1),
    "PERTURB_LAMBDA": (3, 3),
    "T3_EQUIV": (3, 4),
    "T3_COROLLARY": (2, 6),
    "T7_SCALAR": (0, 5),
    "T11_POSITIVE": (1, 7),
    "TIGHT_SUM": (1, 5),
    "ISOMETRY_SUM": (3, 6),
    "LAMBDA_LOWER": (1, 5),
    "TIGHT_MN": (2, 5),
    "PROP_MIXED": (0, 3),
    "THM_DIFFERENCE": (1, 3),
    "T12_OPERATOR": (2, 4),
    "FINAL_COROLLARY": (1, 2),
}


def test_the_budget_names_every_theorem():
    assert sorted(BUDGET) == sorted(THEOREMS)


@pytest.mark.parametrize("theorem", sorted(BUDGET))
def test_a_repetition_stays_within_its_lapack_budget(monkeypatch, theorem):
    counts = Counter()
    for name in ("svd", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    for seed in SEEDS:
        config = validate_instance(theorem, dict(SIZES))
        counts.clear()
        run_decoded(theorem, config, seed)
        svd_budget, eigvalsh_budget = BUDGET[theorem]
        assert counts["svd"] <= svd_budget, (seed, dict(counts))
        assert counts["eigvalsh"] <= eigvalsh_budget, (seed, dict(counts))
