"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
All tolerances are fixed here, not configurable.
"""

import json
from pathlib import Path

import numpy as np

from randoms import random_element, random_op, random_vector
from gframes import (
    AdjointableOp,
    FamilyTarget,
    GenSpec,
    GFrameFamily,
    FrameKind,
    ScalarWeights,
    adjoint,
    apply,
    bound_witnesses,
    classify,
    compose,
    cross_operator,
    frame_operator,
    gen_family,
    gen_isometry,
    gen_orthogonal_pair,
    identity,
    inner_product,
    is_surjective,
    module_scale,
    op_norm,
    operator_norm,
    optimal_bounds,
    serialize,
    synthesis_op,
)
from gframes.cli import main as cli_main
from gframes.registry import build_and_run

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

SUM_THEOREMS = (
    "PERTURB_LAMBDA",
    "T3_EQUIV",
    "T3_COROLLARY",
    "T7_SCALAR",
    "T11_POSITIVE",
    "TIGHT_SUM",
    "ISOMETRY_SUM",
    "LAMBDA_LOWER",
    "TIGHT_MN",
)
STABILITY_THEOREMS = (
    "PROP_MIXED",
    "THM_DIFFERENCE",
    "T12_OPERATOR",
    "FINAL_COROLLARY",
)


def _verdict_line(number, label):
    print(f"ACCEPTANCE {number} {label}: PASS")


def _min_eig(mat):
    return float(np.linalg.eigvalsh((mat + mat.conj().T) / 2)[0])


def test_criterion_1_axiom_suite():
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        dz = int(rng.integers(1, 5))
        op = random_op(rng, n, d, dz)
        x, y, z = (random_vector(rng, n, d) for _ in range(3))
        a = random_element(rng, n)

        # Inner-product axioms.
        gram = inner_product(x, x)
        assert _min_eig(gram.entries) >= -1e-9 * max(operator_norm(gram), 1.0)
        lin_lhs = inner_product(module_scale(a, x) + y, z)
        lin_rhs = a @ inner_product(x, z) + inner_product(y, z)
        assert operator_norm(lin_lhs - lin_rhs) <= 1e-9 * max(
            operator_norm(lin_lhs), 1.0
        )
        sym = inner_product(x, y) - adjoint(inner_product(y, x))
        assert operator_norm(sym) <= 1e-9 * max(operator_norm(inner_product(x, y)), 1.0)

        # Norm-bound inequality for the operator image.
        tx = apply(op, x)
        residual = op_norm(op) ** 2 * inner_product(x, x) - inner_product(tx, tx)
        scale = op_norm(op) ** 2 * operator_norm(inner_product(x, x))
        assert _min_eig(residual.entries) >= -1e-9 * max(scale, 1.0)
    _verdict_line(1, "axiom suite (200 instances)")


def _mixed_family(rng, index):
    n = int(rng.integers(1, 4))
    d = int(rng.integers(1, 4))
    count = int(rng.integers(1, 5))
    if index % 3 == 0:
        # Very likely a frame.
        dims = tuple(int(rng.integers(1, 4)) for _ in range(count))
        while sum(dims) < d:
            dims = dims + (1,)
        return gen_family(GenSpec(int(rng.integers(1 << 62)), n, d, dims))
    if index % 3 == 1 and d > 1:
        # Too few target columns to span the source.
        return gen_family(GenSpec(int(rng.integers(1 << 62)), n, d, (d - 1,)))
    # Members killed on part of the source: rank-deficient frame operator.
    dims = tuple(int(rng.integers(1, 4)) for _ in range(count))
    base = gen_family(GenSpec(int(rng.integers(1 << 62)), n, d, dims))
    mask = np.ones(n * d)
    mask[0] = 0.0
    proj = AdjointableOp(np.diag(mask).astype(np.complex128), n)
    return GFrameFamily.of(compose(m, proj) for m in base.members)


def test_criterion_2_equivalence_suite():
    rng = np.random.default_rng(102)
    frames_seen = deficient_seen = 0
    for index in range(100):
        family = _mixed_family(rng, index)
        bounds = optimal_bounds(family)
        is_frame = classify(family).kind is not FrameKind.BESSEL_ONLY
        positive = bounds.lower > 1e-12 + 1e-9 * bounds.upper
        surjective = is_surjective(synthesis_op(family))
        assert is_frame == positive == surjective
        frames_seen += int(is_frame)
        deficient_seen += int(not is_frame)
    assert frames_seen >= 20 and deficient_seen >= 20
    _verdict_line(2, f"equivalence suite ({frames_seen} frames, {deficient_seen} deficient)")


def test_criterion_3_optimal_bounds_oracle():
    rng = np.random.default_rng(103)
    for _ in range(100):
        n = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 5))))
        while sum(dims) < d:
            dims = dims + (1,)
        family = gen_family(GenSpec(int(rng.integers(1 << 62)), n, d, dims))
        bounds = optimal_bounds(family)
        s_flat = frame_operator(family).flat

        xs = (
            rng.standard_normal((500, n, n * d))
            + 1j * rng.standard_normal((500, n, n * d))
        ) / np.sqrt(2)
        grams = np.einsum("mik,mjk->mij", xs, xs.conj())
        quads = np.einsum("mik,kl,mjl->mij", xs, s_flat, xs.conj())
        eigs, vecs = np.linalg.eigh((grams + grams.conj().swapaxes(1, 2)) / 2)
        whiten = (vecs / np.sqrt(eigs)[:, None, :]) @ vecs.conj().swapaxes(1, 2)
        rayleigh = np.linalg.eigvalsh(
            whiten @ ((quads + quads.conj().swapaxes(1, 2)) / 2) @ whiten
        )
        assert rayleigh.min() >= bounds.lower - 1e-8
        assert rayleigh.max() <= bounds.upper + 1e-8

        for witness, target in zip(bound_witnesses(family), (bounds.lower, bounds.upper)):
            quad = (witness.flat @ s_flat) @ witness.flat.conj().T
            gram = (witness.flat @ witness.flat.conj().T).real
            ratio = np.trace(quad).real / np.trace(gram).real
            assert abs(ratio - target) <= 1e-8
    _verdict_line(3, "optimal-bounds oracle (100 families, 500 samples each)")


def test_criterion_4_generator_exactness():
    for seed in range(100):
        parseval = gen_family(GenSpec(seed, 2, 2, (2, 2), FamilyTarget.parseval()))
        b = optimal_bounds(parseval)
        assert abs(b.lower - 1.0) <= 1e-8 and abs(b.upper - 1.0) <= 1e-8

        shaped = gen_family(GenSpec(seed, 2, 2, (3, 2), FamilyTarget.bounds(0.5, 2.0)))
        b = optimal_bounds(shaped)
        assert abs(b.lower - 0.5) <= 1e-8 and abs(b.upper - 2.0) <= 1e-8

        first, second = gen_orthogonal_pair(
            GenSpec(seed, 2, 2, (2, 2), FamilyTarget.parseval())
        )
        assert op_norm(cross_operator(first, second)) <= 1e-12

        lam = gen_isometry(seed, 2, 2)
        assert np.linalg.norm(lam.flat @ lam.flat.conj().T - np.eye(4), 2) <= 1e-10
    _verdict_line(4, "generator exactness (100 seeds each)")


def test_criterion_5_sum_theorem_suites():
    for theorem in SUM_THEOREMS:
        for seed in range(100):
            report = build_and_run(theorem, {}, seed)
            assert report.verdict.value == "ConclusionHolds", (
                f"{theorem} seed {seed}: {report.verdict}"
            )
            scale = max(1.0, report.achieved.upper)
            if report.predicted_lower is not None:
                assert report.achieved.lower >= report.predicted_lower - 1e-8 * scale
            if report.predicted_upper is not None:
                assert report.achieved.upper <= report.predicted_upper + 1e-8 * scale
    _verdict_line(5, f"sum-theorem suites ({len(SUM_THEOREMS)} x 100 seeds)")


def test_criterion_6_tight_sum_constant():
    for alpha1, alpha2 in ((1.0, 1.0), (2.0, 3.0), (0.5, 0.25)):
        target = alpha1 + alpha2
        for seed in range(20):
            report = build_and_run(
                "TIGHT_SUM", {"alpha1": alpha1, "alpha2": alpha2}, seed
            )
            assert report.verdict.value == "ConclusionHolds"
            achieved = report.details["achieved_tight_constant"]
            assert abs(achieved - target) <= 1e-8
    _verdict_line(6, "tight-sum constants for (1,1), (2,3), (0.5,0.25)")


def test_criterion_7_stability_suites():
    for theorem in STABILITY_THEOREMS:
        for seed in range(100):
            report = build_and_run(theorem, {}, seed)
            assert report.verdict.value == "ConclusionHolds", (
                f"{theorem} seed {seed}: {report.verdict}"
            )
            if theorem == "T12_OPERATOR":
                assert (
                    report.details["contraction_norm"]
                    <= report.details["contraction_limit"] + 1e-9
                )
    _verdict_line(7, f"stability suites ({len(STABILITY_THEOREMS)} x 100 seeds)")


def test_criterion_8_cli_determinism_and_exit_codes(tmp_path):
    files = sorted(str(p) for p in SCENARIO_DIR.glob("*.json"))
    assert files
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli_main(["run", *files, "--no-timestamp", "--report", str(out1)]) == 0
    assert cli_main(["run", *files, "--no-timestamp", "--report", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    # Exit 1: a checked claim that fails while its hypotheses hold.
    family = gen_family(GenSpec(5, 2, 2, (2, 2), FamilyTarget.parseval()))
    eye = identity(2)
    weights = ScalarWeights(
        (eye,) * family.size, ((-1.0) * eye,) * family.size, 0.5, 2.0
    )
    failing = {
        "schema": 1,
        "name": "cancelling_weights",
        "theorem": "T11_POSITIVE",
        "repetitions": 1,
        "instance": {
            "family": serialize.family_to_json(family),
            "second_family": serialize.family_to_json(family),
            "weights": serialize.weights_to_json(weights),
        },
    }
    failing_path = tmp_path / "failing.json"
    failing_path.write_text(json.dumps(failing))
    failing_report = tmp_path / "failing_report.json"
    assert (
        cli_main(
            ["run", str(failing_path), "--no-timestamp", "--report", str(failing_report)]
        )
        == 1
    )
    payload = json.loads(failing_report.read_text())
    assert payload["runs"][0]["aggregate"]["ConclusionFails"] == 1

    # Exit 2: malformed input.
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert cli_main(["run", str(broken)]) == 2
    _verdict_line(8, "CLI determinism and exit-code contract")
