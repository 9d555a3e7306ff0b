"""Oracles kept apart from the package.

The package decides the two-sided frame inequality one way, from the
extreme eigenvalues of the flattened frame operator.  The functions here
decide it a second, independent way, on random module vectors plus the
eigenvector witnesses, through batched Gram matrices and quadratic
forms, so that the tests can hold the two routes against each other.
Two more oracles keep slower forms of package rules: positivity with
every norm taken by a singular-value call, and the report encoding that
asks each value whether it is a dataclass.  The ``*_form`` functions
keep the operator-level form of each Gram, mixed, conjugated and
weighted product the checkers form on the flattenings: every adjoint a
contiguous ``adjoint_op`` copy, every product a ``compose``.
"""

import math
from dataclasses import fields, is_dataclass

import numpy as np

from gframes import (
    AdjointableOp,
    AlgebraElement,
    GFrameFamily,
    adjoint_op,
    bound_witnesses,
    compose,
    frame_operator,
    identity_op,
    optimal_bounds,
    synthesis_op,
)
from gframes import serialize
from gframes.algebra import DEFAULT_TOL, Tolerance, hermitian_part, spectral_norm


def block_diag_op(a: AlgebraElement, length: int) -> AdjointableOp:
    """Operator acting as the algebra element on every component.

    This is the adjointable lift of an algebra coefficient to the whole
    module: each component of the input picks up ``a``.
    """
    return AdjointableOp(np.kron(np.eye(length), a.entries), a.dim)


def sample_flat_vectors(rng: np.random.Generator, count: int, n: int, length: int) -> np.ndarray:
    """Batch of standard complex Gaussian flattened module vectors,
    shape (count, n, n*length)."""
    shape = (count, n, n * length)
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def batched_gram(xs: np.ndarray) -> np.ndarray:
    """Inner products <x, x> = x.x* for a batch of flattened vectors.

    ``xs`` has shape (count, n, n*d); the result has shape (count, n, n).
    """
    return xs @ xs.conj().swapaxes(-1, -2)


def batched_norm(xs: np.ndarray) -> np.ndarray:
    """Module norms ||x|| = ||<x, x>||^(1/2) for a batch of flattened
    vectors: the top eigenvalue of each n x n Gram matrix."""
    top = np.linalg.eigvalsh(batched_gram(xs))[:, -1]
    return np.sqrt(np.maximum(top, 0.0))


def batched_quadratic(flat_op: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Inner products <Tx, x> for a batch of flattened vectors: one GEMM
    for every Tx, then the batched product with the conjugate samples.

    ``flat_op`` may also be a stack of operators, shape (k, n*d, n*d);
    the result then has shape (k, count, n, n).
    """
    images = (xs.reshape(-1, xs.shape[-1]) @ flat_op).reshape(flat_op.shape[:-2] + xs.shape)
    return images @ xs.conj().swapaxes(-1, -2)


def sampled_positive(quads: np.ndarray, grams: np.ndarray, scale: float, tol: Tolerance) -> bool:
    """Whether every sampled quadratic form is positive: the least
    eigenvalue of each Hermitian part clears the margin of the samples'
    Gram matrices at the given operator scale."""
    gram_scales = np.linalg.norm(grams, axis=(-2, -1))
    margins = tol.abs + tol.rel * scale * np.maximum(gram_scales, 1.0)
    return bool((np.linalg.eigvalsh(hermitian_part(quads))[:, 0] >= -margins).all())


def verify_frame_inequality(
    family: GFrameFamily,
    lower: float,
    upper: float,
    samples: int = 500,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
) -> bool:
    """Check the two-sided frame inequality for the given constants.

    Runs a spectral check against the optimal bounds and a sampled
    positive-semidefinite check on random vectors plus the extreme
    eigenvector witnesses; the two routes must agree, otherwise an
    AssertionError is raised.
    """
    if lower > upper:
        raise ValueError("lower bound exceeds upper bound")
    bounds = optimal_bounds(family)
    scale = max(bounds.upper, abs(lower), abs(upper), 1.0)
    margin = tol.margin(scale)
    spectral_ok = (lower <= bounds.lower + margin) and (bounds.upper <= upper + margin)

    n, d = family.algebra_dim, family.source_len
    xs = sample_flat_vectors(np.random.default_rng(seed), samples, n, d)
    lo, hi = bound_witnesses(family)
    xs = np.concatenate([xs, np.stack([lo.flat, hi.flat])])
    s_flat = frame_operator(family).flat
    grams = batched_gram(xs)
    quads = batched_quadratic(s_flat, xs)
    sampled_ok = sampled_positive(quads - lower * grams, grams, scale, tol) and sampled_positive(
        upper * grams - quads, grams, scale, tol
    )

    assert sampled_ok == spectral_ok, (
        "sampled and spectral frame-inequality checks disagree:"
        f" sampled={sampled_ok} spectral={spectral_ok}"
        f" for bounds ({lower}, {upper}) vs optimal ({bounds.lower}, {bounds.upper})"
    )
    return spectral_ok


def svd_positivity(mat: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> tuple[bool, float, float]:
    """The positivity rule on one square matrix, with its norm and the
    norm of its skew part each taken by its own singular-value call; the
    least value of a matrix that fails the Hermitian test is minus that
    skew norm."""
    margin = tol.margin(np.linalg.svd(mat, compute_uv=False)[0])
    least = float(np.linalg.eigvalsh(hermitian_part(mat))[0])
    skew = float(np.linalg.svd(mat - mat.conj().T, compute_uv=False)[0])
    if skew > margin:
        return False, -skew, float(margin)
    return bool(least >= -margin), least, float(margin)


def walk_to_json(value):
    """Strict JSON form of a report value, asking each value whether it
    is a dataclass and listing its fields anew."""
    if is_dataclass(value):
        return {f.name: walk_to_json(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [walk_to_json(item) for item in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def walk_report_to_json(report) -> dict:
    """``serialize.report_to_json`` with every value encoded by ``walk_to_json``."""
    data = {"theorem": report.theorem_id, "verdict": report.verdict.value}
    for key in serialize._REPORT_KEYS:
        data[key] = walk_to_json(getattr(report, key))
    data["details"] = {k: walk_to_json(report.details[k]) for k in sorted(report.details)}
    return data


def gram_form(family: GFrameFamily) -> AdjointableOp:
    """Frame operator T*T."""
    return compose(adjoint_op(family.analysis), family.analysis)


def cross_form(left: GFrameFamily, right: GFrameFamily) -> AdjointableOp:
    """Mixed operator T_left* T_right."""
    return compose(adjoint_op(left.analysis), right.analysis)


def isometry_defect_form(op: AdjointableOp) -> float:
    """||T*T - I||."""
    gram = compose(adjoint_op(op), op).flat
    return spectral_norm(gram - np.eye(gram.shape[0], dtype=np.complex128))


def member_sums_form(family: GFrameFamily, other: GFrameFamily) -> AdjointableOp:
    """Analysis operator T_P + T_Q of the member sums."""
    return family.analysis + other.analysis


def mn_form(family, other, m_op, n_op) -> AdjointableOp:
    """Analysis operator T_P.M + T_Q.N."""
    return compose(family.analysis, m_op) + compose(other.analysis, n_op)


def weighted_form(family: GFrameFamily, coeffs) -> AdjointableOp:
    """Analysis operator of the family weighted by the algebra
    coefficients, the coefficients stacked anew."""
    n, rows = family.algebra_dim, family.algebra_dim * family.source_len
    blocks = family.analysis.flat.reshape(rows, -1, n).swapaxes(0, 1)
    lifted = np.repeat([w.entries for w in coeffs], family.member_dims, axis=0)
    return AdjointableOp((blocks @ lifted).swapaxes(0, 1).reshape(rows, -1), n)


def conjugation_form(family: GFrameFamily, lam: AdjointableOp) -> AdjointableOp:
    """(I + lam)* S (I + lam)."""
    shifted = identity_op(family.algebra_dim, family.source_len) + lam
    return adjoint_op(shifted) @ gram_form(family) @ shifted


def combined_synthesis_form(family, other, m_op, n_op) -> AdjointableOp:
    """M* T_P* + N* T_Q*."""
    mh, nh = adjoint_op(m_op), adjoint_op(n_op)
    return mh @ synthesis_op(family) + nh @ synthesis_op(other)


def mn_formula_form(family, other, m_op, n_op) -> AdjointableOp:
    """M*S_P M + M*T_P*T_Q N + N*T_Q*T_P M + N*S_Q N."""
    mh, nh = adjoint_op(m_op), adjoint_op(n_op)
    cross = cross_form(family, other)
    return (
        mh @ gram_form(family) @ m_op
        + mh @ cross @ n_op
        + nh @ adjoint_op(cross) @ m_op
        + nh @ gram_form(other) @ n_op
    )


def sum_formula_form(family: GFrameFamily, other: GFrameFamily) -> AdjointableOp:
    """S_P + T_P*T_Q + T_Q*T_P + S_Q."""
    cross = cross_form(family, other)
    return gram_form(family) + cross + adjoint_op(cross) + gram_form(other)


def combo_form(m_op, n_op, alpha1: float, alpha2: float) -> AdjointableOp:
    """alpha1 M*M + alpha2 N*N."""
    return alpha1 * (adjoint_op(m_op) @ m_op) + alpha2 * (adjoint_op(n_op) @ n_op)


def perturbed_form(family: GFrameFamily, lam: AdjointableOp) -> AdjointableOp:
    """Analysis operator of the members composed with (I + lam)."""
    return compose(family.analysis, identity_op(family.algebra_dim, family.source_len) + lam)


def difference_form(left: AdjointableOp, right: AdjointableOp) -> AdjointableOp:
    """Analysis operator T_P - T_Q of the member differences, from T_P and T_Q."""
    return left - right
