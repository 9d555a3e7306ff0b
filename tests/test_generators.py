"""Generator postconditions: exactness, determinism, degeneracy errors."""

import numpy as np
import pytest

from gframes import (
    BadRange,
    DegenerateSpec,
    FamilyTarget,
    GenSpec,
    classify,
    compose,
    cross_operator,
    FrameKind,
    gen_family,
    gen_isometry,
    gen_orthogonal_pair,
    gen_weights,
    ScalarWeights,
    identity,
    op_norm,
    optimal_bounds,
)
from gframes._rand import (
    complex_gaussian,
    haar_unitaries,
    haar_unitary,
    make_rng,
    sub_seed,
)
from gframes.generators import _condition_to_target
from gframes.registry import _gen_weights, build_and_run


def test_gen_family_is_deterministic():
    spec = GenSpec(12345, 2, 2, (2, 3), FamilyTarget.parseval())
    first = gen_family(spec)
    second = gen_family(spec)
    for a, b in zip(first.members, second.members):
        assert np.array_equal(a.flat, b.flat)


def test_parseval_target_hits_unit_bounds():
    for seed in range(100):
        family = gen_family(GenSpec(seed, 2, 2, (2, 2), FamilyTarget.parseval()))
        bounds = optimal_bounds(family)
        assert abs(bounds.lower - 1.0) <= 1e-8
        assert abs(bounds.upper - 1.0) <= 1e-8
        assert classify(family).kind is FrameKind.PARSEVAL_FRAME


def test_tight_target():
    for seed in range(20):
        family = gen_family(GenSpec(seed, 1, 2, (2, 2), FamilyTarget.tight(3.0)))
        bounds = optimal_bounds(family)
        assert bounds.lower == pytest.approx(3.0, abs=1e-8)
        assert bounds.upper == pytest.approx(3.0, abs=1e-8)


def test_bounds_target_places_spectrum_exactly():
    for seed in range(100):
        family = gen_family(GenSpec(seed, 2, 2, (3, 2), FamilyTarget.bounds(0.5, 2.0)))
        bounds = optimal_bounds(family)
        assert bounds.lower == pytest.approx(0.5, abs=1e-8)
        assert bounds.upper == pytest.approx(2.0, abs=1e-8)
        assert classify(family).kind is not FrameKind.BESSEL_ONLY


def test_a_target_is_its_pair_of_bounds():
    assert FamilyTarget.parseval() == FamilyTarget.tight(1.0) == FamilyTarget.bounds(1.0, 1.0)
    assert FamilyTarget.random() == FamilyTarget()
    for lower, upper in ((1.0, None), (None, 1.0), (2.0, 1.0), (0.0, 1.0), (1.0, np.inf)):
        with pytest.raises(BadRange):
            FamilyTarget(lower, upper)


@pytest.mark.parametrize("nu", [0.5, 3.0])
def test_equal_bounds_take_the_tight_path(nu):
    for seed in range(20):
        tight = gen_family(GenSpec(seed, 2, 2, (2, 3), FamilyTarget.tight(nu)))
        equal = gen_family(GenSpec(seed, 2, 2, (2, 3), FamilyTarget.bounds(nu, nu)))
        assert np.array_equal(tight.analysis.flat, equal.analysis.flat), seed
    # A one-dimensional flattening admits equal bounds only.
    family = gen_family(GenSpec(0, 1, 1, (1, 1), FamilyTarget.bounds(nu, nu)))
    assert optimal_bounds(family).lower == pytest.approx(nu, rel=1e-9)


def test_gen_family_degenerate_span():
    with pytest.raises(DegenerateSpec):
        gen_family(GenSpec(0, 2, 3, (1, 1), FamilyTarget.parseval()))
    with pytest.raises(DegenerateSpec):
        gen_family(GenSpec(0, 1, 1, (2,), FamilyTarget.bounds(0.5, 2.0)))


def test_random_target_allows_rank_deficiency():
    family = gen_family(GenSpec(5, 2, 3, (1,)))
    assert classify(family).kind is FrameKind.BESSEL_ONLY


def test_orthogonal_pair_has_exactly_zero_cross_term():
    for seed in range(100):
        first, second = gen_orthogonal_pair(
            GenSpec(seed, 1, 2, (4, 4), FamilyTarget.parseval())
        )
        assert op_norm(cross_operator(first, second)) <= 1e-12
        assert optimal_bounds(first).parseval
        assert optimal_bounds(second).parseval


def test_orthogonal_pair_member_level_orthogonality():
    first, second = gen_orthogonal_pair(GenSpec(9, 2, 2, (2, 2), FamilyTarget.parseval()))
    for p, q in zip(first.members, second.members):
        assert np.linalg.norm(q.flat @ p.flat.conj().T, 2) <= 1e-13


def test_orthogonal_pair_degeneracy():
    with pytest.raises(DegenerateSpec):
        gen_orthogonal_pair(GenSpec(0, 2, 2, (1, 2), FamilyTarget.parseval()))
    with pytest.raises(DegenerateSpec):
        # Halved columns cannot span a length-3 module.
        gen_orthogonal_pair(GenSpec(0, 1, 3, (2, 2), FamilyTarget.parseval()))


def test_gen_isometry_postcondition():
    for seed in range(100):
        lam = gen_isometry(seed, 2, 2)
        gram = lam.flat @ lam.flat.conj().T
        assert np.linalg.norm(gram - np.eye(4), 2) <= 1e-10


def test_isometry_preserves_parseval():
    family = gen_family(GenSpec(3, 2, 2, (2, 2), FamilyTarget.parseval()))
    lam = gen_isometry(4, 2, 2)
    moved = type(family).of(compose(m, lam) for m in family.members)
    bounds = optimal_bounds(moved)
    assert bounds.lower == pytest.approx(1.0, abs=1e-8)
    assert bounds.upper == pytest.approx(1.0, abs=1e-8)


def test_gen_weights_band_invariants():
    for seed in range(50):
        weights = gen_weights(seed, 2, 4, 0.8, 1.3)
        for w in weights.thetas + weights.deltas:
            eigs = np.linalg.eigvalsh(w.entries.conj().T @ w.entries)
            assert eigs[0] > 0.8
            assert eigs[-1] < 1.3


def test_gen_weights_degenerate_band_gives_near_scalars():
    weights = gen_weights(7, 2, 2, 4.0 - 1e-6, 4.0 + 1e-6)
    for w in weights.thetas:
        np.testing.assert_allclose(w.entries, 2.0 * np.eye(2), atol=1e-6)


def test_gen_weights_bad_range():
    with pytest.raises(BadRange):
        gen_weights(0, 2, 2, 1.5, 1.0)
    with pytest.raises(BadRange):
        gen_weights(0, 2, 0, 0.5, 1.0)


def test_distinct_seeds_differ():
    a = gen_isometry(1, 2, 2)
    b = gen_isometry(2, 2, 2)
    assert np.linalg.norm(a.flat - b.flat, 2) > 0.01


def _haar_reference(rng, m):
    """One Haar draw as defined per matrix: Ginibre, 2-D QR, phase fix."""
    re = rng.standard_normal((m, m))
    im = rng.standard_normal((m, m))
    q, r = np.linalg.qr((re + 1j * im) / np.sqrt(2.0))
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


@pytest.mark.parametrize("m", [1, 2, 4, 9])
@pytest.mark.parametrize("k", [1, 3])
def test_haar_unitaries_equal_sequential_draws_to_the_bit(m, k):
    for seed in range(4):
        batch_rng, seq_rng, ref_rng = make_rng(seed), make_rng(seed), make_rng(seed)
        batch = haar_unitaries(batch_rng, k, m)
        sequential = [haar_unitary(seq_rng, m) for _ in range(k)]
        reference = [_haar_reference(ref_rng, m) for _ in range(k)]
        assert batch.shape == (k, m, m)
        for got, seq, ref in zip(batch, sequential, reference):
            assert np.array_equal(got, seq)
            assert np.array_equal(got, ref)
        # The stream is left where the sequential draws leave it.
        after = batch_rng.standard_normal(3)
        assert np.array_equal(after, seq_rng.standard_normal(3))
        assert np.array_equal(after, ref_rng.standard_normal(3))


@pytest.mark.parametrize("n, count", [(1, 1), (1, 3), (2, 2), (3, 5), (4, 1)])
def test_gen_weights_equal_a_per_draw_reference_to_the_bit(n, count):
    lower, upper = 0.7, 1.4
    pad = 0.05 * (upper - lower)
    for seed in range(3):
        rng = make_rng(seed)
        expected = []
        for _ in range(2 * count):
            squared = rng.uniform(lower + pad, upper - pad, n)
            basis = _haar_reference(rng, n)
            expected.append((basis * np.sqrt(squared)) @ basis.conj().T)
        weights = gen_weights(seed, n, count, lower, upper)
        got = [w.entries for w in weights.thetas + weights.deltas]
        assert len(got) == 2 * count
        for mat, want in zip(got, expected):
            assert np.array_equal(mat, want)


def _counting(monkeypatch, *names):
    """Count calls of the named numpy.linalg functions."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


@pytest.mark.parametrize("n, count", [(1, 1), (2, 4), (3, 5)])
def test_gen_weights_makes_one_qr_and_one_eigvalsh(monkeypatch, n, count):
    counts = _counting(monkeypatch, "qr", "eigvalsh", "eigh")
    gen_weights(11, n, count, 0.8, 1.25)
    assert counts == {"qr": 1, "eigvalsh": 1, "eigh": 0}
    eye = identity(n)
    counts.update(dict.fromkeys(counts, 0))
    ScalarWeights((eye,) * count, (eye,) * count, 0.5, 2.0)
    assert counts == {"qr": 0, "eigvalsh": 1, "eigh": 0}


@pytest.mark.parametrize("theorem", ["THM_DIFFERENCE", "T11_POSITIVE"])
def test_shared_weights_are_validated_once(monkeypatch, theorem):
    built = []
    original = ScalarWeights.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ScalarWeights, "__post_init__", counted)
    # Seed 1 draws T11_POSITIVE in its shared-weight ("same") mode.
    build_and_run(theorem, {}, 1)
    assert len(built) == 1
    assert all(t is d for t, d in zip(built[0].thetas, built[0].deltas))


def test_shared_weights_factor_only_the_thetas(monkeypatch):
    stacks = []
    original = np.linalg.qr

    def recorded(z, *args, **kwargs):
        stacks.append(z.shape)
        return original(z, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    weights = _gen_weights(make_rng(3), 2, 4, (0.7, 1.4), shared=True)
    assert stacks == [(4, 2, 2)]
    assert len(weights.thetas) == 4


@pytest.mark.parametrize("shared", [False, True])
def test_registry_weights_are_gen_weights_and_keep_the_stream(shared):
    for seed in range(3):
        rng, ref = make_rng(seed), make_rng(seed)
        got = _gen_weights(rng, 2, 4, (0.7, 1.4), shared)
        want = gen_weights(sub_seed(ref), 2, 4, 0.7, 1.4)
        deltas = want.thetas if shared else want.deltas
        for a, b in zip(got.thetas + got.deltas, want.thetas + deltas):
            assert np.array_equal(a.entries, b.entries)
        assert (got.band_lower, got.band_upper) == (0.7, 1.4)
        assert rng.integers(1 << 62) == ref.integers(1 << 62)


@pytest.mark.parametrize(
    "target", [FamilyTarget.parseval(), FamilyTarget.tight(2.0), FamilyTarget.bounds(0.5, 2.0)]
)
def test_condition_to_target_makes_one_eigh_and_no_eigvalsh(monkeypatch, target):
    rng = make_rng(5)
    flat = np.hstack([complex_gaussian(rng, 6, 2 * dz) for dz in (2, 3, 2)])
    counts = _counting(monkeypatch, "eigh", "eigvalsh")
    conditioned = _condition_to_target(flat, target, rng)
    assert conditioned is not None
    assert counts == {"eigh": 1, "eigvalsh": 0}
