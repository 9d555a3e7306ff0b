"""Theorem registry and instance construction.

Maps theorem identifiers to builders that assemble a checkable instance
(either generated from a seed or deserialized inline) and run the
corresponding checker.  The same builders back both the scenario runner
and the acceptance suites, so "hypothesis-satisfying generator" means
one thing throughout the repository.
"""

from __future__ import annotations

import math
from types import MappingProxyType

import numpy as np

from . import serialize
from ._rand import complex_gaussian, haar_unitaries, haar_unitary, make_rng, sub_seed
from .algebra import DEFAULT_TOL, AlgebraElement, Tolerance, spectral_norm
from .errors import DegenerateSpec, ValidationError
from .frames import GFrameFamily, classify, member_grams, optimal_bounds, scale_family
from .generators import (
    FamilyTarget,
    GenSpec,
    gen_family,
    gen_isometry,
    gen_orthogonal_pair,
    gen_weights,
    weight_matrices,
)
from .hilbert import AdjointableOp, identity_op, zero_op
from .serialize import BAND, decode_fields, is_int, is_pair, is_positive_number
from .sums import (
    ScalarWeights,
    isometry_sum_check,
    lambda_lower_check,
    op_weighted_sum,
    perturb_lambda,
    scalar_weighted_sum,
    t3_corollary_check,
    t11_check,
    theorem_report,
    tight_mn_check,
    tight_sum_check,
)
from .stability import (
    difference_check,
    final_corollary_check,
    operators_from_family,
    prop_mixed_check,
    t12_check,
)


# The object forms of a family target, each alone in its object.
_TARGET_FIELDS = {
    "tight": ("a positive number", is_positive_number,
              lambda v: FamilyTarget.tight(float(v))),
    "bounds": ("a list [lower, upper] of positive numbers with lower <= upper", is_pair,
               lambda v: FamilyTarget.bounds(*map(float, v))),
}


def parse_target(data) -> FamilyTarget:
    """Accepts "random" | "parseval" | {"tight": nu} | {"bounds": [lo, hi]}."""
    if data in ("random", "parseval"):
        return FamilyTarget(data)
    targets = list(decode_fields(data, _TARGET_FIELDS, "family target").values())
    if len(targets) != 1:
        raise ValidationError('a family target object holds one of "tight" and "bounds"')
    return targets[0]


# Cap on the flattened sizes n*d and n*d_i of an instance.  The work per
# repetition grows with these (eigendecompositions of (n*d)-square frame
# operators), and a size numpy cannot allocate would otherwise crash.
MAX_FLAT_SIZE = 64
# The size fields, by the size each sets.
_SIZE_FIELDS = {"algebra_dim": "n", "module_len": "d", "member_dims": "dims"}
_OPERATOR_FIELDS = ("lambda", "m", "n", "delta_ops")
# The inline array fields, and the instance fields that set sizes, in
# order of precedence.
_ARRAY_FIELDS = ("family", "second_family", "weights", *_OPERATOR_FIELDS)
_SIZE_SOURCES = (*_SIZE_FIELDS, *_ARRAY_FIELDS)


def _is_size(value) -> bool:
    return is_int(value) and 0 < value <= MAX_FLAT_SIZE


# The kinds of the instance fields, as ``serialize.decode_fields`` reads them.
_FIELD_KINDS = {
    **dict.fromkeys(
        ("algebra_dim", "module_len"),
        (f"a positive integer at most {MAX_FLAT_SIZE}", _is_size, int),
    ),
    "member_dims": (
        f"a nonempty list of positive integers at most {MAX_FLAT_SIZE}",
        lambda v: isinstance(v, list) and v and all(map(_is_size, v)),
        tuple,
    ),
    **dict.fromkeys(("family", "second_family"), serialize.FAMILY),
    **dict.fromkeys(("lambda", "m", "n"), serialize.OPERATOR),
    "delta_ops": serialize.OPERATORS,
    "weights": serialize.WEIGHTS,
    **dict.fromkeys(
        ("family_target", "second_family_target"),
        ('"random", "parseval", {"tight": nu} or {"bounds": [lo, hi]}',
         lambda v: isinstance(v, (str, dict)), parse_target),
    ),
    "weight_band": BAND,
    **dict.fromkeys(
        ("alpha", "alpha1", "alpha2", "bessel_ratio", "bessel_upper")
        + ("budget_fraction", "lambda_bound"),
        ("a positive number", is_positive_number, float),
    ),
}


def _schema(declared: str) -> tuple[dict[str, tuple], tuple[tuple[str, ...], ...]]:
    """Kinds of the size fields and of the space-separated ``declared``
    fields, and the groups of fields joined by ``+``, which must come
    together; ``key=x|y`` restricts a field to the listed values."""
    declared = f"algebra_dim module_len member_dims {declared}"
    groups = tuple(tuple(t.split("+")) for t in declared.split() if "+" in t)
    fields = {}
    for token in declared.replace("+", " ").split():
        key, _, options = token.partition("=")
        choices = tuple(options.split("|"))
        kind = (" or ".join(map(repr, choices)), choices.__contains__, str)
        fields[key] = kind if options else _FIELD_KINDS[key]
    return fields, groups


def validate_instance(theorem: str, instance) -> MappingProxyType:
    """The decoded values of the instance's non-null fields, once every
    instance rule holds: each field is known to the theorem and
    well-formed, each size a field fixes agrees with the first field that
    fixes it, and the fields of each ``+`` group come all or none.  Draws
    nothing from any generator, so generated instances do not depend on
    validation.  The mapping and its values are read-only: one decode may
    serve every repetition of a scenario."""
    if theorem not in THEOREMS:
        raise ValidationError(f"unknown theorem id {theorem!r}")
    _, _, fields, groups, _ = THEOREMS[theorem]
    cfg = decode_fields({} if instance is None else instance, fields, f"{theorem} instance")
    fixed = _fixed_sizes(cfg)
    sources = {size: (key, value) for key, size, value in reversed(fixed)}
    if "dims" in sources:
        # A field that fixes the member dims fixes the count and comes first.
        setter, dims = sources["dims"]
        sources["members"] = (setter, len(dims))
    for key, size, value in fixed:
        source, given = sources[size]
        if value != given:
            first, second = f"{size} = {given!r}", f"{size} = {value!r}"
            said = f"{second}, but {source!r} gives {first}"
            if source == key:
                said = f"both {first} and {second}"
            raise ValidationError(f"instance field {key!r} gives {said}")
    for group in groups:
        missing = [key for key in group if key not in cfg]
        if 0 < len(missing) < len(group):
            raise ValidationError(
                f"instance field {missing[0]!r} is required together with"
                f" {', '.join(repr(key) for key in group if key in cfg)}"
            )
    return MappingProxyType(cfg)


def _fixed_sizes(cfg) -> list[tuple[str, str, object]]:
    """(field, size, value) for each size a present field fixes, by
    precedence: the first field that fixes a size sets it.  Beside an
    inline family a second family fixes none: how two inline families fit
    together is the checker's to decide."""
    fixed = []
    for key, value in ((key, cfg.get(key)) for key in _SIZE_SOURCES):
        if value is None or key == "second_family" and "family" in cfg:
            continue
        if key in _SIZE_FIELDS:
            fixed.append((key, _SIZE_FIELDS[key], value))
        elif key in ("family", "second_family"):
            shape = (value.algebra_dim, value.source_len, value.member_dims)
            fixed += zip([key] * 3, ("n", "d", "dims"), shape)
        elif key == "weights":
            fixed += [(key, "n", value.algebra_dim), (key, "members", value.count)]
        else:
            ops = value if key == "delta_ops" else (value,)
            for op in ops:
                # An operator maps a module of length d to itself.
                shape = (op.algebra_dim, op.source_len, op.target_len)
                fixed += zip([key] * 3, ("n", "d", "d"), shape)
            if key == "delta_ops":
                fixed.append((key, "members", len(ops)))
    return fixed


def _sizes(
    cfg: dict, rng, *, even_dims: bool = False, min_flat: int = 1
) -> tuple[int, int, tuple[int, ...]]:
    """Instance sizes: each from the first field that fixes it, else drawn
    at desk scale in the order n, d, member count, member dims.  The
    fields agree, as ``validate_instance`` has checked; the sizes must
    keep n*d and every n*d_i within ``MAX_FLAT_SIZE``.

    ``min_flat`` forces a drawn flattening dimension n*d upward, for
    builders whose targets need room for two distinct bounds; a declared
    bounds target with lower < upper needs it as well.
    """
    targets = (cfg.get("family_target"), cfg.get("second_family_target"))
    if any(t is not None and t.kind == "bounds" and t.lower < t.upper for t in targets):
        min_flat = max(min_flat, 2)
    fixed = {size: value for _, size, value in reversed(_fixed_sizes(cfg))}
    n = fixed.get("n") or int(rng.integers(1, 4))
    d = fixed.get("d")
    if d is None:
        d = int(rng.integers(1, 4))
        while n * d < min_flat:
            d += 1
    dims = fixed.get("dims")
    if dims is None:
        count = fixed.get("members") or int(rng.integers(2, 6))
        if even_dims:
            dims = tuple(int(rng.choice((2, 4))) for _ in range(count))
        else:
            dims = tuple(int(rng.integers(1, d + 3)) for _ in range(count))
        pad = 2 if even_dims else 1
        while sum(dims) < pad * d:
            dims = dims + (pad,)
        if "members" in fixed:
            # Padding members merge into the last one: the count is fixed.
            dims = dims[: count - 1] + (sum(dims[count - 1 :]),)
    flat = n * max(d, *dims)
    if flat > MAX_FLAT_SIZE:
        named = ", ".join(repr(key) for key in _SIZE_SOURCES if key in cfg)
        raise ValidationError(
            f"the sizes from {named} give a flattened size"
            f" n*max(d, d_i) = {flat}, above the cap of {MAX_FLAT_SIZE}"
        )
    return n, d, dims


def _family(cfg, key, rng, n, d, dims, default_target) -> GFrameFamily:
    if key in cfg:
        return cfg[key]
    target = cfg.get(f"{key}_target", default_target)
    return gen_family(GenSpec(sub_seed(rng), n, d, dims, target))


def _random_endo(rng, n, d, scale=1.0) -> AdjointableOp:
    return AdjointableOp(scale * complex_gaussian(rng, n * d, n * d), n)


def _gen_weights(rng, n, count, band, shared=False) -> ScalarWeights:
    """Weights drawn inside ``band``.  With ``shared`` the thetas serve as
    the deltas too: a shared coefficient sequence keeps the weighted mixed
    term positive whenever the unweighted one is."""
    seed = sub_seed(rng)
    if not shared:
        return gen_weights(seed, n, count, *band)
    mats = weight_matrices(seed, n, count, *band)
    thetas = tuple(AlgebraElement(mat) for mat in mats)
    return ScalarWeights(thetas, thetas, *band)


def _bessel_partner(rng, family: GFrameFamily, target_upper: float) -> GFrameFamily:
    """A random family on the same members as ``family``, scaled so that
    its optimal upper bound equals target_upper."""
    n, d = family.algebra_dim, family.source_len
    raw = gen_family(GenSpec(sub_seed(rng), n, d, family.member_dims))
    current = optimal_bounds(raw).upper
    if current <= 0.0:
        return raw
    return scale_family(raw, math.sqrt(target_upper / current))


# Each theorem: its builder, a description (the builder's docstring), its
# declared instance schema, its groups of fields that come together and
# the ``_sizes`` options it draws with.
THEOREMS: dict[str, tuple] = {}


def _theorem(theorem_id: str, fields: str, min_flat: int = 2, even_dims=False):
    """Register a builder under ``theorem_id`` with the instance fields
    it reads, declared as ``_schema`` parses them."""

    def register(builder):
        sizing = {"min_flat": min_flat, "even_dims": even_dims}
        THEOREMS[theorem_id] = (builder, builder.__doc__, *_schema(fields), sizing)
        return builder

    return register


# Builders.  Each receives the validated instance config, the seed, its
# generator with the sizes already drawn, and a tolerance, assembles
# inputs (inline values win over generation), and runs the checker.
# Generated instances satisfy the theorem hypotheses by construction so
# that seeded suites exercise the asserted branch.


@_theorem("CLASSIFY", "family family_target", min_flat=1)
def _build_classify(cfg, seed, rng, n, d, dims, tol):
    """classify a family and report its optimal bounds"""
    family = _family(cfg, "family", rng, n, d, dims, FamilyTarget.parseval())
    # Classifying asserts no claim, so every family concludes.
    return theorem_report(
        "CLASSIFY", classify(family, tol), (), None, None, tol, conclusion=True
    )


@_theorem(
    "PERTURB_LAMBDA",
    "family family_target lambda lambda_kind=expansive|scalar|zero",
)
def _build_perturb_lambda(cfg, seed, rng, n, d, dims, tol):
    """members composed with (I + L) under the conjugation-dominance hypothesis"""
    kind = cfg.get("lambda_kind", "expansive" if seed % 2 == 0 else "scalar")
    if kind == "expansive":
        target = FamilyTarget.parseval()
    else:
        target = FamilyTarget.bounds(0.5, 2.0)
    family = _family(cfg, "family", rng, n, d, dims, target)
    if "lambda" in cfg:
        lam = cfg["lambda"]
    elif kind == "expansive":
        stretch = rng.uniform(1.05, 1.8, n * d)
        left, right = haar_unitaries(rng, 2, n * d)
        expansive = (left * stretch) @ right
        lam = AdjointableOp(expansive - np.eye(n * d), n)
    elif kind == "scalar":
        lam = float(rng.uniform(0.0, 1.0)) * identity_op(n, d)
    else:
        lam = zero_op(n, d, d)
    _, report = perturb_lambda(family, lam, tol)
    return report


@_theorem(
    "T3_EQUIV",
    "family family_target second_family second_family_target m n",
    min_flat=1,
)
def _build_t3_equiv(cfg, seed, rng, n, d, dims, tol):
    """three-way equivalence for members P.M + Q.N"""
    family = _family(cfg, "family", rng, n, d, dims, FamilyTarget.random())
    other = _family(cfg, "second_family", rng, n, d, dims, FamilyTarget.random())
    if "m" in cfg:
        m_op = cfg["m"]
    elif seed % 7 == 0:
        m_op = identity_op(n, d)
    else:
        m_op = _random_endo(rng, n, d)
    if "n" in cfg:
        n_op = cfg["n"]
    elif seed % 5 == 0:
        n_op = zero_op(n, d, d)
    else:
        n_op = _random_endo(rng, n, d)
    _, report = op_weighted_sum(family, other, m_op, n_op, tol)
    return report


def _positive_mixed_pair(rng, n, d, dims, orthogonal, ranges=((0.2, 1.5), (0.3, 1.3))):
    """A pair with positive mixed operator: on complementary columns (zero
    mixed operator), or a scaled copy.  The second family's squared scale
    is drawn from ``ranges[0]`` or ``ranges[1]`` respectively."""
    if orthogonal:
        pair = _orthogonal_pair(rng, n, d, dims)
        first = scale_family(pair[0], math.sqrt(float(rng.uniform(0.8, 2.0))))
        second = scale_family(pair[1], math.sqrt(float(rng.uniform(*ranges[0]))))
        return first, second
    family = gen_family(
        GenSpec(sub_seed(rng), n, d, dims, FamilyTarget.bounds(0.8, 2.0))
    )
    other = scale_family(family, math.sqrt(float(rng.uniform(*ranges[1]))))
    return family, other


@_theorem("T3_COROLLARY", "family+second_family mode=scaled|orthogonal")
def _build_t3_corollary(cfg, seed, rng, n, d, dims, tol):
    """plain member sums with positive mixed operator"""
    if "family" in cfg:
        return t3_corollary_check(cfg["family"], cfg["second_family"], tol)
    mode = cfg.get("mode", "scaled" if seed % 2 == 0 else "orthogonal")
    family, other = _positive_mixed_pair(rng, n, d, dims, mode == "orthogonal")
    return t3_corollary_check(family, other, tol)


@_theorem(
    "T7_SCALAR",
    "family family_target second_family weights weight_band bessel_ratio",
)
def _build_t7_scalar(cfg, seed, rng, n, d, dims, tol):
    """coefficient-weighted sums with a dominated Bessel term"""
    band = cfg.get("weight_band", (0.8, 1.25))
    family = _family(cfg, "family", rng, n, d, dims, FamilyTarget.bounds(1.0, 2.5))
    if "weights" in cfg:
        weights = cfg["weights"]
    else:
        weights = _gen_weights(rng, n, family.size, band)
    if "second_family" in cfg:
        other = cfg["second_family"]
    else:
        # Hypothesis headroom: weighted Bessel term at 40% of the
        # weighted frame term.
        ratio = cfg.get("bessel_ratio", 0.4)
        lower_f = optimal_bounds(family).lower
        target = ratio * weights.band_lower * lower_f / weights.band_upper
        other = _bessel_partner(rng, family, target)
    _, report = scalar_weighted_sum(family, other, weights, tol)
    return report


@_theorem(
    "T11_POSITIVE",
    "family+second_family+weights weight_band mode=orthogonal|same",
)
def _build_t11(cfg, seed, rng, n, d, dims, tol):
    """coefficient-weighted sums of two frames with positive mixed operator"""
    band = cfg.get("weight_band", (0.7, 1.4))
    if "family" in cfg:
        return t11_check(cfg["family"], cfg["second_family"], cfg["weights"], tol)
    mode = cfg.get("mode", "orthogonal" if seed % 2 == 0 else "same")
    orthogonal = mode == "orthogonal"
    ranges = ((0.8, 2.0), (0.3, 1.2))
    family, other = _positive_mixed_pair(rng, n, d, dims, orthogonal, ranges)
    weights = _gen_weights(rng, n, family.size, band, shared=not orthogonal)
    return t11_check(family, other, weights, tol)


def _orthogonal_pair(rng, n, d, dims) -> tuple[GFrameFamily, GFrameFamily]:
    """Two Parseval families on complementary columns (zero mixed operator),
    with member dims evened so that the column halves can span the module."""
    even = tuple(dz + (dz % 2) for dz in dims)
    while sum(even) < 2 * d:
        even = even + (2,)
    return gen_orthogonal_pair(
        GenSpec(sub_seed(rng), n, d, even, FamilyTarget.parseval())
    )


def _tight_pair(cfg, rng, n, d, dims):
    """The inline pair, or an orthogonal pair with tight constants alpha1, alpha2."""
    if "family" in cfg:
        return cfg["family"], cfg["second_family"]
    first, second = _orthogonal_pair(rng, n, d, dims)
    return (
        scale_family(first, math.sqrt(cfg.get("alpha1", 1.0))),
        scale_family(second, math.sqrt(cfg.get("alpha2", 1.0))),
    )


@_theorem("TIGHT_SUM", "family+second_family alpha1 alpha2", min_flat=1, even_dims=True)
def _build_tight_sum(cfg, seed, rng, n, d, dims, tol):
    """sum of two tight families with vanishing mixed operator"""
    family, other = _tight_pair(cfg, rng, n, d, dims)
    return tight_sum_check(family, other, tol)


@_theorem("ISOMETRY_SUM", "family+second_family lambda mode=scaled|orthogonal")
def _build_isometry_sum(cfg, seed, rng, n, d, dims, tol):
    """member sums composed with an isometry"""
    if "family" in cfg:
        family, other = cfg["family"], cfg["second_family"]
    else:
        mode = cfg.get("mode", "scaled" if seed % 2 == 0 else "orthogonal")
        family, other = _positive_mixed_pair(rng, n, d, dims, mode == "orthogonal")
    if "lambda" in cfg:
        lam = cfg["lambda"]
    else:
        lam = gen_isometry(sub_seed(rng), n, d)
    return isometry_sum_check(family, other, lam, tol)


@_theorem(
    "LAMBDA_LOWER",
    "family family_target second_family bessel_upper m+n+lambda_bound",
)
def _build_lambda_lower(cfg, seed, rng, n, d, dims, tol):
    """members P.M + Q.N with N bounded below"""
    family = _family(cfg, "family", rng, n, d, dims, FamilyTarget.bounds(1.0, 2.0))
    if "second_family" in cfg:
        other = cfg["second_family"]
    else:
        other = _bessel_partner(rng, family, cfg.get("bessel_upper", 0.2))
    if "m" in cfg:
        m_op, n_op, lam_bound = cfg["m"], cfg["n"], cfg["lambda_bound"]
    else:
        svals = rng.uniform(0.6, 0.9, n * d)
        left, right, m_basis = haar_unitaries(rng, 3, n * d)
        n_op = AdjointableOp((left * svals) @ right, n)
        lam_bound = 0.9 * float(svals.min())
        m_op = AdjointableOp(1.05 * float(svals.max()) * m_basis, n)
    return lambda_lower_check(family, other, m_op, n_op, lam_bound, tol)


@_theorem(
    "TIGHT_MN",
    "family+second_family alpha1 alpha2 m+n mode=scalar|violating",
    min_flat=1,
    even_dims=True,
)
def _build_tight_mn(cfg, seed, rng, n, d, dims, tol):
    """tightness characterization for members P.M + Q.N"""
    family, other = _tight_pair(cfg, rng, n, d, dims)
    if "m" in cfg:
        m_op, n_op = cfg["m"], cfg["n"]
    else:
        mode = cfg.get("mode", "scalar" if seed % 2 == 0 else "violating")
        if mode == "scalar":
            s = float(rng.uniform(0.3, 1.2))
            t = float(rng.uniform(0.3, 1.2))
            m_basis, n_basis = haar_unitaries(rng, 2, n * d)
            m_op = AdjointableOp(s * m_basis, n)
            n_op = AdjointableOp(t * n_basis, n)
        else:
            # Distinct Hermitian spectrum: the identity-multiple
            # condition fails and the sum must measure non-tight.
            basis = haar_unitary(rng, n * d)
            spread = np.linspace(0.5, 1.5, n * d) if n * d > 1 else np.array([1.0])
            m_flat = (basis * spread) @ basis.conj().T
            m_op = AdjointableOp(m_flat, n)
            n_op = AdjointableOp(
                float(rng.uniform(0.4, 1.1)) * haar_unitary(rng, n * d), n
            )
            if n * d == 1:
                # Degenerate size: every operator is a scalar, so fall
                # back to the consistent tight branch.
                m_op = AdjointableOp(np.array([[0.7 + 0j]]), n)
    return tight_mn_check(family, other, m_op, n_op, tol)


def _perturbation_args(cfg, rng, n, d, dims, perturb, shared) -> tuple:
    """Checker arguments of the weighted perturbation theorems: the inline
    family, second family and weights, or a generated frame, its
    ``perturb``-ed copy and drawn weights; then alpha1 and alpha2."""
    alphas = (cfg.get("alpha1", 0.5), cfg.get("alpha2", 0.5))
    if "family" in cfg:
        return (cfg["family"], cfg["second_family"], cfg["weights"], *alphas)
    family = gen_family(
        GenSpec(sub_seed(rng), n, d, dims, FamilyTarget.bounds(1.0, 2.0))
    )
    other = perturb(family)
    band = cfg.get("weight_band", (0.9, 1.1))
    return (family, other, _gen_weights(rng, n, family.size, band, shared), *alphas)


@_theorem("PROP_MIXED", "family+second_family+weights alpha1 alpha2 weight_band")
def _build_prop_mixed(cfg, seed, rng, n, d, dims, tol):
    """norm-difference perturbation implies the second family is a frame"""

    def rescaled(family):
        return scale_family(family, float(rng.uniform(0.95, 1.05)))

    args = _perturbation_args(cfg, rng, n, d, dims, rescaled, shared=False)
    return prop_mixed_check(*args, tol)


@_theorem("THM_DIFFERENCE", "family+second_family+weights alpha1 alpha2 weight_band")
def _build_difference(cfg, seed, rng, n, d, dims, tol):
    """quadratic-difference perturbation implies the second family is a frame"""

    def shrunk(family):
        shrink = rng.uniform(0.0, 0.02, family.size)
        columns = np.repeat(1.0 - shrink, n * np.array(family.member_dims))
        return GFrameFamily(
            AdjointableOp(family.analysis.flat * columns, n), family.member_dims
        )

    args = _perturbation_args(cfg, rng, n, d, dims, shrunk, shared=True)
    return difference_check(*args, tol)


@_theorem(
    "T12_OPERATOR",
    "family family_target second_family delta_ops budget_fraction",
)
def _build_t12(cfg, seed, rng, n, d, dims, tol):
    """frame-operator perturbation within the C/D budget"""
    family = _family(cfg, "family", rng, n, d, dims, FamilyTarget.bounds(1.0, 2.0))
    if "delta_ops" in cfg:
        delta_ops = cfg["delta_ops"]
    elif "second_family" in cfg:
        delta_ops = operators_from_family(cfg["second_family"])
    else:
        margin = cfg.get("budget_fraction", 0.5)
        bounds = optimal_bounds(family)
        # numpy floats, so that an overflow reaches the runner's errstate guard.
        budget = np.float64(margin) * bounds.lower / max(bounds.upper, 1e-12)
        raws = [complex_gaussian(rng, n * d, n * d) for _ in range(family.size)]
        bumps = [r @ r.conj().T for r in raws]
        total = sum(spectral_norm(np.stack(bumps)).tolist())
        delta_ops = [
            AdjointableOp(gram + (budget / max(total, 1e-12)) * b, n)
            for gram, b in zip(member_grams(family), bumps)
        ]
    return t12_check(family, delta_ops, tol)


@_theorem("FINAL_COROLLARY", "family family_target second_family alpha")
def _build_final_corollary(cfg, seed, rng, n, d, dims, tol):
    """frame-operator proximity below the lower bound"""
    alpha = cfg.get("alpha", 0.5)
    family = _family(cfg, "family", rng, n, d, dims, FamilyTarget.bounds(1.0, 2.0))
    if "second_family" in cfg:
        other = cfg["second_family"]
    else:
        eps = float(rng.uniform(0.01, 0.1))
        other = scale_family(family, 1.0 - eps)
    return final_corollary_check(family, other, alpha, tol)


def theorem_ids() -> list[str]:
    return list(THEOREMS)


class _LazyRng:
    """The seed's Philox generator, keyed on its first use, so that a
    repetition that draws nothing (a fully inline instance) keys none:
    ``Philox(key=...)`` gathers OS entropy first, which costs tens of
    microseconds."""

    def __init__(self, seed: int):
        self._seed = seed

    def __getattr__(self, name):
        # Reached once per name: ``_rng`` itself, then each generator
        # method, which is kept on the wrapper for the next call.
        if name == "_rng":
            value = make_rng(self._seed)
        else:
            value = getattr(self._rng, name)
        setattr(self, name, value)
        return value


def run_decoded(theorem: str, cfg, seed: int, tol: Tolerance = DEFAULT_TOL):
    """Assemble the instance for one repetition from a config that
    ``validate_instance`` returned, and run its checker.  Sizes that a
    generator cannot use are blamed on the fields that fixed them, and an
    overflow in the checker's products on the inline arrays, if any."""
    builder, _, _, _, sizing = THEOREMS[theorem]
    rng = _LazyRng(int(seed))
    sizes = _sizes(cfg, rng, **sizing)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return builder(cfg, int(seed), rng, *sizes, tol)
    except FloatingPointError as exc:
        # Blame the inline arrays, else the scalar fields that scale them.
        named = [key for key in _ARRAY_FIELDS if key in cfg]
        named = named or [key for key in cfg if key not in _SIZE_FIELDS]
        raise ValidationError(
            f"the values of {', '.join(map(repr, named))} are too large for the"
            f" products the {theorem} checker forms: {exc}"
        ) from exc
    except DegenerateSpec as exc:
        setters = {size: key for key, size, _ in reversed(_fixed_sizes(cfg))}
        # The fields in order, each once: a family fixes all three sizes.
        named = {setters[size]: 0 for size in ("n", "d", "dims") if size in setters}
        if not named:
            raise
        raise ValidationError(
            f"the sizes fixed by {', '.join(map(repr, named))} are too small"
            f" for the {theorem} generator: {exc}"
        ) from exc


def build_and_run(
    theorem: str, instance: dict, seed: int, tol: Tolerance = DEFAULT_TOL
):
    """Validate and decode the instance, then run one repetition."""
    return run_decoded(theorem, validate_instance(theorem, instance), seed, tol)
