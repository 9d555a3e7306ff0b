"""Theorem registry and instance construction.

Declares each theorem once: its checker and the instance fields it
takes, the defaults of absent fields, and the generation steps that
fill the rest from a seed.  One loop assembles every instance, inline
values first, so the scenario runner and the acceptance suites share
one meaning of "hypothesis-satisfying generator".
"""

from __future__ import annotations

import math
from functools import partial
from types import MappingProxyType
from typing import NamedTuple

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
    weight_matrices,
)
from .hilbert import AdjointableOp, identity_op, zero_op
from .serialize import BAND, decode_fields, is_int, is_pair, is_positive_number
# The checkers are bound here and looked up by name per call: ``Theorem.checker``.
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
        return getattr(FamilyTarget, data)()
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
    spec = THEOREMS[theorem]
    cfg = decode_fields({} if instance is None else instance, spec.fields, f"{theorem} instance")
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
    for group in spec.groups:
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
    target with spread bounds needs it as well.
    """
    targets = (cfg.get("family_target"), cfg.get("second_family_target"))
    if any(t is not None and t.lower != t.upper for t in targets):
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


def _random_endo(rng, n, d) -> AdjointableOp:
    return AdjointableOp(complex_gaussian(rng, n * d, n * d), n)


def _gen_weights(rng, n, count, band, shared=False) -> ScalarWeights:
    """Weights drawn inside ``band``.  With ``shared`` the thetas serve as
    the deltas too: a shared coefficient sequence keeps the weighted mixed
    term positive whenever the unweighted one is."""
    mats = weight_matrices(sub_seed(rng), n, count if shared else 2 * count, *band)
    weights = tuple(AlgebraElement(mat) for mat in mats)
    return ScalarWeights(weights[:count], weights[-count:], *band)


def _bessel_partner(rng, family: GFrameFamily, target_upper: float) -> GFrameFamily:
    """A random family on the same members as ``family``, scaled so that
    its optimal upper bound equals target_upper."""
    n, d = family.algebra_dim, family.source_len
    raw = gen_family(GenSpec(sub_seed(rng), n, d, family.member_dims))
    return scale_family(raw, math.sqrt(target_upper / optimal_bounds(raw).upper))


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


def _orthogonal_pair(rng, n, d, dims) -> tuple[GFrameFamily, GFrameFamily]:
    """Two Parseval families on complementary columns (zero mixed operator),
    with member dims evened so that the column halves can span the module."""
    even = tuple(dz + (dz % 2) for dz in dims)
    while sum(even) < 2 * d:
        even = even + (2,)
    return gen_orthogonal_pair(
        GenSpec(sub_seed(rng), n, d, even, FamilyTarget.parseval())
    )


# Generation steps.  Each receives the instance values so far (inline,
# declared default or generated by an earlier step), the seed, its
# generator and the sizes, and returns the value of its field, or one
# value per field of its ``+`` group.  Generated instances satisfy the
# theorem hypotheses by construction so that seeded suites exercise the
# asserted branch.


def _drawn(key: str):
    """The step that draws a family to the target in ``{key}_target``."""

    def step(v, seed, rng, n, d, dims):
        return gen_family(GenSpec(sub_seed(rng), n, d, dims, v[f"{key}_target"]))

    return step


def _perturb_target(v, *_) -> FamilyTarget:
    """An expansive lambda perturbs a Parseval family, the others a frame."""
    if v["lambda_kind"] == "expansive":
        return FamilyTarget.parseval()
    return FamilyTarget.bounds(0.5, 2.0)


def _lambda_op(v, seed, rng, n, d, dims) -> AdjointableOp:
    """L with I + L expansive, a scalar multiple of I, or zero."""
    kind = v["lambda_kind"]
    if kind == "expansive":
        stretch = rng.uniform(1.05, 1.8, n * d)
        left, right = haar_unitaries(rng, 2, n * d)
        expansive = (left * stretch) @ right
        return AdjointableOp(expansive - np.eye(n * d), n)
    if kind == "scalar":
        return float(rng.uniform(0.0, 1.0)) * identity_op(n, d)
    return zero_op(n, d, d)


# Every seventh seed takes M = I and every fifth N = 0.
def _t3_m(v, seed, rng, n, d, dims) -> AdjointableOp:
    return identity_op(n, d) if seed % 7 == 0 else _random_endo(rng, n, d)


def _t3_n(v, seed, rng, n, d, dims) -> AdjointableOp:
    return zero_op(n, d, d) if seed % 5 == 0 else _random_endo(rng, n, d)


def _mixed_pair(v, seed, rng, n, d, dims):
    return _positive_mixed_pair(rng, n, d, dims, v["mode"] == "orthogonal")


def _weights(v, seed, rng, n, d, dims) -> ScalarWeights:
    return _gen_weights(rng, n, v["family"].size, v["weight_band"])


def _dominated_partner(v, seed, rng, n, d, dims) -> GFrameFamily:
    """Hypothesis headroom: the weighted Bessel term at ``bessel_ratio`` of
    the weighted frame term."""
    weights, lower_f = v["weights"], optimal_bounds(v["family"]).lower
    target = v["bessel_ratio"] * weights.band_lower * lower_f / weights.band_upper
    return _bessel_partner(rng, v["family"], target)


def _t11_inputs(v, seed, rng, n, d, dims) -> tuple:
    orthogonal = v["mode"] == "orthogonal"
    ranges = ((0.8, 2.0), (0.3, 1.2))
    family, other = _positive_mixed_pair(rng, n, d, dims, orthogonal, ranges)
    weights = _gen_weights(rng, n, family.size, v["weight_band"], shared=not orthogonal)
    return family, other, weights


def _tight_pair(v, seed, rng, n, d, dims) -> tuple:
    """An orthogonal pair with tight constants alpha1, alpha2."""
    first, second = _orthogonal_pair(rng, n, d, dims)
    return (
        scale_family(first, math.sqrt(v["alpha1"])),
        scale_family(second, math.sqrt(v["alpha2"])),
    )


def _isometry(v, seed, rng, n, d, dims) -> AdjointableOp:
    return gen_isometry(sub_seed(rng), n, d)


def _bessel_upper_partner(v, seed, rng, n, d, dims) -> GFrameFamily:
    return _bessel_partner(rng, v["family"], v["bessel_upper"])


def _bounded_below(v, seed, rng, n, d, dims) -> tuple:
    """N with singular values in [0.6, 0.9], a lower bound for it, and M
    with norm above N's."""
    svals = rng.uniform(0.6, 0.9, n * d)
    left, right, m_basis = haar_unitaries(rng, 3, n * d)
    n_op = AdjointableOp((left * svals) @ right, n)
    m_op = AdjointableOp(1.05 * float(svals.max()) * m_basis, n)
    return m_op, n_op, 0.9 * float(svals.min())


def _tight_mn_ops(v, seed, rng, n, d, dims) -> tuple:
    if v["mode"] == "scalar":
        s = float(rng.uniform(0.3, 1.2))
        t = float(rng.uniform(0.3, 1.2))
        m_basis, n_basis = haar_unitaries(rng, 2, n * d)
        return AdjointableOp(s * m_basis, n), AdjointableOp(t * n_basis, n)
    # Distinct Hermitian spectrum: the identity-multiple condition fails
    # and the sum must measure non-tight.
    basis = haar_unitary(rng, n * d)
    m_flat = (basis * np.linspace(0.5, 1.5, n * d)) @ basis.conj().T
    m_op = AdjointableOp(m_flat, n)
    n_op = AdjointableOp(float(rng.uniform(0.4, 1.1)) * haar_unitary(rng, n * d), n)
    if n * d == 1:
        # Degenerate size: every operator is a scalar, so fall back to
        # the consistent tight branch.
        m_op = AdjointableOp(np.array([[0.7 + 0j]]), n)
    return m_op, n_op


def _perturbed(v, seed, rng, n, d, dims, shrunk=False) -> tuple:
    """A drawn frame, a copy rescaled or with shrunk columns, and weights
    inside ``weight_band``, whose thetas serve as deltas for shrunk copies."""
    family = gen_family(GenSpec(sub_seed(rng), n, d, dims, FamilyTarget.bounds(1.0, 2.0)))
    if shrunk:
        shrink = rng.uniform(0.0, 0.02, family.size)
        columns = np.repeat(1.0 - shrink, n * np.array(family.member_dims))
        flat = family.analysis.flat * columns
        other = GFrameFamily(AdjointableOp(flat, n), family.member_dims)
    else:
        other = scale_family(family, float(rng.uniform(0.95, 1.05)))
    return family, other, _gen_weights(rng, n, family.size, v["weight_band"], shrunk)


def _budget_deltas(v, seed, rng, n, d, dims) -> list:
    """The inline second family's operators, else each member's Gram
    operator plus a positive bump, the bumps' norms summing to the
    ``budget_fraction`` of the C/D budget."""
    if "second_family" in v:
        return operators_from_family(v["second_family"])
    family = v["family"]
    bounds = optimal_bounds(family)
    # numpy floats, so that an overflow reaches the runner's errstate guard.
    budget = np.float64(v["budget_fraction"]) * bounds.lower / max(bounds.upper, 1e-12)
    raws = [complex_gaussian(rng, n * d, n * d) for _ in range(family.size)]
    bumps = [r @ r.conj().T for r in raws]
    total = sum(spectral_norm(np.stack(bumps)).tolist())
    return [
        AdjointableOp(gram + (budget / max(total, 1e-12)) * b, n)
        for gram, b in zip(member_grams(family), bumps)
    ]


def _near_copy(v, seed, rng, n, d, dims) -> GFrameFamily:
    return scale_family(v["family"], 1.0 - float(rng.uniform(0.01, 0.1)))


def _classify(family: GFrameFamily, tol: Tolerance):
    """``classify`` as a report: classifying asserts no claim, so every
    family concludes."""
    return theorem_report(
        "CLASSIFY", classify(family, tol), (), None, None, tol, conclusion=True
    )


class Theorem(NamedTuple):
    """One registered theorem.  ``checker`` names the checker's binding
    in this module, looked up per call so that it can be rebound;
    ``inputs`` are the instance fields it takes, in order, before the
    tolerance.  ``fields`` and ``groups`` are the instance schema that
    ``validate_instance`` enforces, ``sizing`` the ``_sizes`` options,
    ``defaults`` the values of absent fields that no step fills, and
    ``steps`` the (fields, step) pairs in draw order."""

    checker: str
    description: str
    fields: dict
    groups: tuple
    sizing: dict
    inputs: tuple
    defaults: dict
    steps: tuple


THEOREMS: dict[str, Theorem] = {}


def _theorem(
    theorem_id: str,
    description: str,
    check: str,
    steps: dict,
    defaults: dict | None = None,
    also: str = "",
    min_flat: int = 2,
    even_dims: bool = False,
) -> None:
    """Register a theorem.  ``check`` is the checker's name, then its
    input fields.  Its instance fields are the size fields, those of
    ``steps`` (a field, or a ``+`` group of fields that come together),
    of ``defaults``, and of ``also``: fields read only inline, and
    ``key=x|y`` fields restricted to the listed values, which when absent
    take the first value at even seeds and the second at odd ones."""
    defaults = defaults or {}
    fields = {key: _FIELD_KINDS[key] for key in _SIZE_FIELDS}
    choices = {}
    for token in also.split():
        key, _, options = token.partition("=")
        if not options:
            fields[key] = _FIELD_KINDS[key]
            continue
        listed = tuple(options.split("|"))
        fields[key] = (" or ".join(map(repr, listed)), listed.__contains__, str)
        choices[key] = lambda v, seed, *_, listed=listed: listed[seed % 2]
    for token in (*steps, *defaults):
        fields.update((key, _FIELD_KINDS[key]) for key in token.split("+"))
    checker, *inputs = check.split()
    THEOREMS[theorem_id] = Theorem(
        checker,
        description,
        fields,
        tuple(tuple(token.split("+")) for token in steps if "+" in token),
        {"min_flat": min_flat, "even_dims": even_dims},
        tuple(inputs),
        defaults,
        tuple((tuple(token.split("+")), step) for token, step in {**choices, **steps}.items()),
    )


_theorem(
    "CLASSIFY", "classify a family and report its optimal bounds", "_classify family",
    {"family": _drawn("family")}, {"family_target": FamilyTarget.parseval()}, min_flat=1,
)
_theorem(
    "PERTURB_LAMBDA",
    "members composed with (I + L) under the conjugation-dominance hypothesis",
    "perturb_lambda family lambda",
    {"family_target": _perturb_target, "family": _drawn("family"), "lambda": _lambda_op},
    also="lambda_kind=expansive|scalar|zero",
)
_theorem(
    "T3_EQUIV", "three-way equivalence for members P.M + Q.N",
    "op_weighted_sum family second_family m n",
    {"family": _drawn("family"), "second_family": _drawn("second_family"), "m": _t3_m, "n": _t3_n},
    {"family_target": FamilyTarget.random(), "second_family_target": FamilyTarget.random()},
    min_flat=1,
)
_theorem(
    "T3_COROLLARY", "plain member sums with positive mixed operator",
    "t3_corollary_check family second_family",
    {"family+second_family": _mixed_pair}, also="mode=scaled|orthogonal",
)
_theorem(
    "T7_SCALAR", "coefficient-weighted sums with a dominated Bessel term",
    "scalar_weighted_sum family second_family weights",
    {"family": _drawn("family"), "weights": _weights, "second_family": _dominated_partner},
    {"family_target": FamilyTarget.bounds(1.0, 2.5), "weight_band": (0.8, 1.25),
     "bessel_ratio": 0.4},
)
_theorem(
    "T11_POSITIVE", "coefficient-weighted sums of two frames with positive mixed operator",
    "t11_check family second_family weights",
    {"family+second_family+weights": _t11_inputs}, {"weight_band": (0.7, 1.4)},
    also="mode=orthogonal|same",
)
_theorem(
    "TIGHT_SUM", "sum of two tight families with vanishing mixed operator",
    "tight_sum_check family second_family",
    {"family+second_family": _tight_pair}, {"alpha1": 1.0, "alpha2": 1.0},
    min_flat=1, even_dims=True,
)
_theorem(
    "ISOMETRY_SUM", "member sums composed with an isometry",
    "isometry_sum_check family second_family lambda",
    {"family+second_family": _mixed_pair, "lambda": _isometry}, also="mode=scaled|orthogonal",
)
_theorem(
    "LAMBDA_LOWER", "members P.M + Q.N with N bounded below",
    "lambda_lower_check family second_family m n lambda_bound",
    {"family": _drawn("family"), "second_family": _bessel_upper_partner,
     "m+n+lambda_bound": _bounded_below},
    {"family_target": FamilyTarget.bounds(1.0, 2.0), "bessel_upper": 0.2},
)
_theorem(
    "TIGHT_MN", "tightness characterization for members P.M + Q.N",
    "tight_mn_check family second_family m n",
    {"family+second_family": _tight_pair, "m+n": _tight_mn_ops}, {"alpha1": 1.0, "alpha2": 1.0},
    also="mode=scalar|violating", min_flat=1, even_dims=True,
)
_theorem(
    "PROP_MIXED", "norm-difference perturbation implies the second family is a frame",
    "prop_mixed_check family second_family weights alpha1 alpha2",
    {"family+second_family+weights": _perturbed},
    {"alpha1": 0.5, "alpha2": 0.5, "weight_band": (0.9, 1.1)},
)
_theorem(
    "THM_DIFFERENCE", "quadratic-difference perturbation implies the second family is a frame",
    "difference_check family second_family weights alpha1 alpha2",
    {"family+second_family+weights": partial(_perturbed, shrunk=True)},
    {"alpha1": 0.5, "alpha2": 0.5, "weight_band": (0.9, 1.1)},
)
_theorem(
    "T12_OPERATOR", "frame-operator perturbation within the C/D budget",
    "t12_check family delta_ops",
    {"family": _drawn("family"), "delta_ops": _budget_deltas},
    {"family_target": FamilyTarget.bounds(1.0, 2.0), "budget_fraction": 0.5},
    also="second_family",
)
_theorem(
    "FINAL_COROLLARY", "frame-operator proximity below the lower bound",
    "final_corollary_check family second_family alpha",
    {"family": _drawn("family"), "second_family": _near_copy},
    {"family_target": FamilyTarget.bounds(1.0, 2.0), "alpha": 0.5},
)


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
    ``validate_instance`` returned, and run its checker.  Each value is
    the inline one, else the declared default, else generated by the
    step that fills it.  Sizes that a generator cannot use are blamed on
    the fields that fixed them, and an overflow in the checker's products
    on the inline arrays, if any."""
    spec, seed = THEOREMS[theorem], int(seed)
    rng = _LazyRng(seed)
    sizes = _sizes(cfg, rng, **spec.sizing)
    try:
        with np.errstate(over="raise", invalid="raise"):
            v = {**spec.defaults, **cfg}
            for keys, step in spec.steps:
                if keys[0] not in v:
                    drawn = step(v, seed, rng, *sizes)
                    v.update(zip(keys, drawn) if len(keys) > 1 else {keys[0]: drawn})
            return globals()[spec.checker](*(v[key] for key in spec.inputs), tol)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        # Blame the inline arrays, else the scalar fields that scale them.
        named = [key for key in _ARRAY_FIELDS if key in cfg]
        named = named or [key for key in cfg if key not in _SIZE_FIELDS]
        if isinstance(exc, FloatingPointError):
            fault = f"too large for the products the {theorem} checker forms"
        else:
            fault = f"out of the range where the {theorem} checker's linear algebra converges"
        named = ", ".join(map(repr, named))
        raise ValidationError(f"the values of {named} are {fault}: {exc}") from exc
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
