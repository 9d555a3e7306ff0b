"""Numerics for generalized frames over matrix algebras.

Modules over the n-by-n complex matrices carry an algebra-valued inner
product; finite families of adjointable operators out of such a module
are classified by the spectrum of their frame operator.  On top of that
kernel the package provides executable checkers for sum, composition
and perturbation results, seeded instance generators, and a scenario
runner with machine-readable reports.
"""

from .algebra import (
    AlgebraElement,
    DEFAULT_TOL,
    Tolerance,
    abs_element,
    adjoint,
    identity,
    is_positive,
    operator_norm,
    psd_order_leq,
    sqrt_psd,
    zero,
)
from .errors import (
    AlphaOutOfRange,
    BadRange,
    DegenerateSpec,
    DimensionMismatch,
    GFrameError,
    InternalConsistencyError,
    NotPositive,
    NotTight,
    ValidationError,
)
from .frames import (
    Classification,
    FrameBounds,
    FrameKind,
    GFrameFamily,
    analysis,
    bound_witnesses,
    classify,
    cross_operator,
    frame_operator,
    is_frame_bounds,
    optimal_bounds,
    scale_family,
    synthesis,
    synthesis_op,
    verify_frame_inequality,
)
from .generators import (
    FamilyTarget,
    GenSpec,
    gen_family,
    gen_isometry,
    gen_orthogonal_pair,
    gen_weights,
)
from .hilbert import (
    AdjointableOp,
    ModuleVector,
    adjoint_op,
    apply,
    block_diag_op,
    compose,
    identity_op,
    inner_product,
    is_isometry,
    is_surjective,
    module_scale,
    op_norm,
    scalar_norm,
    zero_op,
)
from .stability import (
    StabilityId,
    difference_check,
    final_corollary_check,
    operators_from_family,
    prop_mixed_check,
    t12_check,
)
from .sums import (
    CheckItem,
    ScalarWeights,
    TheoremId,
    TheoremReport,
    Verdict,
    isometry_sum_check,
    lambda_lower_check,
    op_weighted_sum,
    perturb_lambda,
    scalar_weighted_sum,
    t3_corollary_check,
    t11_check,
    tight_mn_check,
    tight_sum_check,
    weighted_family,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
