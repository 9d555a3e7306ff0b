"""Generate families, classify them, and inspect their optimal bounds.

The optimal bounds of a family are the extreme eigenvalues of its
flattened frame operator S = T*T, where T is the family's analysis
operator; the generators can place that spectrum exactly, and
eigenvector witnesses attain each bound.
"""

import numpy as np

from gframes import (
    FamilyTarget,
    GenSpec,
    adjoint_op,
    bound_witnesses,
    classify,
    compose,
    frame_operator,
    gen_family,
    gen_orthogonal_pair,
    inner_product,
    op_norm,
    cross_operator,
    optimal_bounds,
)

print("== a Parseval family ==")
parseval = gen_family(GenSpec(42, 2, 2, (2, 3), FamilyTarget.parseval()))
bounds = optimal_bounds(parseval)
print("kind:", classify(parseval).kind.value)
print("bounds:", (round(bounds.lower, 12), round(bounds.upper, 12)))

# The family is stored as its analysis operator T: H -> H_1 + H_2, the
# member flattenings side by side; the frame operator is S = T*T.
t_op = parseval.analysis
print("analysis operator T: flattening", t_op.flat.shape,
      "split by member dims", parseval.member_dims)
print(np.round(t_op.flat, 3))
s_from_t = compose(adjoint_op(t_op), t_op).flat
assert np.array_equal(frame_operator(parseval).flat, s_from_t)
print("S = T*T:", np.allclose(s_from_t, np.eye(4), atol=1e-12))

print()
print("== prescribed bounds (0.5, 2.0) ==")
shaped = gen_family(GenSpec(43, 2, 2, (2, 3), FamilyTarget.bounds(0.5, 2.0)))
bounds = optimal_bounds(shaped)
print("kind:", classify(shaped).kind.value)
print("bounds:", (round(bounds.lower, 12), round(bounds.upper, 12)))

lo_witness, hi_witness = bound_witnesses(shaped)
s_flat = frame_operator(shaped).flat
for name, witness in (("lower", lo_witness), ("upper", hi_witness)):
    quad = (witness.flat @ s_flat) @ witness.flat.conj().T
    gram = inner_product(witness, witness).entries
    ratio = np.trace(quad).real / np.trace(gram).real
    print(f"{name} witness Rayleigh ratio: {ratio:.12f}")

print()
print("== orthogonal pairs ==")
first, second = gen_orthogonal_pair(GenSpec(44, 2, 2, (2, 2), FamilyTarget.parseval()))
print("mixed operator norm:", op_norm(cross_operator(first, second)))
print("both Parseval:",
      optimal_bounds(first).parseval and optimal_bounds(second).parseval)
