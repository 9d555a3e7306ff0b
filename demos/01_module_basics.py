"""Walk through the scalar algebra and the module layer.

Elements of the scalar algebra are square complex matrices; module
vectors are tuples of them with a matrix-valued inner product, stored
as their components side by side.  This script shows the involution,
positivity, square roots, and the exact flattening that the rest of the
library is built on.
"""

import numpy as np

from gframes import (
    AdjointableOp,
    AlgebraElement,
    ModuleVector,
    abs_element,
    adjoint,
    adjoint_op,
    apply,
    compose,
    identity,
    inner_product,
    is_positive,
    operator_norm,
    psd_order_leq,
    scalar_norm,
    sqrt_psd,
)

rng = np.random.default_rng(0)


def random_element(n):
    return AlgebraElement(
        (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)
    )


print("== the scalar algebra ==")
a = random_element(2)
print("a =\n", np.round(a.entries, 3))
print("adjoint is an exact involution:",
      np.array_equal(adjoint(adjoint(a)).entries, a.entries))

gram = adjoint(a) @ a
print("a* a is positive:", is_positive(gram))
root = sqrt_psd(gram)
print("|| sqrt(a* a)^2 - a* a || =", operator_norm(root @ root - gram))
print("|a| equals sqrt(a* a):",
      operator_norm(abs_element(a) - root) < 1e-10)

print()
print("== module vectors and the matrix-valued inner product ==")
x = ModuleVector(np.hstack([random_element(2).entries, random_element(2).entries]))
y = ModuleVector(np.hstack([random_element(2).entries, random_element(2).entries]))
print("component 1 is columns 2-3 of the flattening:",
      np.array_equal(x.components[1].entries, x.flat[:, 2:]))
print("<x, x> is a positive 2x2 matrix:", is_positive(inner_product(x, x)))
print("||x|| =", round(scalar_norm(x), 6))
print("norm bound <Tx,Tx> <= ||T||^2 <x,x> on a random operator:")

flat = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
op = AdjointableOp(flat, 2)
tx = apply(op, x)
lhs = inner_product(tx, tx)
rhs = operator_norm(AlgebraElement(op.flat)) ** 2 * inner_product(x, x)
print("   holds:", psd_order_leq(lhs, rhs))

print()
print("== flattening is exact ==")
other = AdjointableOp(
    (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2), 2
)
product = compose(other, op)
print("flat(compose) == flat(first) @ flat(second):",
      np.array_equal(product.flat, op.flat @ other.flat))
print("flat(adjoint) == conjugate transpose:",
      np.array_equal(adjoint_op(op).flat, op.flat.conj().T))
print("identity check:", np.array_equal(identity(2).entries, np.eye(2)))
