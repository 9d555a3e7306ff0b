"""Random matrices, algebra elements, vectors, operators and families for tests."""

import numpy as np

from gframes import AlgebraElement, GFrameFamily, ModuleVector


def random_matrix(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_element(rng, n):
    return AlgebraElement(random_matrix(rng, n, n))


def random_vector(rng, n, d):
    return ModuleVector(tuple(random_element(rng, n) for _ in range(d)))


def random_op(rng, n, source_len, target_len):
    from gframes import op_from_flat

    return op_from_flat(random_matrix(rng, n * source_len, n * target_len), n)


def random_family(rng, n, d, dims):
    return GFrameFamily(tuple(random_op(rng, n, d, dz) for dz in dims))
