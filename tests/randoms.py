"""Random matrices, algebra elements, vectors, operators and families for tests."""

import numpy as np

from gframes import AdjointableOp, AlgebraElement, GFrameFamily, ModuleVector


def random_matrix(rng, rows, cols):
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2)


def random_element(rng, n):
    return AlgebraElement(random_matrix(rng, n, n))


def random_vector(rng, n, d):
    return ModuleVector(np.hstack([random_matrix(rng, n, n) for _ in range(d)]))


def random_op(rng, n, source_len, target_len):
    return AdjointableOp(random_matrix(rng, n * source_len, n * target_len), n)


def random_family(rng, n, d, dims):
    return GFrameFamily.of(random_op(rng, n, d, dz) for dz in dims)
