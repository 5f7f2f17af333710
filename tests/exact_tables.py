"""Exact reference tables for the tests, built one pair at a time: tree d_A
as `Fraction`s 1/(b + A/2) at the branch times b of `pair_kernel`."""

from fractions import Fraction

import numpy as np

from visbound.metrics import DA, pair_distance_matrix, pair_kernel
from visbound.spaces import TREE


def exact_table(space, spec, points, floats=pair_distance_matrix) -> np.ndarray:
    """The symmetric table of `spec` over `points`, 0 on the diagonal: tree
    d_A as an object array of `Fraction`s, any other metric as the float
    table `floats(space, spec, points)`."""
    if space.kind != TREE or spec.family != DA:
        return floats(space, spec, points)
    n = len(points)
    I, J = np.triu_indices(n, k=1)
    half = Fraction(spec.A) / 2
    D = np.zeros((n, n), dtype=object)
    D[I, J] = D[J, I] = [1 / (b + half) for b in
                         pair_kernel(space, points, spec.base(space))(I, J).tolist()]
    return D
