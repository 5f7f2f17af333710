"""Exact `RayPoints` of (boundary index, radius) pairs, for the tests."""

import math

import numpy as np

from visbound.covers import RayPoints


def ray_points(pairs: list) -> RayPoints:
    """The points of (boundary index, radius) pairs, each radius (int, float
    or Fraction) read as its integer ratio, over their least common
    denominator; a numerator must stay below 2^53."""
    ratios = [r.as_integer_ratio() for _, r in pairs]
    den = math.lcm(*(d for _, d in ratios))
    num = [a * (den // d) for a, d in ratios]
    assert max(num, default=0) < 1 << 53
    return RayPoints(np.array([i for i, _ in pairs], dtype=np.int64),
                     np.array(num, dtype=np.int64), den)
