"""Reference cover verdicts read off a full distance table, for the tests:
the table-reading `cover_stats` and greedy net that `covers` replaced by
its runs over the boundary order."""

import math

import numpy as np

from visbound.covers import Cover, CoverStats, _distinct_sets


def table_cover_stats(cover: Cover, matrix: np.ndarray) -> CoverStats:
    """`cover_stats` from full rows of the table: for each incidence of a
    distinct set, its point's row split into members and non-members."""
    n = cover.n
    counts = np.bincount(cover.point_of, minlength=n)
    if counts.min() < 1:
        raise ValueError("ground point left uncovered")
    set_of, point_of = _distinct_sets(cover.set_of, cover.point_of)
    M = np.zeros((int(set_of.max()) + 1, n), dtype=bool)
    M[set_of, point_of] = True
    inside = M[set_of]
    D = matrix[point_of]
    mesh = max(0.0, float(np.where(inside, D, -math.inf).max()))
    out = np.where(inside, math.inf, D).min(axis=1)
    best = np.full(n, -math.inf)
    np.maximum.at(best, point_of, out)
    return CoverStats(order=int(counts.max()), mesh=mesh, lebesgue=max(0.0, float(best.min())))


def table_greedy_net(matrix: np.ndarray, lam: float, radius: float, rng) -> Cover:
    """The greedy lam-net scanned in `rng`'s permutation order, each ball a
    column of the table, and its cover by the open radius-balls, one set
    per center by increasing center."""
    n = matrix.shape[0]
    blocked = np.zeros(n, dtype=bool)
    centers = []
    for i in rng.permutation(n):
        if not blocked[i]:
            centers.append(int(i))
            blocked |= matrix[:, i] < lam
    centers.sort()
    set_of, point_of = np.nonzero((matrix[:, centers] < radius).T)
    return Cover(n, set_of, point_of, (None,) * len(centers))
