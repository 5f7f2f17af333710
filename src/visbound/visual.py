"""Visual-metric constant fitting against the Gromov product, plus the
explicit witness families showing d_A on the tree boundary is not visual
and the identity (d_1 -> dbar) is not quasi-symmetric."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metrics import DA, DBAR, MetricSpec, pair_kernel
from .spaces import TREE, Space, TreeBoundary

FITS = "fits"


@dataclass(frozen=True)
class VisualFit:
    a: float
    k1: float
    k2: float
    verdict: str


def visual_fit(space: Space, spec: MetricSpec, a: float, points: list,
               pairs: np.ndarray) -> VisualFit:
    """Best constants k1 = min, k2 = max of d * a^product over the pairs
    (xi, eta) = (points[i], points[j]) of the (m, 2) index rows (i, j), from
    one invariant call (`Space.visual_values`; on T_k in single-exponent
    forms, so that a = e gives dbar the constant 2 exactly)."""
    if a <= 1:
        raise ValueError("visual parameter must exceed 1")
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if not len(pairs):
        raise ValueError("need at least one pair")
    inv = pair_kernel(space, points, spec.base(space))(pairs[:, 0], pairs[:, 1])
    v = space.visual_values(spec, math.log(a), inv)
    return VisualFit(a=float(a), k1=float(v.min()), k2=float(v.max()), verdict=FITS)


# ---------------------------------------------------------------------------
# witness families on the tree boundary


def _straight_ray() -> TreeBoundary:
    return TreeBoundary((), (0,))


def _branching_ray(b: int) -> TreeBoundary:
    """Agrees with the straight 0-ray for b edges, then turns."""
    if b == 0:
        return TreeBoundary((), (1,))
    return TreeBoundary(tuple([0] * b) + (1,), (0,))


@dataclass(frozen=True)
class WitnessRow:
    n: int
    branch: int
    dA: Fraction
    product: int
    growth: float


def nonvisual_witness_dA(space: Space, A, n_range, a: float = math.e) -> list:
    """Rows (n, branch time, d_A, product, d_A * a^product) for the straight
    ray and a ray branching off it at ceil(n - A/2), or at the root where
    that is negative; the product is the branch time as measured.  Growth
    without bound rules out any visual constant k2 for d_A."""
    if space.kind != TREE:
        raise ValueError("witness family lives on a tree boundary")
    if A <= 0:
        raise ValueError("A must be positive")
    ns = list(n_range)
    rays = [_straight_ray()] + [_branching_ray(math.ceil(n - Fraction(A) / 2)) for n in ns]
    b = pair_kernel(space, rays)(np.zeros(len(ns), int), np.arange(1, len(rays)))
    dA = space.closed_form(MetricSpec(DA, A=A), b, exact=True).tolist()
    return [WitnessRow(n=int(n), branch=p, dA=d, product=p,
                       growth=math.exp(float(p) * math.log(a) + math.log(float(d))))
            for n, p, d in zip(ns, b.tolist(), dA)]


@dataclass(frozen=True)
class NonQSRow:
    n: int
    t: Fraction
    rho: float
    required_c: float


def nonqs_witness(space: Space, n_range, delta: float = 1.0) -> list:
    """Triples (alpha, beta, gamma) with alpha, gamma branching at 0 and
    beta, gamma branching at n: source ratio t = 2n+1, target ratio
    rho = e^n, forcing c >= e^n / (2n+1)^(1/delta) in any power-law
    control for the identity d_1 -> dbar."""
    if space.kind != TREE:
        raise ValueError("witness family lives on a tree boundary")
    if not (0 < delta <= 1):
        raise ValueError("delta must lie in (0, 1]")
    ns = [int(n) for n in n_range]
    alpha = TreeBoundary((), (1,))
    # the pair (gamma, alpha), then (gamma, beta) for each n
    rays = [_straight_ray(), alpha] + [_branching_ray(n) if n > 0 else alpha for n in ns]
    b = pair_kernel(space, rays)(np.zeros(len(rays) - 1, int), np.arange(1, len(rays)))
    d1 = space.closed_form(MetricSpec(DA, A=1), b, exact=True)
    db = space.closed_form(MetricSpec(DBAR), b)
    t, rho = (d1[0] / d1[1:]).tolist(), (db[0] / db[1:]).tolist()
    return [NonQSRow(n=n, t=q, rho=r, required_c=r / float(q) ** (1.0 / delta))
            for n, q, r in zip(ns, t, rho)]
