"""Visual-metric constant fitting against the Gromov product, plus the
explicit witness families showing d_A on the tree boundary is not visual
and the identity (d_1 -> dbar) is not quasi-symmetric."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metrics import (
    DA,
    DBAR,
    MetricSpec,
    _closed_form,
    _gromov_closed_form,
    eval_dA,
    eval_dbar,
    gromov_product,
    pair_invariants,
)
from .spaces import TREE, Space, TreeBoundary

FITS = "fits"


@dataclass(frozen=True)
class VisualFit:
    a: float
    k1: float
    k2: float
    verdict: str


def _fit_values(space: Space, spec: MetricSpec, a: float, points: list,
                pairs: np.ndarray) -> np.ndarray:
    """d(xi,eta) * a^(xi,eta) over the index pairs into `points`, with
    (xi,eta) the Gromov product, from one invariant call.  Trees use
    single-exponent forms, so a = e gives the constant 2 exactly for dbar."""
    inv = pair_invariants(space, points, pairs[:, 0], pairs[:, 1], spec.base(space))
    la = math.log(a)
    if space.kind == TREE:
        if spec.family == DBAR:
            value = lambda b: 2.0 * math.exp(b * (la - 1.0))
        else:
            value = lambda b: math.exp(b * la) / (b + float(spec.A) / 2.0)
        lookup = np.array([value(b) for b in range(int(inv.max(initial=0)) + 1)])
        return lookup[inv]
    return _closed_form(space, spec, inv, exact=False) * np.exp(_gromov_closed_form(space, inv) * la)


def visual_fit(space: Space, spec: MetricSpec, a: float, points: list,
               pairs: np.ndarray) -> VisualFit:
    """Best constants k1 = min, k2 = max of d * a^product over the pairs
    (xi, eta) = (points[i], points[j]) of the (m, 2) index rows (i, j)."""
    if a <= 1:
        raise ValueError("visual parameter must exceed 1")
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    if not len(pairs):
        raise ValueError("need at least one pair")
    v = _fit_values(space, spec, a, points, pairs)
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
    product: Fraction
    growth: float


def nonvisual_witness_dA(space: Space, A, n_range, a: float = math.e) -> list:
    """Rows (n, branch time, d_A, product, d_A * a^product) for ray pairs
    branching at ceil(n - A/2); growth without bound rules out any visual
    constant k2 for d_A."""
    if space.kind != TREE:
        raise ValueError("witness family lives on a tree boundary")
    if A <= 0:
        raise ValueError("A must be positive")
    Af = Fraction(A)
    rows = []
    for n in n_range:
        b = math.ceil(Fraction(n) - Af / 2)
        xi = _straight_ray()
        eta = _branching_ray(b)
        d = eval_dA(space, MetricSpec(DA, A=A), xi, eta)
        p = gromov_product(space, space.basepoint, xi, eta)
        growth = math.exp(float(p) * math.log(a) + math.log(float(d)))
        rows.append(WitnessRow(n=int(n), branch=int(b), dA=d, product=p, growth=growth))
    return rows


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
    d1 = MetricSpec(DA, A=1)
    db = MetricSpec(DBAR)
    rows = []
    for n in n_range:
        gamma = _straight_ray()
        alpha = TreeBoundary((), (1,))
        beta = _branching_ray(int(n)) if n > 0 else alpha
        t = eval_dA(space, d1, alpha, gamma) / eval_dA(space, d1, beta, gamma)
        rho = eval_dbar(space, db, alpha, gamma) / eval_dbar(space, db, beta, gamma)
        req = rho / float(t) ** (1.0 / delta)
        rows.append(NonQSRow(n=int(n), t=t, rho=rho, required_c=req))
    return rows
