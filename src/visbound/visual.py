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
UNBOUNDED = "unbounded-evidence"
_GROWTH_FACTOR = 1e3


@dataclass(frozen=True)
class VisualFit:
    a: float
    k1: float
    k2: float
    witness_min: tuple
    witness_max: tuple
    verdict: str

    def __post_init__(self):
        if self.verdict == FITS and self.k1 > self.k2:
            raise ValueError("k1 must not exceed k2")


def _fit_values(space: Space, spec: MetricSpec, a: float, pairs: list) -> tuple:
    """(v, p) over the pairs: v = d(xi,eta) * a^(xi,eta) and p the Gromov
    product, from one invariant call over the distinct points of the pairs.
    Trees use single-exponent forms, so a = e gives the constant 2 exactly
    for dbar."""
    index = {}
    for pair in pairs:
        for x in pair:
            index.setdefault(x, len(index))
    inv = pair_invariants(space, list(index), [index[x] for x, _ in pairs],
                          [index[y] for _, y in pairs], spec.base(space))
    la = math.log(a)
    if space.kind == TREE:
        if spec.family == DBAR:
            value = lambda b: 2.0 * math.exp(b * (la - 1.0))
        else:
            value = lambda b: math.exp(b * la) / (b + float(spec.A) / 2.0)
        lookup = np.array([value(b) for b in range(int(inv.max(initial=0)) + 1)])
        return lookup[inv], inv.astype(float)
    p = _gromov_closed_form(space, inv)
    return _closed_form(space, spec, inv, exact=False) * np.exp(p * la), p


def visual_fit(space: Space, spec: MetricSpec, a: float, pairs: list,
               nested_families: list | None = None) -> VisualFit:
    """Best constants k1 = min, k2 = max of d * a^product over the pairs
    (the first pair attaining each is its witness).

    nested_families: optional increasing pair families; when their k2 values
    increase monotonically by more than _GROWTH_FACTOR overall, the verdict
    flips to unbounded-evidence."""
    if a <= 1:
        raise ValueError("visual parameter must exceed 1")
    if not pairs:
        raise ValueError("need at least one pair")
    v, p = _fit_values(space, spec, a, pairs)
    lo, hi = int(np.argmin(v)), int(np.argmax(v))
    verdict = FITS
    if nested_families:
        tops = [float(_fit_values(space, spec, a, fam)[0].max()) for fam in nested_families]
        if all(x < y for x, y in zip(tops, tops[1:])) and tops[-1] >= _GROWTH_FACTOR * tops[0]:
            verdict = UNBOUNDED
    return VisualFit(a=float(a), k1=float(v[lo]), k2=float(v[hi]),
                     witness_min=(*pairs[lo], float(p[lo]), float(v[lo])),
                     witness_max=(*pairs[hi], float(p[hi]), float(v[hi])),
                     verdict=verdict)


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
