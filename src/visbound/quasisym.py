"""Control functions, empirical quasi-symmetry verification, ratio
envelopes, power-law envelope fitting, and the uniform perfectness check
of the tree boundary."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .metrics import DA, MetricSpec, _closed_form, pair_distance_matrix, pair_invariants
from .spaces import (
    TREE,
    Space,
    TreeBoundary,
    sample_boundary,
    substream,
)

_DELTA_GRID = 96


@dataclass(frozen=True)
class ControlFunction:
    """Linear homeomorphism eta(t) = slope * t of [0, inf), slope > 0, used
    as a quasi-symmetry control."""

    slope: object

    def __post_init__(self):
        if self.slope <= 0:
            raise ValueError("linear control function needs slope > 0")

    def __call__(self, t):
        return self.slope * t


def linear_control(slope) -> ControlFunction:
    return ControlFunction(slope)


def eta_change_A(A, A_prime) -> ControlFunction:
    """Control function for the identity between d_A and d_A' (A < A')."""
    if A <= 0 or A_prime <= 0:
        raise ValueError("A parameters must be positive")
    return linear_control(Fraction(A_prime) / Fraction(A))


def eta_change_basepoint(A, D) -> ControlFunction:
    """Control function for the identity between d_{A,x0} and d_{A,x0'} with
    d(x0, x0') = D.  Direct formula when D < A/2; otherwise chained through
    intermediate basepoints spaced strictly below A/2."""
    A = Fraction(A)
    D = Fraction(D)
    if A <= 0 or D < 0:
        raise ValueError("need A > 0 and D >= 0")
    if D == 0:
        return linear_control(Fraction(1))
    if 2 * D < A:
        return linear_control((A / (A - 2 * D)) ** 2)
    n = math.ceil(D / (Fraction(49, 100) * A))
    step = D / n
    per_step = (A / (A - 2 * step)) ** 2
    return linear_control(per_step ** n)


# ---------------------------------------------------------------------------
# triple sampling and metric evaluation helpers


def _pool_size(n_triples: int) -> int:
    return min(400, max(16, int(1.5 * math.sqrt(n_triples)) + 8))


def _sample_triples(n_points: int, n_triples: int, rng) -> list:
    out = []
    while len(out) < n_triples:
        need = n_triples - len(out)
        raw = rng.integers(0, n_points, size=(need + need // 2 + 4, 3))
        for i, j, k in raw:
            if i != j and j != k and i != k:
                out.append((int(i), int(j), int(k)))
                if len(out) == n_triples:
                    break
    return out


def _ratio_triples(space: Space, spec1: MetricSpec, spec2: MetricSpec,
                   n_triples: int, seed: int, stream: str):
    """Sample n_triples triples (i, j, k) of distinct pool indices from the
    named substream and return ([((i, j, k), t, rho)], discarded) with
    t = d1(i,k)/d1(j,k) and rho = d2(i,k)/d2(j,k); triples with a zero
    distance are discarded."""
    rng = substream(seed, stream)
    pool = sample_boundary(space, _pool_size(n_triples), seed)
    d1 = pair_distance_matrix(space, spec1, pool, exact=True)
    d2 = pair_distance_matrix(space, spec2, pool, exact=True)
    triples = _sample_triples(len(pool), n_triples, rng)
    kept = []
    for (i, j, k) in triples:
        a1, b1 = d1[i, k], d1[j, k]
        a2, b2 = d2[i, k], d2[j, k]
        if a1 == 0 or b1 == 0 or a2 == 0 or b2 == 0:
            continue
        kept.append(((i, j, k), a1 / b1, a2 / b2))
    return kept, len(triples) - len(kept)


@dataclass
class ControlReport:
    violations: int
    worst_margin: float
    discarded: int
    checked: int
    seed: int
    witnesses: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "discarded": self.discarded,
            "checked": self.checked,
            "seed": self.seed,
        }


def verify_control(space: Space, spec1: MetricSpec, spec2: MetricSpec,
                   eta: ControlFunction, n_triples: int, seed: int) -> ControlReport:
    """Sample triples (x, y, z) of distinct boundary points and test the
    quasi-symmetry inequality rho <= eta(t) for t = d1(x,z)/d1(y,z) and
    rho = d2(x,z)/d2(y,z).  Exact on trees when both metrics are d_A."""
    exact = (space.kind == TREE and spec1.family == DA and spec2.family == DA
             and isinstance(eta.slope, (int, Fraction)))
    # integer 0 keeps the comparison in exact arithmetic
    tol_rel = 0 if exact else 1e-8
    kept, discarded = _ratio_triples(space, spec1, spec2, n_triples, seed, "verify-control")
    violations = 0
    worst = 0.0
    witnesses = []
    for (i, j, k), t, rho in kept:
        bound = eta(t)
        margin = float(rho) / float(bound) if bound > 0 else math.inf
        worst = max(worst, margin)
        if rho > bound * (1 + tol_rel):
            violations += 1
            if len(witnesses) < 10:
                witnesses.append((i, j, k, float(t), float(rho), float(bound)))
    return ControlReport(violations=violations, worst_margin=worst,
                         discarded=discarded, checked=len(kept),
                         seed=seed, witnesses=witnesses)


@dataclass
class Envelope:
    """Multiset of distance-ratio correspondences (t, rho) between two
    metrics, one entry per sampled triple."""

    entries: list                 # (t, rho, (i, j, k))
    discarded: int = 0


def qs_envelope(space: Space, spec1: MetricSpec, spec2: MetricSpec,
                n_triples: int, seed: int) -> Envelope:
    """Deterministic sampled envelope of (t, rho) ratio pairs."""
    kept, discarded = _ratio_triples(space, spec1, spec2, n_triples, seed, "qs-envelope")
    entries = [(float(t), float(rho), ijk) for ijk, t, rho in kept]
    return Envelope(entries=entries, discarded=discarded)


@dataclass
class PowerLawFit:
    c: float
    delta: float
    max_residual: float


def power_law_fit(env: Envelope) -> PowerLawFit:
    """Smallest c over the delta grid k/_DELTA_GRID with
    rho <= c * max(t^delta, t^(1/delta)) for every envelope pair; residual
    is the worst log-gap to the fitted envelope."""
    if not env.entries:
        raise ValueError("empty envelope")
    LT = np.array([math.log(t) for t, _, _ in env.entries])
    LR = np.array([math.log(r) for _, r, _ in env.entries])
    best = None
    for step in range(_DELTA_GRID, 0, -1):
        delta = step / _DELTA_GRID
        e = np.maximum(LT * delta, LT / delta)
        c = max(1.0, math.exp((LR - e).max()))
        resid = float(np.abs(math.log(c) + e - LR).max())
        if best is None or (c, resid) < (best.c, best.max_residual):
            best = PowerLawFit(c=c, delta=delta, max_residual=resid)
    return best


# ---------------------------------------------------------------------------
# uniform perfectness


@dataclass
class PerfectnessReport:
    cases: int
    vacuous: int
    failures: list
    witnesses: list

    @property
    def ok(self) -> bool:
        return not self.failures


def _tree_annulus_witness(space: Space, center: TreeBoundary, r: Fraction) -> TreeBoundary:
    """Witness in B(center, r) - B(center, r/4) for (tree, d_1): the ray
    agreeing with the center for ceil(1/r) edges, then branching."""
    m = int(math.ceil(1 / r))
    avoid = center.letter(m)
    # period letters repeat at non-initial positions, so stay within 0..k-2
    letter = next(a for a in range(space.valence - 1) if a != avoid)
    return TreeBoundary(center.prefix(m), (letter,))


def uniformly_perfect_check(space: Space, centers: list, radii: list) -> PerfectnessReport:
    """Uniform perfectness of (boundary of T_k, d_1) with constant 4: for
    each center and each radius r below the diameter 2, a constructed
    witness whose d_1 distance d from the center, measured by the pair
    kernel in exact arithmetic, must satisfy r/4 <= d < r.  Radii >= 2 are
    vacuous.  Raises ValueError on a non-tree space."""
    if space.kind != TREE:
        raise ValueError("the perfectness check is constructive on tree spaces only")
    live = [Fraction(r) for r in radii if Fraction(r) < 2]
    k = len(live)
    found = [_tree_annulus_witness(space, center, r) for center in centers for r in live]
    # the kernel unrolls every word of a call to one length, so each call
    # takes one center and its k witnesses, not all of them at once
    inv = np.zeros(len(found), dtype=np.int64)
    for i, center in enumerate(centers):
        inv[i * k:(i + 1) * k] = pair_invariants(space, [center] + found[i * k:(i + 1) * k],
                                                 np.zeros(k, dtype=np.int64), np.arange(1, k + 1))
    dists = _closed_form(space, MetricSpec(DA, A=1), inv, exact=True)
    failures, witnesses = [], []
    for (center, r), w, d in zip(itertools.product(centers, live), found, dists):
        if r / 4 <= d < r:
            witnesses.append((center, r, w, d))
        else:
            failures.append((center, r, d))
    return PerfectnessReport(cases=len(centers) * len(radii),
                             vacuous=len(centers) * (len(radii) - k),
                             failures=failures, witnesses=witnesses)
