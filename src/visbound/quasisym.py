"""Control functions, empirical quasi-symmetry verification, ratio
envelopes, power-law envelope fitting, and uniform perfectness checks."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .metrics import DA, MetricSpec, pair_distance_matrix
from .spaces import (
    TREE,
    Space,
    TreeBoundary,
    sample_boundary,
    space_id,
    substream,
)

LINEAR = "linear"
POWER = "power"
COMPOSITE = "composite"

_DELTA_GRID = 96


@dataclass(frozen=True)
class ControlFunction:
    """Homeomorphism of [0, inf) used as a quasi-symmetry control.

    linear:    eta(t) = slope * t, slope > 0
    power:     eta(t) = c * max(t^delta, t^(1/delta)), c >= 1, 0 < delta <= 1
    composite: components applied innermost-first
    """

    form: str
    slope: object = None
    c: float = None
    delta: float = None
    components: tuple = ()

    def __post_init__(self):
        if self.form == LINEAR:
            if self.slope is None or self.slope <= 0:
                raise ValueError("linear control function needs slope > 0")
        elif self.form == POWER:
            if self.c is None or self.c < 1 or not (0 < self.delta <= 1):
                raise ValueError("power control function needs c >= 1, delta in (0,1]")
        elif self.form == COMPOSITE:
            if not self.components:
                raise ValueError("composite control function needs components")
        else:
            raise ValueError(f"unknown control function form {self.form!r}")

    def __call__(self, t):
        if self.form == LINEAR:
            return self.slope * t
        if self.form == POWER:
            tf = float(t)
            return self.c * max(tf ** self.delta, tf ** (1.0 / self.delta)) if tf > 0 else 0.0
        out = t
        for comp in self.components:
            out = comp(out)
        return out


def linear_control(slope) -> ControlFunction:
    return ControlFunction(LINEAR, slope=slope)


def power_control(c: float, delta: float) -> ControlFunction:
    return ControlFunction(POWER, c=c, delta=delta)


identity_control = linear_control(Fraction(1))


def compose_eta(inner: ControlFunction, outer: ControlFunction) -> ControlFunction:
    """outer o inner; linear o linear simplifies to linear(product)."""
    if inner.form == LINEAR and outer.form == LINEAR:
        return linear_control(inner.slope * outer.slope)
    if inner.form == LINEAR and inner.slope == 1:
        return outer
    if outer.form == LINEAR and outer.slope == 1:
        return inner
    inner_parts = inner.components if inner.form == COMPOSITE else (inner,)
    outer_parts = outer.components if outer.form == COMPOSITE else (outer,)
    return ControlFunction(COMPOSITE, components=inner_parts + outer_parts)


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
             and eta.form == LINEAR and isinstance(eta.slope, (int, Fraction)))
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
    provenance: dict
    discarded: int = 0


def qs_envelope(space: Space, spec1: MetricSpec, spec2: MetricSpec,
                n_triples: int, seed: int) -> Envelope:
    """Deterministic sampled envelope of (t, rho) ratio pairs."""
    kept, discarded = _ratio_triples(space, spec1, spec2, n_triples, seed, "qs-envelope")
    entries = [(float(t), float(rho), ijk) for ijk, t, rho in kept]
    prov = {
        "space": space_id(space),
        "metric1": spec1.family, "metric2": spec2.family,
        "A1": None if spec1.A is None else float(spec1.A),
        "A2": None if spec2.A is None else float(spec2.A),
        "seed": seed, "n_triples": n_triples,
    }
    return Envelope(entries=entries, provenance=prov, discarded=discarded)


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


def _tree_annulus_witness(space: Space, center: TreeBoundary, r: Fraction):
    """Explicit witness in B(center, r) - B(center, r/4) for (tree, d_1):
    the ray agreeing with the center for ceil(1/r) edges, then branching."""
    m = int(math.ceil(1 / r))
    k = space.valence
    prefix = center.prefix(m)
    avoid = center.letter(m)
    # period letters repeat at non-initial positions, so stay within 0..k-2
    letter = next(a for a in range(k - 1) if a != avoid)
    witness = TreeBoundary(prefix, (letter,))
    d = 1 / (Fraction(m) + Fraction(1, 2))
    return witness, d


def uniformly_perfect_check(space: Space, spec: MetricSpec, samples: list,
                            c, radii: list) -> PerfectnessReport:
    """For each sampled center and radius: if the complement of B(x, r) is
    nonempty, find a witness in B(x, r) - B(x, r/c).  Constructive (exact)
    on trees with d_1 and c >= 4; otherwise searched among `samples`."""
    if c <= 1:
        raise ValueError("uniform perfectness constant must exceed 1")
    constructive = (space.kind == TREE and spec.family == DA
                    and Fraction(spec.A) == 1 and c >= 4)
    failures = []
    witnesses = []
    cases = 0
    vacuous = 0
    if constructive:
        diam = Fraction(2)
        for center in samples:
            for r in radii:
                rf = Fraction(r)
                cases += 1
                if rf >= diam:
                    vacuous += 1
                    continue
                w, d = _tree_annulus_witness(space, center, rf)
                ok = w is not None and (rf / 4 <= d < rf)
                if ok:
                    witnesses.append((center, rf, w, d))
                else:
                    failures.append((center, rf, d))
        return PerfectnessReport(cases=cases, vacuous=vacuous,
                                 failures=failures, witnesses=witnesses)
    table = pair_distance_matrix(space, spec, samples, exact=True)
    n = len(samples)
    for i in range(n):
        for r in radii:
            cases += 1
            others = [(table[i, j], j) for j in range(n) if j != i]
            if not any(d >= r for d, _ in others):
                vacuous += 1
                continue
            hit = next(((d, j) for d, j in others if r / c <= d < r), None)
            if hit is None:
                failures.append((i, r))
            else:
                witnesses.append((i, r, hit[1], float(hit[0])))
    return PerfectnessReport(cases=cases, vacuous=vacuous,
                             failures=failures, witnesses=witnesses)
