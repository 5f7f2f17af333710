"""Control functions, empirical quasi-symmetry verification, ratio
envelopes, power-law envelope fitting, and the uniform perfectness check
of the tree boundary."""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .metrics import DA, MetricSpec, _Rationals, pair_distance_matrix, pair_kernel, pair_table
from .spaces import (TREE, Space, TreeBoundary, _canonical_word, distinct_rows, sample_boundary,
                     substream)

_DELTA_GRID = 96
# the power-law fit's scratch arrays hold at most this many bytes each
_FIT_BLOCK_BYTES = 1 << 17


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


_AS_RATIO = np.frompyfunc(operator.methodcaller("as_integer_ratio"), 1, 2)


def _floats(x) -> np.ndarray:
    """A float array as it is; rationals by int/int true division, which
    rounds correctly, so each equals `float` of its `Fraction`."""
    return x if isinstance(x, np.ndarray) else (x.num / x.den).astype(float)


def _exceeds(rho, x: np.ndarray) -> np.ndarray:
    """rho > x elementwise for floats x, exact where rho is rational: a
    finite x is compared through its integer ratio, a non-finite one as
    `Fraction` compares it, like 0.0."""
    if isinstance(rho, np.ndarray):
        return rho > x
    out = 0.0 > x
    finite = np.flatnonzero(np.isfinite(x))
    xn, xd = _AS_RATIO(x[finite])
    out[finite] = rho.num[finite] * xd > xn * rho.den[finite]
    return out


def ratio_pool(space: Space, spec1: MetricSpec, spec2: MetricSpec,
               n_triples: int, seed: int) -> tuple:
    """The two pair tables (d1, d2) over the boundary pool of a ratio
    sample, built once and read by every triple stream: a float table as it
    is, an exact tree d_A table as the `_Rationals` of `Space.closed_form` over
    one branch-time table per basepoint."""
    pool = sample_boundary(space, _pool_size(n_triples), seed)
    branch, tables = {}, []
    for spec in (spec1, spec2):
        if space.kind != TREE or spec.family != DA:
            tables.append(pair_distance_matrix(space, spec, pool))
            continue
        base = spec.base(space)
        if base not in branch:
            # -1 on the diagonal reads 0/1
            branch[base] = pair_table(len(pool), pair_kernel(space, pool, base), diagonal=-1)
        tables.append(space.closed_form(spec, branch[base], exact=True))
    return tuple(tables)


def _ratio_triples(pool: tuple, n_triples: int, seed: int, stream: str):
    """Sample n_triples triples (i, j, k) of distinct pool indices from the
    named substream and return (ijk, t, rho, discarded): the kept triples
    as rows of ijk, with t = d1(i,k)/d1(j,k) and rho = d2(i,k)/d2(j,k)
    elementwise (IEEE division of float tables, `_Rationals` of exact
    ones); triples with a zero distance are discarded."""
    rng = substream(seed, stream)
    d1, d2 = pool
    ijk = distinct_rows(len(d1), n_triples, 3, rng)
    i, j, k = ijk.T
    a1, b1, a2, b2 = d1[i, k], d1[j, k], d2[i, k], d2[j, k]
    keep = np.ones(len(ijk), dtype=bool)
    for d in (a1, b1, a2, b2):
        keep &= (d.num if isinstance(d, _Rationals) else d) != 0
    return ijk[keep], a1[keep] / b1[keep], a2[keep] / b2[keep], len(ijk) - int(keep.sum())


def _scaled(slope, t):
    """eta(t) = slope * t as the per-triple arithmetic gives it: exact for
    an int or `Fraction` slope and rational t, else IEEE float(slope) times
    float(t)."""
    if isinstance(t, _Rationals) and isinstance(slope, (int, Fraction)):
        n, d = slope.as_integer_ratio()
        return _Rationals(n * t.num, d * t.den)
    return float(slope) * _floats(t)


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


def verify_control(pool: tuple, eta: ControlFunction, n_triples: int,
                   seed: int) -> ControlReport:
    """Sample triples (x, y, z) of distinct points of the `ratio_pool` pool
    and test the quasi-symmetry inequality rho <= eta(t) for
    t = d1(x,z)/d1(y,z) and rho = d2(x,z)/d2(y,z).  Exact when both tables
    are exact tree d_A tables and the slope is an int or a `Fraction`;
    otherwise rho is compared with eta(t) (1 + 1e-8) in floats, exactly
    where rho is rational."""
    ijk, t, rho, discarded = _ratio_triples(pool, n_triples, seed, "verify-control")
    bound = _scaled(eta.slope, t)
    tf, rf, bf = _floats(t), _floats(rho), _floats(bound)
    if isinstance(rho, _Rationals) and isinstance(bound, _Rationals):
        over = np.flatnonzero(rho.num * bound.den > bound.num * rho.den)
    else:
        over = np.flatnonzero(_exceeds(rho, bf * (1 + 1e-8)))
    positive = bf > 0
    margin = np.full(len(tf), math.inf)
    margin[positive] = rf[positive] / bf[positive]
    witnesses = [(*map(int, ijk[w]), float(tf[w]), float(rf[w]), float(bf[w]))
                 for w in over[:10]]
    return ControlReport(violations=len(over), worst_margin=float(margin.max(initial=0.0)),
                         discarded=discarded, checked=len(tf),
                         seed=seed, witnesses=witnesses)


@dataclass
class Envelope:
    """Multiset of distance-ratio correspondences (t, rho) between two
    metrics, one entry per sampled triple."""

    entries: list                 # (t, rho, (i, j, k))
    discarded: int = 0


def qs_envelope(pool: tuple, n_triples: int, seed: int) -> Envelope:
    """Deterministic sampled envelope of (t, rho) ratio pairs over the
    `ratio_pool` pool."""
    ijk, t, rho, discarded = _ratio_triples(pool, n_triples, seed, "qs-envelope")
    entries = list(zip(_floats(t).tolist(), _floats(rho).tolist(), map(tuple, ijk.tolist())))
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
    # max(lt * delta, lt / delta) is lt / delta where lt >= 0 and lt * delta
    # elsewhere (delta <= 1, and rounding keeps the order): entries of each
    # sign side by side in every row
    up = LT >= 0
    LT_up, LT_down, LR = LT[up], LT[~up], np.concatenate([LR[up], LR[~up]])
    deltas = np.arange(_DELTA_GRID, 0, -1) / _DELTA_GRID
    # a block of deltas at a time, one row each, in two scratch arrays of
    # at most _FIT_BLOCK_BYTES or one row
    rows = max(1, _FIT_BLOCK_BYTES // (8 * len(LR)))
    e, gap = np.empty((rows, len(LR))), np.empty((rows, len(LR)))
    best = None
    for lo in range(0, _DELTA_GRID, rows):
        delta = deltas[lo:lo + rows, None]
        e, gap = e[:len(delta)], gap[:len(delta)]
        np.divide(LT_up, delta, out=e[:, :len(LT_up)])
        np.multiply(LT_down, delta, out=e[:, len(LT_up):])
        cs = [max(1.0, math.exp(m)) for m in np.subtract(LR, e, out=gap).max(axis=1).tolist()]
        # log(c) + e - LR, as one row's operations
        np.add(np.array([[math.log(c)] for c in cs]), e, out=e)
        resids = np.abs(np.subtract(e, LR, out=e), out=e).max(axis=1).tolist()
        for c, resid, d in zip(cs, resids, delta[:, 0].tolist()):
            if best is None or (c, resid) < (best.c, best.max_residual):
                best = PowerLawFit(c=c, delta=d, max_residual=resid)
    return best


# ---------------------------------------------------------------------------
# uniform perfectness


@dataclass
class PerfectnessReport:
    """Witness rows (center, r, witness, d) and failure rows (center, r, d),
    each distance d = num/den given as the reduced ratio (num, den)."""

    cases: int
    vacuous: int
    failures: list
    witnesses: list

    @property
    def ok(self) -> bool:
        return not self.failures


def _tree_annulus_witness(space: Space, center: TreeBoundary, r: Fraction) -> TreeBoundary:
    """Witness in B(center, r) - B(center, r/4) for (tree, d_1): the ray
    agreeing with the center for m = ceil(1/r) edges, then branching."""
    m = -(-r.denominator // r.numerator)
    # period letters repeat at non-initial positions, so stay within 0..k-2
    letter = int(center.letter(m) == 0)
    return TreeBoundary._of_canonical(_canonical_word(center.prefix(m), (letter,)))


def uniformly_perfect_check(space: Space, centers: list, radii: list) -> PerfectnessReport:
    """Uniform perfectness of (boundary of T_k, d_1) with constant 4: for
    each center and each radius r = p/q below the diameter 2, a constructed
    witness whose branch time from the center is measured by the pair
    kernel must lie at the exact d_1 distance d = num/den of `Space.closed_form`
    with r/4 <= d < r, decided in integers as p den <= 4q num and
    q num < p den; the report gives d as (num, den).  Radii >= 2 are
    vacuous.  Raises ValueError on a non-tree space or a radius that is
    not positive and finite."""
    if space.kind != TREE:
        raise ValueError("the perfectness check is constructive on tree spaces only")
    if not all(0 < r < math.inf for r in radii):
        raise ValueError("radius must be positive and finite")
    radii = [Fraction(r) for r in radii]
    live = [r for r in radii if r < 2]
    k = len(live)
    found = [_tree_annulus_witness(space, center, r) for center in centers for r in live]
    inv = pair_kernel(space, list(centers) + found)(
        np.repeat(np.arange(len(centers)), k), np.arange(len(centers), len(centers) + len(found)))
    d1 = space.closed_form(MetricSpec(DA, A=1), inv, exact=True)
    failures, witnesses = [], []
    cases = itertools.product(centers, [(r, r.numerator, r.denominator) for r in live])
    for (center, (r, p, q)), w, d in zip(cases, found, zip(d1.num.tolist(), d1.den.tolist())):
        num, den = d
        if p * den <= 4 * q * num and q * num < p * den:
            witnesses.append((center, r, w, d))
        else:
            failures.append((center, r, d))
    return PerfectnessReport(cases=len(centers) * len(radii),
                             vacuous=len(centers) * (len(radii) - k),
                             failures=failures, witnesses=witnesses)
