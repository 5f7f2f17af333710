"""Boundary metrics on model CAT(0) spaces.

Two families: d_A (reciprocal of the time at which the two basepoint rays
reach separation A) and dbar (the exponentially weighted integral of the
ray separation).  Every value reads one pair invariant from
`pair_invariants` (the branch time on T_k, the chord on R^n, the angle
between the rays on H^2, from any basepoint) and maps it through
`_closed_form`; tree d_A is exact on request.  As the reference paths, a
bracketed bisection and adaptive Simpson evaluate one pair at a time on the
same invariant.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .spaces import (
    EUCLIDEAN,
    HYPERBOLIC,
    TREE,
    BoundaryPoint,
    IdenticalBoundaryPointsError,
    Point,
    Ray,
    Space,
    TreePoint,
    dist,
    ray_point,
)

DA = "dA"
DBAR = "dbar"

_SIMPSON_MAX_DEPTH = 50
# pole dbar: duplication rounds of the Carlson kernel (fixed, so a value does
# not depend on its batch), and the angle below which the two-term
# small-angle expansion, off by less than 1.1e-18 relative, replaces it
_CARLSON_ROUNDS = 16
_POLE_SMALL_ANGLE = 1e-8
_TINY = np.finfo(float).tiny
# the H^2 invariant: the angle between the two rays and log sin(angle/2),
# which stays exact where the sine underflows; off the pole also the sine
# times _SINE_SCALE, which keeps its bits where the sine is subnormal
_HALF_ANGLE = np.dtype([("angle", float), ("log_sine", float)])
_MAPPED_HALF_ANGLE = np.dtype(_HALF_ANGLE.descr + [("scaled_sine", float)])
_SINE_SCALE = 2.0 ** 600
# pairs per block of a pair kernel: tables are filled, and read back, in
# blocks of at most this many entries, so the table is their only n x n
# array.  Unrolled tree words also stay within _WORD_BLOCK_BYTES per block,
# as int64 letters while they are built and checked and as narrow letters
# while they are scanned.
_PAIR_CHUNK = 8192
_WORD_BLOCK_BYTES = 64 * _PAIR_CHUNK


class DivergentGromovProductError(ArithmeticError):
    """t - f(t)/2 has no finite limit (non-antipodal directions of R^n)."""


class SeparationNotReachedError(ArithmeticError):
    """The ray separation stays below A up to t = 2^200, so the bisection
    for d_A has nothing to bracket."""


@dataclass(frozen=True)
class MetricSpec:
    """Which boundary metric to evaluate, with basepoint and tolerances."""

    family: str
    A: object = None              # positive length for dA, ignored for dbar
    basepoint: Point = None       # None means the space's own basepoint
    tol: float = 1e-10

    def __post_init__(self):
        if self.family not in (DA, DBAR):
            raise ValueError(f"unknown metric family {self.family!r}")
        if self.family == DA and (self.A is None or not 0 < self.A < math.inf):
            raise ValueError(f"dA requires a finite A > 0, got {self.A!r}")
        if not 0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")

    def base(self, space: Space) -> Point:
        return self.basepoint if self.basepoint is not None else space.basepoint

    @property
    def tail_horizon(self) -> float:
        # 2(T+1)e^-T < tol/2 is comfortably satisfied at this T
        return max(40.0, -math.log(self.tol / 8.0) + 4.0)


def spec_dA(A, basepoint=None, tol=1e-10) -> MetricSpec:
    return MetricSpec(DA, A=A, basepoint=basepoint, tol=tol)


def spec_dbar(basepoint=None, tol=1e-10) -> MetricSpec:
    return MetricSpec(DBAR, basepoint=basepoint, tol=tol)


@dataclass(frozen=True)
class ConeNeighborhood:
    """Basic cone-topology neighborhood U(c, r, eps) of the ray's endpoint."""

    ray: Ray
    r: object
    eps: object

    def __post_init__(self):
        if self.r <= 0 or self.eps <= 0:
            raise ValueError("cone neighborhood needs r > 0 and eps > 0")


# ---------------------------------------------------------------------------
# pair invariants and their closed forms


def _vertex_word(origin: TreePoint) -> tuple:
    if not origin.is_vertex:
        raise ValueError("tree rays are only supported from vertex origins")
    return origin.word


def pair_invariants(space: Space, points: list, I, J, origin: Point | None = None) -> np.ndarray:
    """The invariant of each pair (points[I[k]], points[J[k]]) seen from
    `origin` (the space's basepoint by default): `pair_kernel` prepared
    once and called once."""
    return pair_kernel(space, points, origin)(np.asarray(I, dtype=np.intp),
                                              np.asarray(J, dtype=np.intp))


def pair_kernel(space: Space, points: list, origin: Point | None = None):
    """The pair invariant of boundary points seen from `origin` (the space's
    basepoint by default), prepared: the per-point arrays are built once and
    the returned function maps index arrays (I, J) to the invariants of the
    pairs (points[I[k]], points[J[k]]):

    - T_k: the branch time (int64) of the rays from the vertex `origin`,
      the last time at which they coincide;
    - R^n: the chord |xi - eta| of the unit directions, summed from
      coordinate differences;
    - H^2: the angle in [0, pi] between the rays at `origin` with the log of
      its half-angle sine s, as `_HALF_ANGLE` records.  At the pole the
      angle is the wrapped dphi.  Elsewhere the Moebius map moving `origin`
      to the pole scales the chord of a pair by w_i w_j (`_chord_scales`),
      so s' = s w_i w_j and log s' = log s + log(w_i w_j), and the record
      (`_MAPPED_HALF_ANGLE`) also carries s' times _SINE_SCALE.

    Each value depends on its own pair only, so a table may be filled in
    blocks.  Raises ValueError here if a tree word uses an illegal letter or
    an H^2 basepoint is too far out for `_chord_scales`; the returned
    function raises IdenticalBoundaryPointsError for a tree pair that
    repeats a point."""
    origin = space.basepoint if origin is None else origin
    if space.kind == TREE:
        return _branch_time_kernel(space, points, _vertex_word(origin))
    if space.kind == EUCLIDEAN:
        V = np.array([p.direction for p in points], dtype=float).reshape(len(points), space.dim)

        def chords(I, J):
            sq = 0.0
            for col in V.T:
                d = col[I] - col[J]
                sq = sq + d * d
            return np.sqrt(sq)
        return chords
    phi = np.array([p.angle for p in points], dtype=float)
    w = None if origin.r == 0.0 else _chord_scales(origin, phi)

    def half_angles(I, J):
        dphi = _wrapped_gap(phi[I], phi[J])
        s = np.sin(dphi / 2.0)
        log_sine = _log_half_sine(dphi, s)
        if w is None:
            out = np.empty(len(I), dtype=_HALF_ANGLE)
            out["angle"], out["log_sine"] = dphi, log_sine
            return out
        k = w[I] * w[J]
        out = np.empty(len(I), dtype=_MAPPED_HALF_ANGLE)
        # s' = s k; where s is subnormal, dphi/2 keeps the bits s lost
        scaled = np.where(s >= _TINY, s * _SINE_SCALE, dphi * (_SINE_SCALE / 2.0)) * k
        out["scaled_sine"] = np.minimum(_SINE_SCALE, scaled)
        out["angle"] = 2.0 * np.arcsin(out["scaled_sine"] / _SINE_SCALE)
        out["log_sine"] = np.minimum(0.0, log_sine + np.log(k))
        return out
    return half_angles


def _wrapped_gap(a, b) -> np.ndarray:
    """|a - b| wrapped into [0, pi]."""
    d = np.abs(a - b) % (2 * math.pi)
    return np.where(d > math.pi, 2 * math.pi - d, d)


def _chord_scales(origin: Point, phi: np.ndarray) -> np.ndarray:
    """The chord scale w = sqrt(1 - rho^2) / |1 - conj(z0) e^{i phi}| of each
    boundary angle under g(z) = (z - z0)/(1 - conj(z0) z), z0 = rho e^{i phi0},
    rho = tanh(r/2), which moves `origin` to the pole:
    |g(xi) - g(eta)| = |xi - eta| w_xi w_eta.  Free of cancellation:
    1 - rho^2 = sech^2(r/2), 1 - rho = 2/(1 + e^r) = 2e^-r/(1 + e^-r) and
    |1 - conj(z0) e^{i phi}|^2 = (1 - rho)^2 + 4 rho sin^2((phi - phi0)/2).
    Raises ValueError where (1 - rho)^2 underflows (r above about 354)."""
    r = origin.r
    e = math.exp(-r)
    one_minus_rho_sq = (2.0 * e / (1.0 + e)) ** 2
    if not one_minus_rho_sq >= _TINY:
        raise ValueError(f"H^2 basepoint radius {r} is too large: (1 - tanh(r/2))^2 underflows")
    sigma = np.sin(_wrapped_gap(phi, origin.phi) / 2.0)
    m2 = one_minus_rho_sq + 4.0 * math.tanh(r / 2.0) * sigma * sigma
    return (1.0 / math.cosh(r / 2.0)) / np.sqrt(m2)


def _branch_time_kernel(space: Space, points: list, v: tuple):
    """Branch times from the vertex with word v.  The words are unrolled
    once, a block of rows at a time, to a length L at which any two distinct
    words differ, so a branch time from the root is a first mismatch; v
    shifts it by |v| - lcp(v, xi) - lcp(v, eta)."""
    if not points:
        return lambda I, J: np.zeros(len(I), dtype=np.int64)
    periods = {len(p.period) for p in points}
    L = max(len(v), max(len(p.preperiod) for p in points)
            + max(math.lcm(a, b) for a in periods for b in periods))
    k = space.valence
    W = np.empty((len(points), L), dtype=np.min_scalar_type(k))
    rows = max(1, _WORD_BLOCK_BYTES // (8 * (L + 1)))
    # one letter more, so that every period letter is also checked at a
    # non-initial position; the scan needs only L
    cols = np.arange(L + 1)
    for lo in range(0, len(points), rows):
        block = points[lo:lo + rows]
        P = np.array([len(p.preperiod) for p in block])[:, None]
        Q = np.array([len(p.period) for p in block])[:, None]
        # each word's preperiod and period letters, read at column j from
        # j itself, then P + (j - P) mod Q
        letters = np.array(list(itertools.chain.from_iterable(p.preperiod + p.period
                                                              for p in block)))
        start = np.cumsum(P + Q) - (P + Q).ravel()
        words = letters[start[:, None] + np.where(cols < P, cols, P + (cols - P) % Q)]
        if (words < 0).any() or (words[:, 0] >= k).any() or (words[:, 1:] >= k - 1).any():
            raise ValueError(f"illegal tree word: first letter must be < {k}, later letters < {k - 1}")
        W[lo:lo + rows] = words[:, :L]
    lcp = None
    if v:
        neq = W[:, :len(v)] != np.array(v)
        lcp = np.where(neq.any(axis=1), neq.argmax(axis=1), len(v))
    step = max(1, min(_PAIR_CHUNK, _WORD_BLOCK_BYTES // (W.itemsize * L)))

    def branch_times(I, J):
        out = np.empty(len(I), dtype=np.int64)
        for lo in range(0, len(I), step):
            neq = W[I[lo:lo + step]] != W[J[lo:lo + step]]
            first = neq.argmax(axis=1)
            if not neq[np.arange(len(first)), first].all():
                raise IdenticalBoundaryPointsError("identical boundary points - branch time infinite")
            out[lo:lo + len(first)] = first
        if lcp is not None:
            out += len(v) - lcp[I] - lcp[J]
        return out
    return branch_times


def _closed_form(space: Space, spec: MetricSpec, inv: np.ndarray, exact: bool) -> np.ndarray:
    """The metric `spec` at pair invariants `inv`, elementwise.

    - T_k: d_A = 1/(b + A/2) (Fractions when `exact`) and dbar = 2e^{-b},
      each evaluated once per branch time up to max(b) with IEEE division
      and `math.exp`;
    - R^n: d_A = chord/A and dbar = chord;
    - H^2: d_A = 1/asinh(sinh(A/2)/s) with s = sin(angle/2), and
      dbar = `pole_dbar(angle)`.  Where sinh(A/2)/s overflows, asinh is read
      as log(sinh(A/2) + hypot(sinh(A/2), s)) - log s."""
    if space.kind == TREE:
        if spec.family == DBAR:
            value = lambda b: 2.0 * math.exp(-b)
        else:
            half = Fraction(spec.A) / 2 if exact else float(spec.A) / 2.0
            value = lambda b: 1 / (b + half)
        lookup = [value(b) for b in range(int(inv.max(initial=0)) + 1)]
        return np.array(lookup, dtype=object if exact and spec.family == DA else float)[inv]
    if space.kind == EUCLIDEAN:
        return inv / float(spec.A) if spec.family == DA else inv
    if spec.family == DBAR:
        out = pole_dbar(inv["angle"])
        if "scaled_sine" in inv.dtype.names:
            # a subnormal s' leaves the mapped angle only its absolute
            # rounding (at the pole the angle is dphi itself), so
            # s'(log(4/s') + 1/2) is read from the scaled sine there
            lost = inv["scaled_sine"] < _TINY * _SINE_SCALE
            out[lost] = (inv["scaled_sine"][lost] * ((math.log(4.0) + 0.5) - inv["log_sine"][lost])
                         / _SINE_SCALE)
        return out
    c = math.sinh(float(spec.A) / 2.0)
    s = np.sin(inv["angle"] / 2.0)
    with np.errstate(divide="ignore", over="ignore"):
        x = c / s
        a = np.arcsinh(x)
        big = np.isinf(x)
        a[big] = np.log(c + np.hypot(c, s[big])) - inv["log_sine"][big]
        return 1.0 / a


def _log_half_sine(dphi: np.ndarray, s: np.ndarray) -> np.ndarray:
    """log s for s = sin(dphi/2), read as log(dphi) - log 2 where s is
    subnormal or 0 (-inf at dphi = 0)."""
    with np.errstate(divide="ignore"):
        out = np.log(s)
        small = s < _TINY
        out[small] = np.log(dphi[small]) - math.log(2.0)
    return out


def _gromov_closed_form(space: Space, inv: np.ndarray) -> np.ndarray:
    """Gromov products at pair invariants: the branch time on T_k, -log s
    with s = sin(angle/2) on H^2, and on R^n 2 - chord when
    |1 - chord/2| < 1e-10; t - f(t)/2 diverges for any other Euclidean pair,
    which raises DivergentGromovProductError."""
    if space.kind == TREE:
        return inv
    if space.kind == HYPERBOLIC:
        return -inv["log_sine"]
    if (np.abs(1.0 - inv / 2.0) >= 1e-10).any():
        raise DivergentGromovProductError(
            "t - f(t)/2 diverges for non-antipodal Euclidean directions")
    return 2.0 - inv


# ---------------------------------------------------------------------------
# ray separation f(t) = d(alpha(t), beta(t)) for rays from a common origin


def _hyp_separation(t: float, s: float, log_s: float) -> float:
    """d(gamma_1(t), gamma_2(t)) = 2 asinh(s sinh t) for two rays of H^2 from
    one origin, s = sin(angle/2), given with its logarithm because s may
    underflow; stable for arbitrarily large t."""
    if t < 350:
        x = math.sinh(t) * s
    else:  # sinh t = e^t / 2 in floating point
        lx = t - math.log(2.0) + log_s
        x = math.exp(lx) if lx < 40.0 else math.inf
    if x < 1e15:
        return 2 * math.asinh(x)
    # asymptotic regime: asinh x = log 2x to double precision
    return 2 * (t + log_s + math.log1p(-math.exp(-2 * t)))


def _separation_fn(space: Space, origin: Point, xi, eta):
    """Per-pair closure for f(t) from the pair invariant."""
    inv = pair_invariants(space, [xi, eta], [0], [1], origin)
    if space.kind == HYPERBOLIC:
        s, log_s = np.sin(inv["angle"] / 2.0).item(0), inv["log_sine"].item(0)
        return lambda t: _hyp_separation(t, s, log_s)
    b = inv.item(0)
    if space.kind == EUCLIDEAN:
        return lambda t: t * b
    return lambda t: 2.0 * max(0.0, t - b)


# ---------------------------------------------------------------------------
# d_A


def _bisect_dA(f, A: float, tol: float) -> float:
    """Solve f(a) = A for nondecreasing continuous f with f(0) = 0 and
    f unbounded; returns 1/a.  Raises SeparationNotReachedError if f stays
    below A up to 2^200 (two rays to one boundary point)."""
    hi = 1.0
    while f(hi) < A:
        hi *= 2.0
        if hi > 2.0 ** 200:
            raise SeparationNotReachedError(f"ray separation stays below A = {A} up to t = 2^200")
    lo = hi / 2.0 if hi > 1.0 else 0.0
    if lo > 0.0 and f(lo) >= A:
        lo = 0.0
    while (hi - lo) > tol * hi:
        mid = 0.5 * (lo + hi)
        if f(mid) < A:
            lo = mid
        else:
            hi = mid
    return 2.0 / (lo + hi)


def eval_dA(space: Space, spec: MetricSpec, xi: BoundaryPoint, eta: BoundaryPoint, method="auto"):
    """d_{A,x0}(xi, eta).  Method 'auto' maps the pair invariant through the
    closed form (an exact Fraction on trees); 'bisect' solves f(a) = A on
    its separation by bracketed bisection; other methods raise ValueError."""
    if spec.family != DA:
        raise ValueError("spec.family must be dA")
    if method not in ("auto", "bisect"):
        raise ValueError(f"method must be 'auto' or 'bisect', got {method!r}")
    if xi == eta:
        return Fraction(0) if space.kind == TREE and method != "bisect" else 0.0
    origin = spec.base(space)
    if method == "bisect":
        return _bisect_dA(_separation_fn(space, origin, xi, eta), float(spec.A), spec.tol)
    return _closed_form(space, spec, pair_invariants(space, [xi, eta], [0], [1], origin),
                        exact=True).item(0)


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson integration of f on [a, b] to absolute tolerance,
    bisecting at most _SIMPSON_MAX_DEPTH times."""
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, fa=fa, a=a, b=b, fb=fb)
    return _adapt(f, a, fa, b, fb, m, fm, whole, tol, _SIMPSON_MAX_DEPTH)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a=a, fa=fa, b=m, fb=fm)
    rm, frm, right = _simpson(f, a=m, fa=fm, b=b, fb=fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return (_adapt(f, a, fa, m, fm, lm, flm, left, tol / 2.0, depth - 1)
            + _adapt(f, m, fm, b, fb, rm, frm, right, tol / 2.0, depth - 1))


# ---------------------------------------------------------------------------
# dbar


def _integrate_separation(f, spec: MetricSpec) -> float:
    """The reference dbar integral of a separation f: adaptive Simpson of
    f(r) e^-r on [0, T] to spec.tol/2, plus the tail bound f(T) e^-T
    (f(r) <= 2r gives tail < 2(T+1)e^-T), T = spec.tail_horizon."""
    T = spec.tail_horizon
    g = lambda r: f(r) * math.exp(-r)
    return adaptive_simpson(g, 0.0, T, spec.tol / 2.0) + f(T) * math.exp(-T)


def eval_dbar(space: Space, spec: MetricSpec, xi: BoundaryPoint, eta: BoundaryPoint, method="auto") -> float:
    """dbar_{x0}(xi, eta) = integral of f(r) e^-r.

    Method 'auto' maps the pair invariant through the closed form (tree:
    2 e^-b; Euclidean: the chord; H^2: `pole_dbar` of the angle at x0);
    'quadrature' integrates its separation by `_integrate_separation`;
    other methods raise ValueError."""
    if spec.family != DBAR:
        raise ValueError("spec.family must be dbar")
    if method not in ("auto", "quadrature"):
        raise ValueError(f"method must be 'auto' or 'quadrature', got {method!r}")
    if xi == eta:
        return 0.0
    origin = spec.base(space)
    if method == "auto":
        return _closed_form(space, spec, pair_invariants(space, [xi, eta], [0], [1], origin),
                            exact=False).item(0)
    return _integrate_separation(_separation_fn(space, origin, xi, eta), spec)


def eval_dbar_extended(space: Space, spec: MetricSpec, x, y) -> float:
    """dbar on Xbar = X union boundary: each point travels its basepoint
    geodesic and then stays frozen at its endpoint."""
    if spec.family != DBAR:
        raise ValueError("spec.family must be dbar")
    if x == y:
        return 0.0
    if isinstance(x, BoundaryPoint) and isinstance(y, BoundaryPoint):
        return eval_dbar(space, spec, x, y)
    origin = spec.base(space)
    cx, cy = Ray(space, origin, x), Ray(space, origin, y)
    return _integrate_separation(lambda r: float(dist(space, ray_point(cx, r), ray_point(cy, r))), spec)


# ---------------------------------------------------------------------------
# Gromov product


def gromov_product(space: Space, x0: Point, xi: BoundaryPoint, eta: BoundaryPoint):
    """Limit of t - f(t)/2, in closed form from the pair invariant: the
    exact branch time on trees, -log sin(angle/2) on H^2 with the angle
    seen from x0.  On R^n, t - f(t)/2 = t(1 - chord/2)
    converges only for antipodal directions, to 2 - chord (0 up to
    rounding) when |1 - chord/2| < 1e-10; otherwise raises
    DivergentGromovProductError."""
    if xi == eta:
        return math.inf
    return _gromov_closed_form(space, pair_invariants(space, [xi, eta], [0], [1], x0)).item(0)


# ---------------------------------------------------------------------------
# cone topology neighborhoods


def cone_contains(space: Space, nbhd: ConeNeighborhood, z) -> bool:
    """Membership of a point or boundary point in U(c, r, eps): z lies
    beyond the sphere S(x0, r), and its projection there, the point at r
    on the geodesic from x0 toward z, is eps-close to c(r)."""
    c = nbhd.ray
    x0 = c.origin
    if not isinstance(z, BoundaryPoint) and dist(space, z, x0) <= nbhd.r:
        return False
    return dist(space, ray_point(Ray(space, x0, z), nbhd.r), ray_point(c, nbhd.r)) < nbhd.eps


# ---------------------------------------------------------------------------
# pair tables over pools of boundary points


def pair_distance_matrix(space: Space, spec: MetricSpec, points: list, exact: bool = False) -> np.ndarray:
    """Symmetric matrix of pairwise boundary distances, 0 on the diagonal:
    the closed form over the pair invariants from the spec's basepoint,
    filled by `pair_table`.  Floats, except that `exact=True` gives the tree
    d_A table in `Fraction`s."""
    kernel = pair_kernel(space, points, spec.base(space))
    return pair_table(len(points), lambda I, J: _closed_form(space, spec, kernel(I, J), exact))


def pair_table(n: int, values, diagonal=0) -> np.ndarray:
    """The symmetric n x n table of `values(I, J)` at the pairs i < j and
    their mirrors, with `diagonal` on the diagonal, in the result type of
    the values and `diagonal`.  `values` is called on the upper triangle in
    row-major blocks of at most _PAIR_CHUNK pairs (once, on no pairs, when
    n < 2), so the table is the only n x n array built."""
    rows = np.arange(n)
    start = rows * (2 * n - rows - 1) // 2      # index of pair (i, i + 1)
    total = n * (n - 1) // 2
    D = None
    for lo in range(0, max(total, 1), _PAIR_CHUNK):
        hi = min(lo + _PAIR_CHUNK, total)
        # rows a..b hold the block's pairs (none when n < 2)
        a, b = np.searchsorted(start, [lo, hi - 1], side="right") - 1
        I = np.repeat(rows[a:b + 1], np.diff(np.clip(start[a:b + 2], lo, hi)))
        J = np.arange(lo, hi) - start[I] + I + 1
        v = values(I, J)
        if D is None:
            D = np.full((n, n), diagonal, dtype=np.result_type(v, diagonal))
            flat = D.reshape(-1)
        flat[I * n + J] = flat[J * n + I] = v
    return D


def block_lines(n: int) -> int:
    """Rows (or columns) of an n x n table per block read, so that a block
    holds at most _PAIR_CHUNK entries (one line when n exceeds it)."""
    return max(1, _PAIR_CHUNK // max(n, 1))


def pole_dbar(dphi: np.ndarray) -> np.ndarray:
    """dbar at the pole of H^2 for pairs of rays at angles `dphi` in [0, pi].

    With y = e^{-r} the integral of 2 asinh(s sinh r) e^{-r}, s = sin(dphi/2),
    becomes an elliptic integral; with q = dphi/4,
    dbar = 2 [R_F(1, csc^2 q, sec^2 q) + R_D(csc^2 q, sec^2 q, 1)/3]
         = 2 sin q [R_F(1, tan^2 q, sin^2 q) + sin^2 q R_D(1, tan^2 q, sin^2 q)/3]
    by the homogeneity of R_F (degree -1/2) and R_D (degree -3/2).  Below
    _POLE_SMALL_ANGLE the expansion (dphi/2)(log(8/dphi) + 1/2) is used
    instead, which stays finite and positive down to the smallest
    subnormal angle.  Each value depends on its own angle only."""
    dphi = np.asarray(dphi, dtype=float)
    out = np.zeros(dphi.shape)
    small = dphi < _POLE_SMALL_ANGLE
    q = dphi[~small] / 4.0
    sq = np.sin(q)
    tq = np.tan(q)
    rf, rd = _carlson_rf_rd(1.0, tq * tq, sq * sq)
    out[~small] = 2.0 * sq * (rf + sq * sq * rd / 3.0)
    tiny = small & (dphi > 0.0)
    d = dphi[tiny]
    out[tiny] = d * ((math.log(8.0) + 0.5) - np.log(d)) * 0.5
    return out


def _carlson_rf_rd(x, y, z) -> tuple:
    """Carlson's symmetric elliptic integrals R_F(x, y, z) and R_D(x, y, z)
    for positive arrays, by _CARLSON_ROUNDS rounds of the duplication
    theorem and the fifth-order series of DLMF 19.36.1 and 19.36.2
    (B. C. Carlson, Numer. Algorithms 10, 1995).  Both read one duplication
    sequence of (x, y, z)."""
    x, y, z = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (x, y, z)))
    a_f = (x + y + z) / 3.0
    a_d = (x + y + 3.0 * z) / 5.0
    xf, yf, xd, yd = a_f - x, a_f - y, a_d - x, a_d - y
    tail = np.zeros(x.shape)
    scale = 1.0
    for _ in range(_CARLSON_ROUNDS):
        sx, sy, sz = np.sqrt(x), np.sqrt(y), np.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        tail += scale / (sz * (z + lam))
        scale *= 0.25
        x, y, z = (x + lam) * 0.25, (y + lam) * 0.25, (z + lam) * 0.25
        a_f, a_d = (a_f + lam) * 0.25, (a_d + lam) * 0.25
    X, Y = xf * scale / a_f, yf * scale / a_f
    Z = -(X + Y)
    e2, e3 = X * Y - Z * Z, X * Y * Z
    rf = (1.0 - e2 / 10.0 + e3 / 14.0 + e2 * e2 / 24.0 - 3.0 * e2 * e3 / 44.0) / np.sqrt(a_f)
    X, Y = xd * scale / a_d, yd * scale / a_d
    Z = -(X + Y) / 3.0
    xy, zz = X * Y, Z * Z
    e2, e3, e4, e5 = xy - 6.0 * zz, (3.0 * xy - 8.0 * zz) * Z, 3.0 * (xy - zz) * zz, xy * zz * Z
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0 - 3.0 * e4 / 22.0
              - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    rd = 3.0 * tail + scale / (a_d * np.sqrt(a_d)) * series
    return rf, rd


def with_basepoint(spec: MetricSpec, basepoint: Point) -> MetricSpec:
    return replace(spec, basepoint=basepoint)
