"""Boundary metrics on model CAT(0) spaces.

Two families: d_A (reciprocal of the time at which the two basepoint rays
reach separation A) and dbar (the exponentially weighted integral of the
ray separation).  Tree values are exact; Euclidean and hyperbolic use
closed forms where available, one fixed Simpson grid for dbar at the pole
of H^2, and a bracketed bisection / adaptive Simpson kernel otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .spaces import (
    EUCLIDEAN,
    HYPERBOLIC,
    TREE,
    BoundaryPoint,
    EuclideanBoundary,
    HyperbolicBoundary,
    IdenticalBoundaryPointsError,
    Point,
    Ray,
    Space,
    SpaceMismatchError,
    TreeBoundary,
    TreePoint,
    branch_time,
    dist,
    point_on_geodesic,
    project_to_sphere,
    ray_point,
)

DA = "dA"
DBAR = "dbar"

_SIMPSON_MAX_DEPTH = 50
# the composite-Simpson grid of pole dbar: horizon, intervals, pairs per chunk
_POLE_T = 40.0
_POLE_INTERVALS = 8192
_POLE_CHUNK = 400


class DivergentGromovProductError(ArithmeticError):
    """t - f(t)/2 has no finite limit (non-antipodal directions of R^n), or
    the pole closed form underflows."""


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
        if self.family == DA and (self.A is None or self.A <= 0):
            raise ValueError("dA requires A > 0")
        if self.tol <= 0:
            raise ValueError("tol must be positive")

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
# ray separation f(t) = d(alpha(t), beta(t)) for rays from a common origin


def _wrapped_half_angle_sin(phi1: float, phi2: float) -> float:
    delta = abs(phi1 - phi2) % (2 * math.pi)
    if delta > math.pi:
        delta = 2 * math.pi - delta
    return math.sin(delta / 2)


def _hyp_pole_separation(t: float, s: float) -> float:
    """d(gamma_1(t), gamma_2(t)) for two pole rays, s = sin(dphi/2); stable
    for arbitrarily large t."""
    if s == 0.0:
        return 0.0
    x = math.sinh(t) * s if t < 350 else math.inf
    if math.isfinite(x) and x < 1e15:
        return 2 * math.asinh(x)
    # asymptotic regime: sinh t ~ e^t/2
    return 2 * (t + math.log(s) + math.log1p(-math.exp(-2 * t)) if t < 350 else t + math.log(s))


def _euclid_chord(xi: EuclideanBoundary, eta: EuclideanBoundary) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(xi.direction, eta.direction)))


def _lcp(word: tuple, xi: TreeBoundary) -> int:
    """Number of leading letters of the vertex word shared with xi."""
    j = 0
    while j < len(word) and word[j] == xi.letter(j):
        j += 1
    return j


def _vertex_word(origin: TreePoint) -> tuple:
    if not origin.is_vertex:
        raise ValueError("tree rays are only supported from vertex origins")
    return origin.word


def tree_branch_from(space: Space, origin: TreePoint, xi: TreeBoundary, eta: TreeBoundary) -> Fraction:
    """Exact branch time of the two rays from the vertex `origin` toward xi
    and eta: the last time at which they coincide.  From a vertex v it is
    b(xi, eta) + |v| - lcp(v, xi) - lcp(v, eta), with b the branch time from
    the root.  Raises IdenticalBoundaryPointsError if xi == eta."""
    v = _vertex_word(origin)
    return branch_time(space, xi, eta) + len(v) - _lcp(v, xi) - _lcp(v, eta)


def _separation_fn(space: Space, origin: Point, xi, eta):
    """Per-pair closure for f(t), hoisting pair-level precomputation."""
    if space.kind == EUCLIDEAN:
        chord = _euclid_chord(xi, eta)
        return lambda t: t * chord
    if space.kind == TREE:
        b = float(tree_branch_from(space, origin, xi, eta))
        return lambda t: 2.0 * max(0.0, t - b)
    if origin.r == 0.0:
        s = _wrapped_half_angle_sin(xi.angle, eta.angle)
        return lambda t: _hyp_pole_separation(t, s)
    rx = Ray(space, origin, xi)
    re = Ray(space, origin, eta)
    return lambda t: dist(space, ray_point(rx, t), ray_point(re, t))


# ---------------------------------------------------------------------------
# d_A


def _bisect_dA(f, A: float, tol: float) -> float:
    """Solve f(a) = A for nondecreasing continuous f with f(0) = 0 and
    f unbounded; returns 1/a."""
    hi = 1.0
    while f(hi) < A:
        hi *= 2.0
        if hi > 2.0 ** 200:
            return 0.0  # separation never reaches A: identical classes
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
    """d_{A,x0}(xi, eta).  Exact Fraction on trees (method 'auto'/'closed');
    closed forms on Euclidean and pole-based hyperbolic; bracketed bisection
    otherwise or when method='bisect'."""
    if spec.family != DA:
        raise ValueError("spec.family must be dA")
    if xi == eta:
        return Fraction(0) if space.kind == TREE and method != "bisect" else 0.0
    origin = spec.base(space)
    if method == "bisect":
        f = _separation_fn(space, origin, xi, eta)
        return _bisect_dA(f, float(spec.A), spec.tol)
    if space.kind == TREE:
        b = tree_branch_from(space, origin, xi, eta)
        return 1 / (b + Fraction(spec.A) / 2)
    if space.kind == EUCLIDEAN:
        chord = _euclid_chord(xi, eta)
        return chord / float(spec.A)
    if origin.r == 0.0:
        s = _wrapped_half_angle_sin(xi.angle, eta.angle)
        a = math.asinh(math.sinh(float(spec.A) / 2) / s)
        return 1.0 / a
    f = _separation_fn(space, origin, xi, eta)
    return _bisect_dA(f, float(spec.A), spec.tol)


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


def eval_dbar(space: Space, spec: MetricSpec, xi: BoundaryPoint, eta: BoundaryPoint, method="auto") -> float:
    """dbar_{x0}(xi, eta) = integral of f(r) e^-r.

    method 'auto' uses closed forms (tree: 2 e^-b; Euclidean: the chord) and
    at the pole of H^2 the Simpson grid of `pole_dbar`; 'quadrature', and
    an off-pole basepoint, use the adaptive Simpson kernel with the rigorous
    tail estimate (f(r) <= 2r gives tail < 2(T+1)e^-T)."""
    if spec.family != DBAR:
        raise ValueError("spec.family must be dbar")
    if xi == eta:
        return 0.0
    origin = spec.base(space)
    if method != "quadrature":
        if space.kind == TREE:
            b = tree_branch_from(space, origin, xi, eta)
            return 2.0 * math.exp(-float(b))
        if space.kind == EUCLIDEAN:
            return _euclid_chord(xi, eta)  # int r e^-r dr = 1
        if origin.r == 0.0:
            s = _wrapped_half_angle_sin(xi.angle, eta.angle)
            return float(pole_dbar(np.array([s]))[0])
    f = _separation_fn(space, origin, xi, eta)
    T = spec.tail_horizon
    g = lambda r: f(r) * math.exp(-r)
    return adaptive_simpson(g, 0.0, T, spec.tol / 2.0) + f(T) * math.exp(-T)


def eval_dbar_extended(space: Space, spec: MetricSpec, x, y) -> float:
    """dbar on Xbar = X union boundary: interior points travel their
    basepoint geodesic and then stay frozen at the endpoint."""
    if spec.family != DBAR:
        raise ValueError("spec.family must be dbar")
    origin = spec.base(space)
    bnd = (EuclideanBoundary, TreeBoundary, HyperbolicBoundary)
    if not isinstance(x, bnd) and not isinstance(y, bnd) and x == y:
        return 0.0
    if isinstance(x, bnd) and isinstance(y, bnd):
        return eval_dbar(space, spec, x, y)

    def path(z):
        if isinstance(z, bnd):
            ray = Ray(space, origin, z)
            return lambda r: ray_point(ray, r)
        return lambda r: point_on_geodesic(space, origin, z, r)

    cx, cy = path(x), path(y)
    f = lambda r: float(dist(space, cx(r), cy(r)))
    T = spec.tail_horizon
    g = lambda r: f(r) * math.exp(-r)
    return adaptive_simpson(g, 0.0, T, spec.tol / 2.0) + f(T) * math.exp(-T)


# ---------------------------------------------------------------------------
# Gromov product


def gromov_product(space: Space, x0: Point, xi: BoundaryPoint, eta: BoundaryPoint):
    """Limit of t - f(t)/2, in closed form: the exact branch time on trees,
    -log sin(dphi/2) at the pole of H^2.  On R^n, t - f(t)/2 = t(1 - chord/2)
    converges only for antipodal directions, to 2 - chord (0 up to
    rounding) when |1 - chord/2| < 1e-10; otherwise raises
    DivergentGromovProductError."""
    if xi == eta:
        return math.inf
    if space.kind == TREE:
        return tree_branch_from(space, x0, xi, eta)
    if space.kind == HYPERBOLIC:
        if x0.r != 0.0:
            raise SpaceMismatchError("hyperbolic Gromov products are supported at the pole only")
        s = _wrapped_half_angle_sin(xi.angle, eta.angle)
        if s == 0.0:
            raise DivergentGromovProductError("angles too close: sin(dphi/2) underflows to 0")
        return -math.log(s)
    chord = _euclid_chord(xi, eta)
    if abs(1.0 - chord / 2.0) < 1e-10:
        return 2.0 - chord
    raise DivergentGromovProductError(
        "t - f(t)/2 diverges for non-antipodal Euclidean directions")


# ---------------------------------------------------------------------------
# cone topology membership


def cone_contains(space: Space, nbhd: ConeNeighborhood, z) -> bool:
    """Membership of a point or boundary point in U(c, r, eps)."""
    c = nbhd.ray
    x0 = c.origin
    bnd = (EuclideanBoundary, TreeBoundary, HyperbolicBoundary)
    if not isinstance(z, bnd):
        if dist(space, z, x0) <= nbhd.r:
            return False
    proj = project_to_sphere(space, x0, z, nbhd.r)
    return dist(space, proj, ray_point(c, nbhd.r)) < nbhd.eps


# ---------------------------------------------------------------------------
# pair tables over pools of boundary points


def tree_branch_matrix(space: Space, points: list, origin: TreePoint | None = None) -> np.ndarray:
    """B[i, j] = branch time (int) of the rays from the vertex `origin` (the
    root by default) toward points i and j; -1 on the diagonal.

    Every word is unrolled to a length at which any two distinct words
    differ, so a row's branch times from the root are its first mismatches
    with the later rows; a vertex v shifts them as in `tree_branch_from`.
    Raises IdenticalBoundaryPointsError if a point repeats and ValueError
    if a word uses an illegal letter."""
    v = () if origin is None else _vertex_word(origin)
    n = len(points)
    B = np.full((n, n), -1, dtype=np.int64)
    if n == 0:
        return B
    periods = {len(p.period) for p in points}
    L = max(len(v), max(len(p.preperiod) for p in points)
            + max(math.lcm(a, b) for a in periods for b in periods))
    W = np.array([p.prefix(L) for p in points])
    k = space.valence
    if (W < 0).any() or (W[:, 0] >= k).any() or (W[:, 1:] >= k - 1).any():
        raise ValueError(f"illegal tree word: first letter must be < {k}, later letters < {k - 1}")
    W = W.astype(np.min_scalar_type(k))
    for i in range(n - 1):
        neq = W[i + 1:] != W[i]
        if not neq.any(axis=1).all():
            raise IdenticalBoundaryPointsError("identical boundary points - branch time infinite")
        B[i, i + 1:] = B[i + 1:, i] = neq.argmax(axis=1)
    if v:
        neq = W[:, :len(v)] != np.array(v)
        lcp = np.where(neq.any(axis=1), neq.argmax(axis=1), len(v))
        B += len(v) - lcp[:, None] - lcp[None, :]
        np.fill_diagonal(B, -1)
    return B


def tree_value_lookup(B: np.ndarray, value, zero) -> list:
    """value(b) for every branch time 0..max(B), then `zero`, so indexing the
    list with B maps the diagonal's -1 to `zero`."""
    return [value(b) for b in range(int(B.max(initial=0)) + 1)] + [zero]


def pair_distance_matrix(space: Space, spec: MetricSpec, points: list) -> np.ndarray:
    """Dense float matrix of pairwise boundary distances (vectorized for the
    numeric spaces; closed forms on trees converted to float)."""
    n = len(points)
    if space.kind == EUCLIDEAN:
        V = np.array([p.direction for p in points], dtype=float)
        G = V @ V.T
        sq = np.maximum(2.0 - 2.0 * np.clip(G, -1.0, 1.0), 0.0)
        chord = np.sqrt(sq)
        np.fill_diagonal(chord, 0.0)
        if spec.family == DA:
            return chord / float(spec.A)
        return chord
    if space.kind == TREE:
        B = tree_branch_matrix(space, points, spec.base(space))
        if spec.family == DA:
            A = float(spec.A)
            value = lambda b: 1.0 / (b + A / 2.0)
        else:
            value = lambda b: 2.0 * math.exp(-b)
        return np.array(tree_value_lookup(B, value, 0.0))[B]
    # hyperbolic, pole basepoint
    origin = spec.base(space)
    if origin.r != 0.0:
        D = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                if spec.family == DA:
                    D[i, j] = float(eval_dA(space, spec, points[i], points[j], method="bisect"))
                else:
                    D[i, j] = eval_dbar(space, spec, points[i], points[j], method="quadrature")
                D[j, i] = D[i, j]
        return D
    phis = np.array([p.angle for p in points])
    delta = np.abs(phis[:, None] - phis[None, :]) % (2 * math.pi)
    delta = np.where(delta > math.pi, 2 * math.pi - delta, delta)
    s = np.sin(delta / 2.0)
    if spec.family == DA:
        A = float(spec.A)
        with np.errstate(divide="ignore"):
            a = np.arcsinh(math.sinh(A / 2.0) / np.where(s > 0, s, np.inf))
            D = np.where(a > 0, 1.0 / np.where(a > 0, a, 1.0), 0.0)
        np.fill_diagonal(D, 0.0)
        return D
    iu = np.triu_indices(n, k=1)
    D = np.zeros((n, n))
    D[iu] = D[(iu[1], iu[0])] = pole_dbar(s[iu])
    return D


def pole_dbar(svals: np.ndarray) -> np.ndarray:
    """dbar at the pole of H^2 for pairs of rays with half-angle sines
    `svals`: composite Simpson on the fixed grid over [0, _POLE_T], in
    chunks of _POLE_CHUNK pairs, plus the frozen tail."""
    T = _POLE_T
    r = np.linspace(0.0, T, _POLE_INTERVALS + 1)
    w = np.ones(_POLE_INTERVALS + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= (T / _POLE_INTERVALS) / 3.0
    w_exp = w * np.exp(-r)
    sinh_r = np.sinh(r)
    out = np.empty(svals.shape[0])
    for lo in range(0, svals.shape[0], _POLE_CHUNK):
        sv = svals[lo:lo + _POLE_CHUNK]
        f = 2.0 * np.arcsinh(sinh_r[None, :] * sv[:, None])
        out[lo:lo + _POLE_CHUNK] = f @ w_exp
    # frozen-tail correction, ~2(T + log s) e^-T, negligible at T = 40
    fT = 2.0 * np.arcsinh(math.sinh(T) * svals)
    out += fT * math.exp(-T)
    return out


def with_basepoint(spec: MetricSpec, basepoint: Point) -> MetricSpec:
    return replace(spec, basepoint=basepoint)
