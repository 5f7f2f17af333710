"""Boundary metrics on model CAT(0) spaces.

Two families: d_A (reciprocal of the time at which the two basepoint rays
reach separation A) and dbar (the exponentially weighted integral of the
ray separation).  Every value maps a pair invariant of the space's pair
kernel (`Space.prepare`) through its closed form, exact for tree d_A
(`_Rationals`); as the reference paths, a bracketed bisection and adaptive
Simpson evaluate one pair at a time on the space's ray separation.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from .spaces import BoundaryPoint, Point, Ray, Space, _check_kind, _check_types, dist, ray_point

DA = "dA"
DBAR = "dbar"

_SIMPSON_MAX_DEPTH = 50
# pairs per block of a pair kernel: tables are filled, and read back, in
# blocks of at most this many entries, so the table is their only n x n
# array
_PAIR_CHUNK = 8192


class DivergentGromovProductError(ArithmeticError, ValueError):
    """t - f(t)/2 has no finite limit (non-antipodal directions of R^n): a
    value outside the domain of the Gromov product."""


class SeparationNotReachedError(ArithmeticError):
    """The ray separation stays below A up to t = 2^200, so the bisection
    for d_A has nothing to bracket."""


class QuadratureNotConvergedError(ArithmeticError):
    """Adaptive Simpson bisected a subinterval _SIMPSON_MAX_DEPTH times and
    its error estimate still exceeds the subinterval's share of the
    tolerance."""


class _Rationals:
    """Rationals num/den elementwise, den > 0, over object arrays of Python
    ints: an exact tree d_A is 1/(b + A/2), and at A = 0.7 its denominator
    already has 53 bits, so an int64 product would wrap."""

    __slots__ = ("num", "den")

    def __init__(self, num: np.ndarray, den: np.ndarray):
        self.num, self.den = num, den

    def __len__(self) -> int:
        return len(self.num)

    def __getitem__(self, index) -> "_Rationals":
        return _Rationals(self.num[index], self.den[index])

    def __truediv__(self, other: "_Rationals") -> "_Rationals":
        return _Rationals(self.num * other.den, self.den * other.num)

    def tolist(self) -> list:
        """The entries of a one-dimensional array as `Fraction`s."""
        return list(map(Fraction, self.num.tolist(), self.den.tolist()))


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


def pair_invariants(space: Space, points: list, I, J, origin: Point | None = None) -> np.ndarray:
    """The invariant of each pair (points[I[k]], points[J[k]]) seen from
    `origin` (the space's basepoint by default): `pair_kernel` prepared
    once and called once."""
    return pair_kernel(space, points, origin)(np.asarray(I, dtype=np.intp),
                                              np.asarray(J, dtype=np.intp))


def pair_kernel(space: Space, points: list, origin: Point | None = None):
    """The pair invariant of boundary points seen from `origin`, prepared
    once (`_prepare`): a function of index arrays (I, J) giving the branch
    time on T_k, the chord on R^n or the angle between the rays on H^2 of
    each pair (points[I[k]], points[J[k]]), from that pair alone."""
    return _prepare(space, points, origin)[0]


def _prepare(space: Space, points: list, origin: Point | None) -> tuple:
    """`Space.prepare` from `origin` (the space's basepoint by default).
    Raises SpaceMismatchError if `origin` or a point belongs to another
    space (a direction to another R^n), and ValueError on an illegal tree
    word, a tree origin off the vertices or an H^2 origin too far out."""
    origin = space.basepoint if origin is None else origin
    _check_kind(space, origin)
    space.check_origin(origin)
    # each space's `prepare` applies its rules to the whole sample
    _check_types(space, points)
    return space.prepare(points, origin)


@dataclass(frozen=True, eq=False)
class SampleMetric:
    """Distances within a sample of n boundary points, prepared once, with
    the sample's boundary order where the metric has one.

    `dist(I, J)` maps index arrays to the distances of the pairs
    (I[k], J[k]), equal bit for bit to the entries `pair_distance_matrix`
    fills (0 where I[k] == J[k]).  `order` lists the sample indices in
    boundary order; without one, `table` holds the n x n table of the
    distances, which `dist` and `rows` read.  In the order every set
    {j : dist(c, j) < r} is a run of consecutive indices, the nearest point
    outside a run is one of the two just outside it, and the farthest pair
    of a run is its two ends, unless it spans half the circle or more.
    This holds exactly on T_k (by word; the distance is a non-increasing
    function of the integer branch time), and on the circle and H^2 up to
    near-ties: of one ulp on R^2 and at the H^2 pole, and off the pole of
    the kernel's error in the mapped angle 2 arcsin(s'), about
    2 eps / (pi - angle), up to 4e-12 for nearly antipodal pairs.  `turn`
    is None on a line (T_k), and on the circle gives each point's angle in
    [0, 2 pi) as the metric sees it, turning once around along the order."""

    n: int
    dist: Callable
    order: np.ndarray | None = None
    turn: np.ndarray | None = None
    table: np.ndarray | None = None

    @classmethod
    def from_table(cls, D: np.ndarray) -> "SampleMetric":
        """The metric whose distances are the entries of the n x n table D,
        with no boundary order."""
        return cls(len(D), lambda I, J: D[I, J], table=D)

    def rows(self, points) -> np.ndarray:
        """The distances from each of `points` to every sample point, a row
        per point: slices of `table` where there is one, else from `dist`."""
        if self.table is not None:
            return self.table[points]
        points = np.asarray(points, dtype=np.intp)
        return self.dist(np.repeat(points, self.n),
                         np.tile(np.arange(self.n), len(points))).reshape(-1, self.n)


def sample_metric(space: Space, spec: MetricSpec, points: list) -> SampleMetric:
    """The `SampleMetric` of `spec` over `points`, with the kernel and the
    boundary order of `_prepare`: on R^2 and H^2 by angle, on T_k from the
    root by word.  Without an order (R^n for n != 2, T_k from another
    vertex) the verdicts read full rows, each many times over, so the metric
    holds the table that `pair_distance_matrix` fills, filled once."""
    kernel, order = _prepare(space, points, spec.base(space))
    if order is None:
        return SampleMetric.from_table(pair_table(len(points), lambda I, J: _closed_form(
            space, spec, kernel(I, J))))
    order, turn = order()

    def dist(I, J):
        I, J = np.asarray(I, dtype=np.intp), np.asarray(J, dtype=np.intp)
        apart = I != J
        if apart.all():
            return _closed_form(space, spec, kernel(I, J))
        out = np.zeros(len(I))
        out[apart] = _closed_form(space, spec, kernel(I[apart], J[apart]))
        return out
    return SampleMetric(len(points), dist, order, turn)


def _wrapped_gap(a, b) -> np.ndarray:
    """|a - b| wrapped into [0, pi]."""
    d = np.abs(a - b) % (2 * math.pi)
    return np.where(d > math.pi, 2 * math.pi - d, d)


def _closed_form(space: Space, spec: MetricSpec, inv: np.ndarray, exact: bool = False):
    """The metric `spec` at pair invariants `inv`, elementwise
    (`Space.closed_form`; `exact` gives tree d_A as `_Rationals`)."""
    return space.closed_form(spec, inv, exact)


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
    the ray separation f (`Space.separation`) by bracketed bisection; other
    methods raise ValueError."""
    if spec.family != DA:
        raise ValueError("spec.family must be dA")
    if method not in ("auto", "bisect"):
        raise ValueError(f"method must be 'auto' or 'bisect', got {method!r}")
    if xi == eta:
        return space.exact_zero if method != "bisect" else 0.0
    inv = pair_invariants(space, [xi, eta], [0], [1], spec.base(space))
    if method == "bisect":
        return _bisect_dA(space.separation(inv), float(spec.A), spec.tol)
    return _closed_form(space, spec, inv, exact=True).tolist()[0]


# ---------------------------------------------------------------------------
# adaptive Simpson quadrature


def _simpson(f, a, fa, b, fb):
    m = 0.5 * (a + b)
    fm = f(m)
    return m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def adaptive_simpson(f, a: float, b: float, tol: float) -> float:
    """Adaptive Simpson integration of f on [a, b] to absolute tolerance,
    bisecting at most _SIMPSON_MAX_DEPTH times.  Raises
    QuadratureNotConvergedError, naming the subinterval and its unmet
    tolerance, where that depth is reached before the tolerance."""
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, fa=fa, a=a, b=b, fb=fb)
    return _adapt(f, a, fa, b, fb, m, fm, whole, tol, _SIMPSON_MAX_DEPTH)


def _adapt(f, a, fa, b, fb, m, fm, whole, tol, depth):
    lm, flm, left = _simpson(f, a=a, fa=fa, b=m, fb=fm)
    rm, frm, right = _simpson(f, a=m, fa=fm, b=b, fb=fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    if depth <= 0:
        raise QuadratureNotConvergedError(
            f"adaptive Simpson did not converge on [{a!r}, {b!r}] after "
            f"{_SIMPSON_MAX_DEPTH} bisections: error estimate {abs(delta) / 15.0!r} "
            f"> tolerance {tol!r}")
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
    """dbar_{x0}(xi, eta) = integral of f(r) e^-r.  Method 'auto' maps the
    pair invariant through the closed form; 'quadrature' integrates the
    ray separation by `_integrate_separation`; other methods raise
    ValueError."""
    if spec.family != DBAR:
        raise ValueError("spec.family must be dbar")
    if method not in ("auto", "quadrature"):
        raise ValueError(f"method must be 'auto' or 'quadrature', got {method!r}")
    if xi == eta:
        return 0.0
    inv = pair_invariants(space, [xi, eta], [0], [1], spec.base(space))
    if method == "auto":
        return _closed_form(space, spec, inv).item(0)
    return _integrate_separation(space.separation(inv), spec)


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


def gromov_product(space: Space, x0: Point, xi: BoundaryPoint, eta: BoundaryPoint):
    """Limit of t - f(t)/2, in closed form from the pair invariant seen from
    x0 (`Space.gromov`): the exact branch time on trees, -log sin(angle/2)
    on H^2; on R^n only antipodal directions have one, and any other pair
    raises DivergentGromovProductError."""
    if xi == eta:
        return math.inf
    return space.gromov(pair_invariants(space, [xi, eta], [0], [1], x0)).item(0)


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


def pair_distance_matrix(space: Space, spec: MetricSpec, points: list) -> np.ndarray:
    """Symmetric float matrix of pairwise boundary distances, 0 on the
    diagonal: the closed form over the pair invariants from the spec's
    basepoint, filled by `pair_table`."""
    kernel = pair_kernel(space, points, spec.base(space))
    return pair_table(len(points), lambda I, J: _closed_form(space, spec, kernel(I, J)))


def pair_table(n: int, values, diagonal=0) -> np.ndarray:
    """The symmetric n x n table of `values(I, J)` at the pairs i < j and
    their mirrors, with `diagonal` on the diagonal, in the result type of
    the values and `diagonal`.  `values` is called on the upper triangle in
    row-major blocks of at most _PAIR_CHUNK pairs (once, on no pairs, when
    n < 2), so the table is the only n x n array built."""
    D = None
    for I, J in pair_blocks(n, _PAIR_CHUNK):
        v = values(I, J)
        if D is None:
            D = np.full((n, n), diagonal, dtype=np.result_type(v, diagonal))
            flat = D.reshape(-1)
        flat[I * n + J] = flat[J * n + I] = v
    return D


def pair_blocks(n: int, size: int):
    """The pairs i < j of n points in row-major order, that of
    `np.triu_indices(n, 1)`, as index arrays (I, J) of at most `size` pairs
    per block; one empty block when n < 2."""
    rows = np.arange(n)
    start = rows * (2 * n - rows - 1) // 2      # index of pair (i, i + 1)
    total = n * (n - 1) // 2
    for lo in range(0, max(total, 1), size):
        hi = min(lo + size, total)
        # rows a..b hold the block's pairs (none when n < 2)
        a, b = np.searchsorted(start, [lo, hi - 1], side="right") - 1
        I = np.repeat(rows[a:b + 1], np.diff(np.clip(start[a:b + 2], lo, hi)))
        yield I, np.arange(lo, hi) - start[I] + I + 1


def block_lines(n: int) -> int:
    """Rows (or columns) of an n x n table per block read, so that a block
    holds at most _PAIR_CHUNK entries (one line when n exceeds it)."""
    return max(1, _PAIR_CHUNK // max(n, 1))


def with_basepoint(spec: MetricSpec, basepoint: Point) -> MetricSpec:
    return replace(spec, basepoint=basepoint)
