"""Model CAT(0) spaces: Euclidean R^n, the regular tree T_k, and the
hyperbolic plane H^2.

Each space carries a distinguished basepoint, exact or closed-form geodesic
rays, distances, and seeded boundary sampling.  Tree arithmetic is exact
(Fractions, integer edge words); Euclidean and hyperbolic computations are
double precision.
"""

from __future__ import annotations

import math
import zlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

EUCLIDEAN = "euclidean"
TREE = "tree"
HYPERBOLIC = "hyperbolic_plane"


class SpaceMismatchError(ValueError):
    """Points or boundary points fed to a space of the wrong kind."""


class IdenticalBoundaryPointsError(ValueError):
    """Operation undefined for coinciding boundary points (branch time infinite)."""


# ---------------------------------------------------------------------------
# points


@dataclass(frozen=True)
class EuclideanPoint:
    coords: tuple

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True)
class TreePoint:
    """Point of T_k.

    offset == 0: the vertex reached by `word` from the root.
    0 < offset < 1: the point `offset` past vertex word[:-1] along the final
    edge toward vertex `word` (depth = len(word) - 1 + offset).
    """

    word: tuple
    offset: Fraction = Fraction(0)

    def __post_init__(self):
        off = self.offset if isinstance(self.offset, Fraction) else Fraction(self.offset)
        object.__setattr__(self, "offset", off)
        if not (0 <= off < 1):
            raise ValueError("tree point offset must lie in [0,1)")
        if off > 0 and not self.word:
            raise ValueError("interior edge point needs a nonempty word")

    @property
    def depth(self) -> Fraction:
        if self.offset == 0:
            return Fraction(len(self.word))
        return Fraction(len(self.word) - 1) + self.offset

    @property
    def is_vertex(self) -> bool:
        return self.offset == 0


def _wrap_angle(phi) -> float:
    """phi mod 2*pi in [0, 2*pi): a tiny negative angle rounds up to 2*pi
    itself under %, which is the angle 0."""
    w = float(phi) % (2 * math.pi)
    return 0.0 if w == 2 * math.pi else w


@dataclass(frozen=True)
class HyperbolicPoint:
    """Polar coordinates around the pole (basepoint of H^2)."""

    r: float
    phi: float

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("hyperbolic radius must be >= 0")
        object.__setattr__(self, "phi", _wrap_angle(self.phi))
        object.__setattr__(self, "r", float(self.r))


Point = Union[EuclideanPoint, TreePoint, HyperbolicPoint]


# ---------------------------------------------------------------------------
# boundary points


@dataclass(frozen=True)
class EuclideanBoundary:
    """Unit direction vector."""

    direction: tuple

    def __post_init__(self):
        v = tuple(float(c) for c in self.direction)
        n = math.sqrt(sum(c * c for c in v))
        if abs(n - 1.0) > 1e-12:
            raise ValueError("direction must be a unit vector (tol 1e-12)")
        object.__setattr__(self, "direction", v)


def _primitive(period: tuple) -> tuple:
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


@dataclass(frozen=True)
class TreeBoundary:
    """Eventually periodic infinite edge word (preperiod, period).

    Canonicalized at construction: the period is made primitive and trailing
    preperiod letters matching the period tail are absorbed, so syntactic
    equality of the fields decides equality of the infinite words.
    """

    preperiod: tuple
    period: tuple

    def __post_init__(self):
        pre = tuple(int(a) for a in self.preperiod)
        per = _primitive(tuple(int(a) for a in self.period))
        if not per:
            raise ValueError("period must be nonempty")
        while pre and pre[-1] == per[-1]:
            per = per[-1:] + per[:-1]
            pre = pre[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def letter(self, i: int) -> int:
        if i < len(self.preperiod):
            return self.preperiod[i]
        return self.period[(i - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> tuple:
        pre, per = self.preperiod, self.period
        reps = -(-max(n - len(pre), 0) // len(per))
        return (pre + per * reps)[:n]


@dataclass(frozen=True)
class HyperbolicBoundary:
    angle: float

    def __post_init__(self):
        object.__setattr__(self, "angle", _wrap_angle(self.angle))


BoundaryPoint = Union[EuclideanBoundary, TreeBoundary, HyperbolicBoundary]


# ---------------------------------------------------------------------------
# spaces


@dataclass(frozen=True)
class Space:
    kind: str
    dim: int = 0          # euclidean dimension n
    valence: int = 0      # tree valence k
    basepoint: Point = None

    def __post_init__(self):
        if self.kind == EUCLIDEAN:
            if self.dim < 1:
                raise ValueError("euclidean dimension must be >= 1")
            if self.basepoint is None:
                object.__setattr__(self, "basepoint", EuclideanPoint((0.0,) * self.dim))
        elif self.kind == TREE:
            if self.valence < 3:
                raise ValueError("tree valence must be >= 3")
            if self.basepoint is None:
                object.__setattr__(self, "basepoint", TreePoint(()))
            elif not self.basepoint.is_vertex:
                raise ValueError("tree basepoint must be a vertex")
        elif self.kind == HYPERBOLIC:
            if self.basepoint is None:
                object.__setattr__(self, "basepoint", HyperbolicPoint(0.0, 0.0))
        else:
            raise ValueError(f"unknown space kind {self.kind!r}")


def euclidean_space(n: int, basepoint=None) -> Space:
    if basepoint is not None and not isinstance(basepoint, EuclideanPoint):
        basepoint = EuclideanPoint(tuple(float(c) for c in basepoint))
    return Space(EUCLIDEAN, dim=n, basepoint=basepoint)


def tree_space(k: int, basepoint: TreePoint | None = None) -> Space:
    return Space(TREE, valence=k, basepoint=basepoint)


def hyperbolic_plane(basepoint: HyperbolicPoint | None = None) -> Space:
    return Space(HYPERBOLIC, basepoint=basepoint)


def _check_kind(space: Space, *objs):
    table = {
        EUCLIDEAN: (EuclideanPoint, EuclideanBoundary),
        TREE: (TreePoint, TreeBoundary),
        HYPERBOLIC: (HyperbolicPoint, HyperbolicBoundary),
    }
    ok = table[space.kind]
    for o in objs:
        if not isinstance(o, ok):
            raise SpaceMismatchError(f"{type(o).__name__} does not belong to {space.kind}")


def validate_boundary(space: Space, bp: BoundaryPoint) -> None:
    """Check the per-space boundary representation invariants."""
    _check_kind(space, bp)
    if space.kind == TREE:
        k = space.valence
        n = len(bp.preperiod) + 2 * len(bp.period)
        for i in range(n):
            a = bp.letter(i)
            if i == 0:
                if not 0 <= a <= k - 1:
                    raise ValueError("first letter must be in 0..k-1")
            elif not 0 <= a <= k - 2:
                raise ValueError("non-initial letters must be in 0..k-2")


# ---------------------------------------------------------------------------
# distances


def _tree_meet_depth(p: TreePoint, q: TreePoint) -> Fraction:
    wp, wq = p.word, q.word
    j = 0
    m = min(len(wp), len(wq))
    while j < m and wp[j] == wq[j]:
        j += 1
    if j < len(wp) and j < len(wq):
        return Fraction(j)
    return min(p.depth, q.depth)


def _hyp_cosh_dist_minus_1(r1, phi1, r2, phi2):
    # cosh d - 1 written without cancellation for nearby points
    dphi = phi1 - phi2
    return 2 * math.sinh((r1 - r2) / 2) ** 2 + 2 * math.sinh(r1) * math.sinh(r2) * math.sin(dphi / 2) ** 2


def _acosh1p(x: float) -> float:
    # arccosh(1 + x) for x >= 0, stable near 0
    return math.log1p(x + math.sqrt(x * (x + 2)))


def dist(space: Space, p: Point, q: Point):
    """Distance between two points of the space (exact Fraction on trees)."""
    _check_kind(space, p, q)
    if space.kind == EUCLIDEAN:
        return math.sqrt(sum((a - b) ** 2 for a, b in zip(p.coords, q.coords)))
    if space.kind == TREE:
        return p.depth + q.depth - 2 * _tree_meet_depth(p, q)
    return _acosh1p(_hyp_cosh_dist_minus_1(p.r, p.phi, q.r, q.phi))


# ---------------------------------------------------------------------------
# boundary word helpers


def _comparison_bound(x: TreeBoundary, y: TreeBoundary) -> int:
    return max(len(x.preperiod), len(y.preperiod)) + math.lcm(len(x.period), len(y.period))


def branch_time(space: Space, x: TreeBoundary, y: TreeBoundary) -> Fraction:
    """Longest common prefix length of two boundary words of T_k (exact).

    Raises IdenticalBoundaryPointsError if x == y (branch time infinite).
    """
    if space.kind != TREE:
        raise SpaceMismatchError("branch_time is defined on trees only")
    _check_kind(space, x, y)
    if x == y:
        raise IdenticalBoundaryPointsError("identical boundary points - branch time infinite")
    n = _comparison_bound(x, y)
    for i in range(n):
        if x.letter(i) != y.letter(i):
            return Fraction(i)
    # canonical equality check above makes this unreachable
    raise IdenticalBoundaryPointsError("words agree beyond the periodicity bound")


# ---------------------------------------------------------------------------
# rays


def _disk_from_polar(r: float, phi: float) -> complex:
    return math.tanh(r / 2) * complex(math.cos(phi), math.sin(phi))


def _polar_from_disk(w: complex) -> HyperbolicPoint:
    rho = abs(w)
    if rho >= 1.0:
        rho = math.nextafter(1.0, 0.0)
    r = 2 * math.atanh(rho)
    phi = math.atan2(w.imag, w.real) if rho > 0 else 0.0
    return HyperbolicPoint(r, phi)


def _mobius_to_zero(z0: complex, w: complex) -> complex:
    return (w - z0) / (1 - z0.conjugate() * w)


def _mobius_from_zero(z0: complex, u: complex) -> complex:
    return (u + z0) / (1 + z0.conjugate() * u)


@dataclass(frozen=True)
class Ray:
    """Unit-speed geodesic ray from `origin` asymptotic to `target`."""

    space: Space
    origin: Point
    target: BoundaryPoint

    def __post_init__(self):
        _check_kind(self.space, self.origin)
        _check_kind(self.space, self.target)
        if self.space.kind == TREE and not self.origin.is_vertex:
            raise ValueError("tree rays are only supported from vertex origins")


def ray_point(ray: Ray, t) -> Point:
    """Point at parameter t >= 0 along the ray."""
    if t < 0:
        raise ValueError("ray parameter must be nonnegative")
    space, origin, target = ray.space, ray.origin, ray.target
    if space.kind == EUCLIDEAN:
        return EuclideanPoint(tuple(c + float(t) * d for c, d in zip(origin.coords, target.direction)))
    if space.kind == TREE:
        return _tree_ray_point(origin, target, t if isinstance(t, Fraction) else Fraction(t))
    # hyperbolic
    if origin.r == 0.0:
        return HyperbolicPoint(float(t), target.angle)
    z0 = _disk_from_polar(origin.r, origin.phi)
    zeta = complex(math.cos(target.angle), math.sin(target.angle))
    zp = _mobius_to_zero(z0, zeta)
    zp /= abs(zp)
    u = math.tanh(float(t) / 2) * zp
    return _polar_from_disk(_mobius_from_zero(z0, u))


def _tree_point_at_depth(letters, d: Fraction) -> TreePoint:
    """Point at depth d on the root-path spelled by `letters` (indexable)."""
    if d == int(d):
        return TreePoint(tuple(letters(i) for i in range(int(d))))
    n = math.floor(d)
    return TreePoint(tuple(letters(i) for i in range(n + 1)), d - n)


def _tree_ray_point(origin: TreePoint, target: TreeBoundary, t: Fraction) -> TreePoint:
    v = origin.word
    j = 0
    while j < len(v) and v[j] == target.letter(j):
        j += 1
    up = len(v) - j
    if t <= up:
        d = len(v) - t
        return _tree_point_at_depth(lambda i: v[i], d)
    d = j + (t - up)
    return _tree_point_at_depth(target.letter, d)


# ---------------------------------------------------------------------------
# geodesics between points and the sphere projection


def point_on_geodesic(space: Space, p: Point, q: Point, t):
    """Point at distance min(t, d(p,q)) along the geodesic from p to q."""
    _check_kind(space, p, q)
    d = dist(space, p, q)
    if t >= d:
        return q
    if t <= 0:
        return p
    if space.kind == EUCLIDEAN:
        lam = float(t) / d
        return EuclideanPoint(tuple(a + lam * (b - a) for a, b in zip(p.coords, q.coords)))
    if space.kind == TREE:
        tf = t if isinstance(t, Fraction) else Fraction(t)
        m = _tree_meet_depth(p, q)
        down_p = p.depth - m
        if tf <= down_p:
            d0 = p.depth - tf
            return _tree_point_at_depth(lambda i: p.word[i], d0)
        d0 = m + (tf - down_p)
        return _tree_point_at_depth(lambda i: q.word[i], d0)
    z0 = _disk_from_polar(p.r, p.phi)
    z1 = _disk_from_polar(q.r, q.phi)
    u1 = _mobius_to_zero(z0, z1)
    u = math.tanh(float(t) / 2) * (u1 / abs(u1))
    return _polar_from_disk(_mobius_from_zero(z0, u))


def project_to_sphere(space: Space, x0: Point, z, r):
    """Natural projection of a point or boundary point onto the closed ball
    of radius r about x0: the point at distance min(r, d(x0,z)) toward z."""
    if r <= 0:
        raise ValueError("projection radius must be positive")
    if isinstance(z, (EuclideanBoundary, TreeBoundary, HyperbolicBoundary)):
        return ray_point(Ray(space, x0, z), r)
    return point_on_geodesic(space, x0, z, r)


# ---------------------------------------------------------------------------
# seeded boundary sampling


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent deterministic RNG substream named within a run seed."""
    return np.random.default_rng([int(seed) & 0xFFFFFFFF, zlib.crc32(name.encode())])


def sample_boundary(space: Space, n: int, seed: int) -> list:
    """n pairwise-distinct boundary points, deterministic in (space, n, seed)."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if space.kind == EUCLIDEAN and space.dim == 1 and n > 2:
        raise ValueError(f"R^1 has only 2 boundary points, cannot sample {n}")
    rng = substream(seed, f"boundary-{space.kind}")
    if space.kind == EUCLIDEAN:
        out = []
        seen = set()
        while len(out) < n:
            v = rng.normal(size=space.dim)
            nv = float(np.linalg.norm(v))
            if nv == 0.0:
                continue
            v = v / nv
            v = v / float(np.linalg.norm(v))
            bp = EuclideanBoundary(tuple(float(c) for c in v))
            if bp not in seen:
                seen.add(bp)
                out.append(bp)
        return out
    if space.kind == HYPERBOLIC:
        out = []
        seen = set()
        while len(out) < n:
            bp = HyperbolicBoundary(float(rng.uniform(0, 2 * math.pi)))
            if bp not in seen:
                seen.add(bp)
                out.append(bp)
        return out
    return _sample_tree_boundary(space.valence, n, rng)


def _sample_tree_boundary(k: int, n: int, rng: np.random.Generator) -> list:
    out = []
    seen = set()
    while len(out) < n:
        pre_len = int(rng.geometric(0.4)) - 1
        per_len = int(rng.integers(1, 5))
        letters = []
        for i in range(pre_len + per_len):
            hi = k if i == 0 and pre_len > 0 else k - 1
            letters.append(int(rng.integers(0, hi)))
        pre = tuple(letters[:pre_len])
        per = tuple(letters[pre_len:])
        try:
            bp = TreeBoundary(pre, per)
        except ValueError:
            continue
        if bp in seen:
            continue
        seen.add(bp)
        out.append(bp)
    return out


# ---------------------------------------------------------------------------
# serialization (line-oriented boundary records)


def space_id(space: Space) -> str:
    if space.kind == EUCLIDEAN:
        return f"euclidean{space.dim}"
    if space.kind == TREE:
        return f"tree{space.valence}"
    return "hyperbolic_plane"


def _point_to_str(space: Space, p: Point) -> str:
    if space.kind == EUCLIDEAN:
        return ",".join(f"{c:.17g}" for c in p.coords)
    if space.kind == TREE:
        w = ".".join(str(a) for a in p.word)
        return f"{w}@{p.offset}"
    return f"{p.r:.17g},{p.phi:.17g}"


def boundary_to_line(space: Space, bp: BoundaryPoint) -> str:
    sid = space_id(space)
    if space.kind == EUCLIDEAN:
        return f"{sid} dir=" + ",".join(f"{c:.17g}" for c in bp.direction)
    if space.kind == TREE:
        pre = ".".join(str(a) for a in bp.preperiod)
        per = ".".join(str(a) for a in bp.period)
        return f"{sid} pre={pre} per={per}"
    return f"{sid} phi={bp.angle:.17g}"


def boundary_from_line(space: Space, line: str) -> BoundaryPoint:
    parts = line.split()
    fields = dict(p.split("=", 1) for p in parts[1:])
    if space.kind == EUCLIDEAN:
        return EuclideanBoundary(tuple(float(c) for c in fields["dir"].split(",")))
    if space.kind == TREE:
        pre = tuple(int(a) for a in fields["pre"].split(".")) if fields["pre"] else ()
        per = tuple(int(a) for a in fields["per"].split("."))
        bp = TreeBoundary(pre, per)
        validate_boundary(space, bp)
        return bp
    return HyperbolicBoundary(float(fields["phi"]))
