"""Model CAT(0) spaces: Euclidean R^n, the regular tree T_k, and the
hyperbolic plane H^2.

Each space carries a distinguished basepoint, exact or closed-form geodesic
rays and segments (one walk, `ray_point`), distances, and seeded boundary
sampling.  Tree arithmetic is exact (Fractions, integer edge words);
Euclidean and hyperbolic computations are double precision.

The tree sampler applies numpy's `Generator.geometric` and `integers` rules
to raw PCG64 words itself, so its samples depend only on the bit stream.
"""

from __future__ import annotations

import itertools
import math
import zlib
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

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


Point = EuclideanPoint | TreePoint | HyperbolicPoint


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


BoundaryPoint = EuclideanBoundary | TreeBoundary | HyperbolicBoundary


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


def _tree_meet(p: TreePoint, z) -> Fraction:
    """Depth at which the root paths to p and to z, a point or a boundary
    point of T_k, part."""
    wp = p.word
    wz, depth_z = (z.prefix(len(wp)), math.inf) if isinstance(z, TreeBoundary) else (z.word, z.depth)
    j = 0
    m = min(len(wp), len(wz))
    while j < m and wp[j] == wz[j]:
        j += 1
    if j < len(wp) and j < len(wz):
        return Fraction(j)
    return min(p.depth, depth_z)


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
        # d * d summed left to right from 0, as the numpy kernels square and
        # sum (`sum` of floats compensates from Python 3.12 on)
        sq = 0.0
        for a, b in zip(p.coords, q.coords):
            sq += (a - b) * (a - b)
        return math.sqrt(sq)
    if space.kind == TREE:
        return p.depth + q.depth - 2 * _tree_meet(p, q)
    return _acosh1p(_hyp_cosh_dist_minus_1(p.r, p.phi, q.r, q.phi))


# ---------------------------------------------------------------------------
# boundary word helpers


def _comparison_bound(x: TreeBoundary, y: TreeBoundary) -> int:
    return max(len(x.preperiod), len(y.preperiod)) + math.lcm(len(x.period), len(y.period))


def branch_time(space: Space, x: TreeBoundary, y: TreeBoundary) -> Fraction:
    """Longest common prefix length of two boundary words of T_k (exact).

    Raises ValueError if a word uses an illegal letter and
    IdenticalBoundaryPointsError if x == y (branch time infinite).
    """
    if space.kind != TREE:
        raise SpaceMismatchError("branch_time is defined on trees only")
    validate_boundary(space, x)
    validate_boundary(space, y)
    if x == y:
        raise IdenticalBoundaryPointsError("identical boundary points - branch time infinite")
    n = _comparison_bound(x, y)
    for i in range(n):
        if x.letter(i) != y.letter(i):
            return Fraction(i)
    # canonical equality check above makes this unreachable
    raise IdenticalBoundaryPointsError("words agree beyond the periodicity bound")


# ---------------------------------------------------------------------------
# rays and segments


def _disk_from_polar(r: float, phi: float) -> complex:
    return math.tanh(r / 2) * complex(math.cos(phi), math.sin(phi))


def _polar_from_disk(w: complex) -> HyperbolicPoint:
    rho = abs(w)
    if rho >= 1.0:
        rho = math.nextafter(1.0, 0.0)
    r = 2 * math.atanh(rho)
    phi = math.atan2(w.imag, w.real) if rho > 0 else 0.0
    return HyperbolicPoint(r, phi)


@dataclass(frozen=True)
class Ray:
    """Unit-speed geodesic from `origin` toward `target`: a ray when the
    target is a boundary point, a segment ending there when it is a point."""

    space: Space
    origin: Point
    target: Point | BoundaryPoint

    def __post_init__(self):
        _check_kind(self.space, self.origin)
        _check_kind(self.space, self.target)
        if self.space.kind == TREE and not self.origin.is_vertex:
            raise ValueError("tree rays are only supported from vertex origins")


def _tree_point_at_depth(word: tuple, d: Fraction) -> TreePoint:
    """Point at depth d on the root path spelled by `word` (len >= ceil(d))."""
    n = math.ceil(d)
    return TreePoint(tuple(word[:n]), d - n + 1 if d < n else Fraction(0))


def ray_point(ray: Ray, t) -> Point:
    """Point at parameter t >= 0 along the ray or the segment; a segment
    stays at its target once t >= d(origin, target)."""
    if t < 0:
        raise ValueError("ray parameter must be nonnegative")
    space, p, z = ray.space, ray.origin, ray.target
    to_boundary = isinstance(z, BoundaryPoint)
    if not to_boundary:
        d = dist(space, p, z)
        if t >= d:
            return z
        if t == 0:  # p itself, not its round trip through the disk of H^2
            return p
    if space.kind == EUCLIDEAN:
        # p + s v: (t, direction) on a ray, (t/d, q - p) on a segment
        if to_boundary:
            s, v = float(t), z.direction
        else:
            s, v = float(t) / d, [b - a for a, b in zip(p.coords, z.coords)]
        return EuclideanPoint(tuple(a + s * c for a, c in zip(p.coords, v)))
    if space.kind == TREE:
        # back up p's word to the meet, then down the target's
        t = t if isinstance(t, Fraction) else Fraction(t)
        m = _tree_meet(p, z)
        up = p.depth - m
        if t <= up:
            return _tree_point_at_depth(p.word, p.depth - t)
        d = m + (t - up)
        return _tree_point_at_depth(z.prefix(math.ceil(d)) if to_boundary else z.word, d)
    if to_boundary and p.r == 0.0:
        return HyperbolicPoint(float(t), z.angle)
    # the Moebius map w -> (w - z0)/(1 - conj(z0) w) takes p to 0: walk
    # toward the image of the target there, and map back
    z0 = _disk_from_polar(p.r, p.phi)
    w = complex(math.cos(z.angle), math.sin(z.angle)) if to_boundary else _disk_from_polar(z.r, z.phi)
    u = (w - z0) / (1 - z0.conjugate() * w)
    u = math.tanh(float(t) / 2) * (u / abs(u))
    return _polar_from_disk((u + z0) / (1 + z0.conjugate() * u))


# ---------------------------------------------------------------------------
# seeded boundary sampling


def substream(seed: int, name: str) -> np.random.Generator:
    """Independent deterministic RNG substream named within a run seed, a
    nonnegative int (below 2^32 its entropy is [seed, crc32(name)])."""
    return np.random.default_rng([int(seed), zlib.crc32(name.encode())])


def distinct_rows(n_points: int, count: int, width: int, rng) -> np.ndarray:
    """(count, width) int64 rows of pairwise distinct indices below
    n_points: each `rng.integers` block keeps its valid rows in order, cut
    at the count still needed, so a row is what one `size=width` call draws."""
    if count > 0 and n_points < width:
        raise ValueError(f"cannot draw {width} distinct indices from {n_points} points")
    blocks, have = [np.zeros((0, width), dtype=np.int64)], 0
    while have < count:
        need = count - have
        raw = rng.integers(0, n_points, size=(need + need // 2 + 4, width))
        blocks.append(raw[(np.diff(np.sort(raw), axis=1) != 0).all(axis=1)][:need])
        have += len(blocks[-1])
    return np.concatenate(blocks)


_BLOCK = 1024  # raw words or values read from the generator per call


def _euclidean_draws(space: Space, rng: np.random.Generator):
    """Endless normalized Gaussian directions, as tuples; rows of one
    `rng.normal` block equal per-row calls, and a zero row is skipped."""
    while True:
        for v in rng.normal(size=(_BLOCK // space.dim + 1, space.dim)):
            nv = float(np.linalg.norm(v))
            if nv != 0.0:
                v = v / nv
                yield tuple((v / float(np.linalg.norm(v))).tolist())


def _hyperbolic_draws(space: Space, rng: np.random.Generator):
    """Endless uniform angles in [0, 2 pi)."""
    while True:
        yield from rng.uniform(0, 2 * math.pi, size=_BLOCK).tolist()


def _halves(words):
    """The 32-bit draws of a PCG64 stream: the low half of a fresh word,
    then its high half; a whole-word draw in between leaves it buffered."""
    for w in words:
        yield w & 0xFFFFFFFF
        yield w >> 32


def _letters(e: int, halves, words):
    """Endless `Generator.integers(0, e)` draws by Lemire's multiply-shift:
    m = u e of a 32-bit draw u for e <= 2^32 (of a whole word above), with
    u skipped while m mod 2^b < 2^b mod e, gives m >> b."""
    draws, b = (halves, 32) if e <= 1 << 32 else (words, 64)
    mask, floor = (1 << b) - 1, (1 << b) % e
    for u in draws:
        m = u * e
        if m & mask >= floor:
            yield m >> b


def _tree_draws(space: Space, rng: np.random.Generator):
    """Endless raw tree draws (preperiod length, letters): the values of
    per-draw calls `rng.geometric(0.4) - 1`, `rng.integers(1, 5)` and one
    `rng.integers(0, e)` per letter (e = k for a first preperiod letter,
    k - 1 otherwise), read off rng's raw PCG64 words.  The geometric draw
    counts the thresholds p, p + pq, ... (summed in numpy's order, up to
    1.0) below U = (w >> 11) 2^-53 of a whole word w; the period length is
    1 + (u >> 30) for a 32-bit draw u."""
    raw = rng.bit_generator.random_raw
    words = itertools.chain.from_iterable(iter(lambda: raw(_BLOCK).tolist(), None))
    halves = _halves(words)
    p = total = 0.4
    thresholds = [total]
    while total < 1.0:
        p *= 0.6
        total += p
        thresholds.append(total)
    first, rest = _letters(space.valence, halves, words), _letters(space.valence - 1, halves, words)
    while True:
        pre_len = bisect_left(thresholds, (next(words) >> 11) * 2.0 ** -53)
        more = pre_len + (next(halves) >> 30)
        letters = [next(first if pre_len else rest)]
        letters += itertools.islice(rest, more)
        yield pre_len, tuple(letters)


_DRAWS = {EUCLIDEAN: _euclidean_draws, TREE: _tree_draws, HYPERBOLIC: _hyperbolic_draws}


def _boundary_from_draw(space: Space, raw) -> BoundaryPoint:
    """The boundary point of a raw draw, canonicalized."""
    if space.kind == EUCLIDEAN:
        return EuclideanBoundary(raw)
    if space.kind == HYPERBOLIC:
        return HyperbolicBoundary(raw)
    pre_len, letters = raw
    return TreeBoundary(letters[:pre_len], letters[pre_len:])


def sample_boundary(space: Space, n: int, seed: int) -> list:
    """n pairwise-distinct boundary points, deterministic in (space, n, seed).
    A raw draw seen before is skipped unbuilt, since its point is already
    in the sample; on T_4, 57% of the draws behind 1000 points repeat one."""
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if space.kind == EUCLIDEAN and space.dim == 1 and n > 2:
        raise ValueError(f"R^1 has only 2 boundary points, cannot sample {n}")
    out = []
    drawn, seen = set(), set()
    for raw in _DRAWS[space.kind](space, substream(seed, f"boundary-{space.kind}")):
        if raw in drawn:
            continue
        drawn.add(raw)
        bp = _boundary_from_draw(space, raw)
        if bp not in seen:
            seen.add(bp)
            out.append(bp)
            if len(out) == n:
                return out


# ---------------------------------------------------------------------------
# serialization (line-oriented boundary records, written only)


def space_id(space: Space) -> str:
    if space.kind == EUCLIDEAN:
        return f"euclidean{space.dim}"
    if space.kind == TREE:
        return f"tree{space.valence}"
    return "hyperbolic_plane"


def boundary_to_line(space: Space, bp: BoundaryPoint) -> str:
    sid = space_id(space)
    if space.kind == EUCLIDEAN:
        return f"{sid} dir=" + ",".join(f"{c:.17g}" for c in bp.direction)
    if space.kind == TREE:
        pre = ".".join(str(a) for a in bp.preperiod)
        per = ".".join(str(a) for a in bp.period)
        return f"{sid} pre={pre} per={per}"
    return f"{sid} phi={bp.angle:.17g}"

