"""Model CAT(0) spaces: Euclidean R^n, the regular tree T_k, and the
hyperbolic plane H^2.

Each space carries a distinguished basepoint, exact or closed-form geodesic
rays and segments (one walk, `ray_point`), distances, and seeded boundary
sampling.  Tree arithmetic is exact (Fractions, integer edge words);
Euclidean and hyperbolic computations are double precision.

The tree sampler applies numpy's `Generator.geometric` and `integers` rules
to raw PCG64 words itself, decoding a block of words at a time, so its
samples depend only on the bit stream.  A tree draw is canonicalized
straight to its (preperiod, period) tuples, which key the sample's
duplicate check.
"""

from __future__ import annotations

import math
import zlib
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
    for d in range(1, n):
        if n % d == 0 and period == period[:d] * (n // d):
            return period[:d]
    return period


def _canonical_word(pre: tuple, per: tuple) -> tuple:
    """(preperiod, period) of the infinite word pre per per ... with the
    period primitive and no trailing preperiod letter that the period's
    tail repeats."""
    per = _primitive(per)
    if not per:
        raise ValueError("period must be nonempty")
    while pre and pre[-1] == per[-1]:
        per = per[-1:] + per[:-1]
        pre = pre[:-1]
    return pre, per


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
        pre, per = _canonical_word(tuple(int(a) for a in self.preperiod),
                                   tuple(int(a) for a in self.period))
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    @classmethod
    def _of_canonical(cls, word: tuple) -> "TreeBoundary":
        """The point of a `_canonical_word` pair of int tuples, as is."""
        self = object.__new__(cls)
        object.__setattr__(self, "preperiod", word[0])
        object.__setattr__(self, "period", word[1])
        return self

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


def _geometric_sums() -> np.ndarray:
    """p, p + pq, ... for p = 0.4, summed in numpy's order up to 1.0: a
    geometric(p) draw of U = (w >> 11) 2^-53 of a whole word w counts the
    sums below U."""
    p = total = 0.4
    sums = [total]
    while total < 1.0:
        p *= 0.6
        total += p
        sums.append(total)
    return np.array(sums)


_GEOMETRIC_SUMS = _geometric_sums()


def _lemire(words: np.ndarray, halves: np.ndarray, e: int) -> tuple:
    """`Generator.integers(0, e)` at each draw unit of a decoded window by
    Lemire's multiply-shift: a unit u of b bits (b = 32 for e <= 2^32, the
    halves; 64 above, the whole words) gives m = u e, is skipped while
    m mod 2^b < 2^b mod e, and else draws m >> b.  Returns (wide, acc, pos,
    let): acc[j] counts the accepted units before unit j, pos lists the
    accepted units and let their letters."""
    wide = e > 1 << 32
    if not wide:
        m = halves * np.uint64(e)
        ok, let = (m & 0xFFFFFFFF) >= (1 << 32) % e, m >> 32
    else:  # a 128-bit product, in Python ints
        m = [w * e for w in words.tolist()]
        floor = (1 << 64) % e
        ok = np.array([x & 0xFFFFFFFFFFFFFFFF >= floor for x in m], dtype=bool)
        let = np.array([x >> 64 for x in m], dtype=object)
    if ok.all():
        return wide, range(len(ok) + 1), range(len(ok)), let.tolist()
    pos = np.flatnonzero(ok)
    return wide, [0] + np.cumsum(ok).tolist(), pos.tolist(), let[pos].tolist()


def _draw(alphabet: tuple, i: int, hh: int) -> tuple:
    """One draw of a `_lemire` alphabet at the cursor (i, hh) of its window,
    and the cursor after it: i is the next fresh word and hh the unit of
    the held high half (-1 for none).  A half draw takes the held half,
    else the low half of word i and holds its high half; a whole-word draw
    takes word i and leaves a held half held.  Raises IndexError past the
    window."""
    wide, acc, _, let = alphabet
    while True:
        if wide:
            j, i = i, i + 1
        elif hh >= 0:
            j, hh = hh, -1
        else:
            j, i, hh = 2 * i, i + 1, 2 * i + 1
        if acc[j + 1] > acc[j]:
            return let[acc[j]], i, hh


def _tree_draws(space: Space, rng: np.random.Generator):
    """Endless raw tree draws (preperiod length, letters): the values of
    per-draw calls `rng.geometric(0.4) - 1`, `rng.integers(1, 5)` and one
    `rng.integers(0, e)` per letter (e = k for a first preperiod letter,
    k - 1 otherwise), read off rng's raw PCG64 words.  Each window of words
    is decoded once, for the geometric sums and for each alphabet (the
    period length is 1 + `integers(0, 4)`, which accepts every half); the
    draws then move a cursor (i, hh) over it, as `_draw` describes.  With
    k <= 2^32 every letter draw takes a half, so a draw's letters are one
    run of accepted halves, sliced; above, the letters are drawn one at a
    time.  A draw that runs past the window is read again from a new one,
    which keeps the words from its cursor on."""
    raw = rng.bit_generator.random_raw
    k = space.valence
    words, i, hh = np.zeros(0, dtype=np.uint64), 0, -1
    while True:
        cut = i if hh < 0 else hh // 2
        words = np.concatenate([words[cut:], raw(_BLOCK)])
        i, hh = i - cut, (hh - 2 * cut if hh >= 0 else -1)
        halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()
        pre = np.searchsorted(_GEOMETRIC_SUMS, (words >> 11) * 2.0 ** -53).tolist()
        per = (halves >> 30).tolist()
        first, rest = (_lemire(words, halves, e) for e in (k, k - 1))
        (wide, f_acc, f_pos, f_let), (_, r_acc, r_pos, r_let) = first, rest
        try:
            while True:
                at = i, hh
                pre_len = pre[i]
                # the period draw takes the held half, else word i + 1's low
                # half; the letters' halves follow it without a gap
                u, s = (per[hh], 2 * i + 2) if hh >= 0 else (per[2 * i + 2], 2 * i + 3)
                if wide:
                    i, hh = (s + 1) // 2, (s if s % 2 else -1)
                    letters = []
                    for alphabet in [first if pre_len else rest] + [rest] * (pre_len + u):
                        letter, i, hh = _draw(alphabet, i, hh)
                        letters.append(letter)
                    yield pre_len, tuple(letters)
                    continue
                head = []  # with no preperiod, the first letter is one of k - 1 too
                if pre_len:
                    n = f_acc[s]
                    head, s = [f_let[n]], f_pos[n] + 1
                c = pre_len + u + (not pre_len)
                n = r_acc[s]
                s = r_pos[n + c - 1] + 1
                i, hh = (s + 1) // 2, (s if s % 2 else -1)
                yield pre_len, tuple(head + r_let[n:n + c])
        except IndexError:
            i, hh = at


_DRAWS = {EUCLIDEAN: _euclidean_draws, TREE: _tree_draws, HYPERBOLIC: _hyperbolic_draws}


def sample_boundary(space: Space, n: int, seed: int) -> list:
    """n pairwise-distinct boundary points, deterministic in (space, n, seed).
    Draws are keyed by their point's fields (a tree draw canonicalized by
    `_canonical_word`; a uniform angle in [0, 2 pi) is already wrapped), and
    a point is built only for a key not seen before; on T_4, 57% of the
    draws behind 1000 points repeat one."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"sample size must be an int, got {n!r}")
    if n < 1:
        raise ValueError("sample size must be >= 1")
    if space.kind == EUCLIDEAN and space.dim == 1 and n > 2:
        raise ValueError(f"R^1 has only 2 boundary points, cannot sample {n}")
    draws = _DRAWS[space.kind](space, substream(seed, f"boundary-{space.kind}"))
    if space.kind == TREE:
        draws = _tree_keys(draws)
    build = {EUCLIDEAN: EuclideanBoundary, TREE: TreeBoundary._of_canonical,
             HYPERBOLIC: HyperbolicBoundary}[space.kind]
    out, seen = [], set()
    for key in draws:
        if key not in seen:
            seen.add(key)
            out.append(build(key))
            if len(out) == n:
                return out


def _tree_keys(draws):
    """The canonical words of raw tree draws, a raw draw seen before skipped
    uncanonicalized: its word is already among the keys."""
    drawn = set()
    for raw in draws:
        if raw not in drawn:
            drawn.add(raw)
            pre_len, letters = raw
            yield _canonical_word(letters[:pre_len], letters[pre_len:])


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

