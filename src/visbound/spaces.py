"""Model CAT(0) spaces: Euclidean R^n, the regular tree T_k, and the
hyperbolic plane H^2.

This module holds what the three share: their point and boundary point
types, the `Space` record with its basepoint, and the generic entries
`dist`, `ray_point` (one walk along rays and segments), `sample_boundary`
and `space_id`, each of which reads its space's kernels from the space
itself (`Space` lists them).  Tree arithmetic is exact (Fractions, integer edge
words); Euclidean and hyperbolic computations are double precision.

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
# points and boundary points


@dataclass(frozen=True)
class EuclideanPoint:
    coords: tuple

    def __post_init__(self):
        if not all(map(math.isfinite, self.coords)):
            raise ValueError(f"coordinates must be finite, got {self.coords!r}")


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
    itself under %, which is the angle 0; a non-finite angle raises ValueError."""
    w = float(phi) % (2 * math.pi)
    if math.isnan(w):
        raise ValueError(f"angle must be finite, got {phi!r}")
    return 0.0 if w == 2 * math.pi else w


@dataclass(frozen=True)
class HyperbolicPoint:
    """Polar coordinates around the pole (basepoint of H^2)."""

    r: float
    phi: float

    def __post_init__(self):
        if not 0 <= self.r < math.inf:
            raise ValueError(f"hyperbolic radius must be finite and >= 0, got {self.r!r}")
        object.__setattr__(self, "phi", _wrap_angle(self.phi))
        object.__setattr__(self, "r", float(self.r))


Point = EuclideanPoint | TreePoint | HyperbolicPoint


@dataclass(frozen=True)
class EuclideanBoundary:
    """Unit direction vector."""

    direction: tuple

    def __post_init__(self):
        v = tuple(float(c) for c in self.direction)
        n = math.sqrt(sum(c * c for c in v))
        if not abs(n - 1.0) <= 1e-12:
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

# kind -> the class of that model space, which holds its kernels (in
# `visbound.euclidean`, `.tree` and `.hyperbolic`; each enters its class here
# when the package imports it)
MODELS = {}


@dataclass(frozen=True)
class Space:
    """A model space with its basepoint.  `Space(kind, ...)` builds the
    class of its kind in MODELS, which holds the space's kernels; the
    generic code reads them from the space itself:

    - parameter: `space_id` is the kind, then the field `parameter` if any;
    - point, boundary, check(o), check_origin(p): the types of its points
      and boundary points, and the rules that they, and an origin of rays,
      keep beyond their type; default_basepoint() checks the parameter;
    - dist(p, q), walk(p, z, t, d): distances, and the point at t from p
      toward z along a ray (d None) or a segment of length d > t;
    - boundary_size(), keys(rng), of_key(key), boundary_text(bp): sampling
      (endless keys of draws, each key's boundary point) and writing;
    - prepare(points, origin): (kernel, order), the kernel mapping index
      arrays (I, J) to the invariants of the pairs (points[I[k]],
      points[J[k]]) seen from `origin`, and order None or a function that
      gives the boundary order and the turn (`metrics.SampleMetric`);
    - closed_form(spec, inv, exact), exact_zero, gromov(inv),
      separation(inv), visual_values(spec, la, inv): what the pair
      invariants give (`metrics`, `visual`);
    - check_orbit(), incidences, centers_near, orbit_order, pushout_points,
      center_parts: the orbit ball system and its pushout
      (`covers.LatticeBallSystem`), and colored_cover(lam, sample).

    A space without an orbit or a colored cover raises ValueError from
    `check_orbit` or `colored_cover`."""

    kind: str
    dim: int = 0          # euclidean dimension n
    valence: int = 0      # tree valence k
    basepoint: Point = None
    parameter = None
    exact_zero = 0.0

    def __new__(cls, kind: str = None, *args, **kwargs):
        if cls is Space:
            if kind not in MODELS:
                raise ValueError(f"unknown space kind {kind!r}")
            cls = MODELS[kind]
        return object.__new__(cls)

    def __post_init__(self):
        default = self.default_basepoint()
        if self.basepoint is None:
            object.__setattr__(self, "basepoint", default)
        _check_kind(self, self.basepoint)
        self.check_origin(self.basepoint)

    def check(self, o) -> None:
        pass

    def check_origin(self, p) -> None:
        pass

    def boundary_size(self) -> float:
        return math.inf

    def visual_values(self, spec, la: float, inv: np.ndarray) -> np.ndarray:
        return self.closed_form(spec, inv) * np.exp(self.gromov(inv) * la)

    def check_orbit(self) -> None:
        raise ValueError(f"no lattice orbit is provided on {space_id(self)}")

    def colored_cover(self, lam, boundary_sample: list):
        raise ValueError("colored boundary covers are built on trees and the circle only")


def euclidean_space(n: int, basepoint=None) -> Space:
    if basepoint is not None and not isinstance(basepoint, EuclideanPoint):
        basepoint = EuclideanPoint(tuple(float(c) for c in basepoint))
    return Space(EUCLIDEAN, dim=n, basepoint=basepoint)


def tree_space(k: int, basepoint: TreePoint | None = None) -> Space:
    return Space(TREE, valence=k, basepoint=basepoint)


def hyperbolic_plane(basepoint: HyperbolicPoint | None = None) -> Space:
    return Space(HYPERBOLIC, basepoint=basepoint)


def _check_types(space: Space, objs) -> None:
    """Each object is a point or boundary point of the space's kind; raises
    SpaceMismatchError."""
    for o in objs:
        if not isinstance(o, (space.point, space.boundary)):
            raise SpaceMismatchError(f"{type(o).__name__} does not belong to {space.kind}")


def _check_kind(space: Space, *objs):
    """Each object is a point or boundary point of the space's kind that
    keeps the space's rules (`Space.check`: on R^n one of n coordinates, on
    T_k a word of legal letters).  Raises SpaceMismatchError, or ValueError
    on an illegal letter."""
    _check_types(space, objs)
    for o in objs:
        space.check(o)


def dist(space: Space, p: Point, q: Point):
    """Distance between two points of the space (exact Fraction on trees)."""
    _check_kind(space, p, q)
    return space.dist(p, q)


def branch_time(space: Space, x: TreeBoundary, y: TreeBoundary) -> Fraction:
    """Longest common prefix length of two boundary words of T_k (exact),
    by the pair kernel.  Raises ValueError if a word uses an illegal letter
    and IdenticalBoundaryPointsError if x == y (branch time infinite)."""
    if space.kind != TREE:
        raise SpaceMismatchError("branch_time is defined on trees only")
    _check_kind(space, x, y)
    kernel = space.prepare([x, y], TreePoint(()))[0]
    return Fraction(int(kernel(np.array([0]), np.array([1]))[0]))


# ---------------------------------------------------------------------------
# rays and segments


@dataclass(frozen=True)
class Ray:
    """Unit-speed geodesic from `origin` toward `target`: a ray when the
    target is a boundary point, a segment ending there when it is a point."""

    space: Space
    origin: Point
    target: Point | BoundaryPoint

    def __post_init__(self):
        _check_kind(self.space, self.origin, self.target)
        self.space.check_origin(self.origin)


def ray_point(ray: Ray, t) -> Point:
    """Point at parameter t >= 0 along the ray or the segment; a segment
    stays at its target once t >= d(origin, target)."""
    if t < 0:
        raise ValueError("ray parameter must be nonnegative")
    space, p, z = ray.space, ray.origin, ray.target
    d = None
    if not isinstance(z, BoundaryPoint):
        d = dist(space, p, z)
        if t >= d:
            return z
        if t == 0:  # p itself, not its round trip through the disk of H^2
            return p
    return space.walk(p, z, t, d)


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


def _row_norms(V: np.ndarray) -> np.ndarray:
    """The (m, 1) column of sqrt(v.dot(v)), the norm `np.linalg.norm` takes
    of a row v, for each row of V, bit for bit: the batched product runs
    that dot on every row (einsum or a sum of squares rounds otherwise)."""
    return np.sqrt(V[:, None] @ V[..., None])[:, 0]


def _euclidean_draws(space: Space, rng: np.random.Generator):
    """Endless normalized Gaussian directions, as tuples; rows of one
    `rng.normal` block equal per-row calls, and a zero row is skipped.
    Each row is divided by its norm twice, as the sample bits require."""
    while True:
        V = rng.normal(size=(_BLOCK // space.dim + 1, space.dim))
        norm = _row_norms(V)
        V = V[norm[:, 0] != 0.0] / norm[norm[:, 0] != 0.0]
        yield from map(tuple, (V / _row_norms(V)).tolist())


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


def _lemire(halves: np.ndarray, e: int) -> tuple:
    """`Generator.integers(0, e)`, 2 <= e <= 2^32, at each 32-bit half u of
    a decoded window by Lemire's multiply-shift: m = u e is skipped while
    m mod 2^32 < 2^32 mod e, and else draws m >> 32.  Returns (acc, pos,
    let): acc[j] counts the accepted halves before half j, pos lists the
    accepted halves and let their letters."""
    m = halves * np.uint64(e)
    ok, let = (m & 0xFFFFFFFF) >= (1 << 32) % e, m >> 32
    if ok.all():
        return range(len(ok) + 1), range(len(ok)), let.tolist()
    pos = np.flatnonzero(ok)
    return [0] + np.cumsum(ok).tolist(), pos.tolist(), let[pos].tolist()


def _tree_draws(space: Space, rng: np.random.Generator):
    """Endless raw tree draws (preperiod length, letters): the values of
    per-draw calls `rng.geometric(0.4) - 1`, `rng.integers(1, 5)` and one
    `rng.integers(0, e)` per letter (e = k for a first preperiod letter,
    k - 1 otherwise), read off rng's raw PCG64 words.  Each window of words
    is decoded once, for the geometric sums and for each alphabet (the
    period length is 1 + `integers(0, 4)`, which accepts every half).  One
    cursor s, the next unread half, moves over it: with k <= 2^32
    (`Tree.default_basepoint`) every letter draw takes a half, so a draw's
    letters are one run of accepted halves, sliced.  A draw that runs past
    the window is read again from a new one, which keeps the words from
    s // 2 on."""
    raw = rng.bit_generator.random_raw
    k = space.valence
    words, s = np.zeros(0, dtype=np.uint64), 0
    while True:
        words = np.concatenate([words[s // 2:], raw(_BLOCK)])
        s %= 2
        halves = np.stack([words & 0xFFFFFFFF, words >> 32], axis=1).ravel()
        pre = np.searchsorted(_GEOMETRIC_SUMS, (words >> 11) * 2.0 ** -53).tolist()
        per = (halves >> 30).tolist()
        (f_acc, f_pos, f_let), (r_acc, r_pos, r_let) = (_lemire(halves, e) for e in (k, k - 1))
        try:
            while True:
                at = s
                pre_len = pre[(s + 1) // 2]
                # the geometric draw takes the fresh word (s + 1) // 2 and
                # keeps a held high half (s odd); the period draw takes that
                # half, else the low half s + 2 of the next word, and the
                # letters' halves follow it without a gap
                u = per[s if s % 2 else s + 2]
                s += 3
                head = []  # with no preperiod, the first letter is one of k - 1 too
                if pre_len:
                    n = f_acc[s]
                    head, s = [f_let[n]], f_pos[n] + 1
                c = pre_len + u + (not pre_len)
                n = r_acc[s]
                s = r_pos[n + c - 1] + 1
                yield pre_len, tuple(head + r_let[n:n + c])
        except IndexError:
            s = at


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
    if n > space.boundary_size():
        raise ValueError(f"{space_id(space)} has only {space.boundary_size()} boundary "
                         f"points, cannot sample {n}")
    out, seen = [], set()
    for key in space.keys(substream(seed, f"boundary-{space.kind}")):
        if key not in seen:
            seen.add(key)
            out.append(space.of_key(key))
            if len(out) == n:
                return out


# ---------------------------------------------------------------------------
# serialization (line-oriented boundary records, written only)


def space_id(space: Space) -> str:
    return space.kind + (str(getattr(space, space.parameter)) if space.parameter else "")


def space_of_id(name: str) -> Space | None:
    """The space whose `space_id` is `name`, or None: a parameter is
    written in decimal digits without a leading zero."""
    for kind, cls in MODELS.items():
        digits = name[len(kind):] if name.startswith(kind) else None
        if cls.parameter is None and digits == "":
            return Space(kind)
        if cls.parameter and digits and digits.isascii() and digits.isdigit() and digits[0] != "0":
            return Space(kind, **{cls.parameter: int(digits)})
    return None


def boundary_to_line(space: Space, bp: BoundaryPoint) -> str:
    return f"{space_id(space)} {space.boundary_text(bp)}"
