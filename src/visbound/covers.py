"""Cover constructions and measured cover statistics: lattice ball systems
of the space, their pushout to boundary covers, colored boundary covers of
trees and the circle, annular tube covers pushed back into a tree, and a
greedy-net dimension estimate over sampled metric data."""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metrics import _chord, _wrapped_gap, block_lines, pair_kernel, pair_table
from .spaces import (
    EUCLIDEAN,
    HYPERBOLIC,
    TREE,
    EuclideanPoint,
    Point,
    Space,
    SpaceMismatchError,
    TreePoint,
    _check_kind,
    dist,  # unused, but bench/test_bench.py checks the tracer wraps this binding
    substream,
)

# incidence and distance entries per block of cover_stats (its transient
# memory is O(chunk))
_CHUNK = 1 << 15

# vertex words are bytes, one letter each: the one-letter words and the
# text of each letter
_LETTERS = [bytes((a,)) for a in range(256)]
_LETTER_TEXT = [str(a) for a in range(256)]


@dataclass(frozen=True, eq=False)
class Cover:
    """Cover of the ground points 0..n-1 by its (set, point) incidences,
    sorted by set and then by point.  Set s has color colors[s] (an int or
    None), so a set without members is still a set, and text describe(s),
    made only when the cover is written."""

    n: int
    set_of: np.ndarray
    point_of: np.ndarray
    colors: tuple
    describe: Callable[[int], str]

    def __post_init__(self):
        set_of = np.asarray(self.set_of, dtype=np.int64)
        point_of = np.asarray(self.point_of, dtype=np.int64)
        object.__setattr__(self, "set_of", set_of)
        object.__setattr__(self, "point_of", point_of)
        object.__setattr__(self, "colors", tuple(self.colors))
        if point_of.size and (point_of.min() < 0 or point_of.max() >= self.n):
            raise ValueError(f"cover member index outside [0, {self.n})")
        if set_of.size and (set_of.min() < 0 or set_of.max() >= len(self.colors)):
            raise ValueError(f"cover set index outside [0, {len(self.colors)})")
        step = np.diff(set_of)
        if ((step < 0) | ((step == 0) & (np.diff(point_of) <= 0))).any():
            raise ValueError("cover incidences must be sorted by set and then by "
                             "point, each once")

    @property
    def bounds(self) -> np.ndarray:
        """Set s's members are point_of[bounds[s]:bounds[s + 1]]."""
        return np.searchsorted(self.set_of, np.arange(len(self.colors) + 1))


def _point_weights(n: int) -> np.ndarray:
    """n fixed pseudo-random 64-bit weights, one per point index: the
    splitmix64 finalizer of the index."""
    w = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
    w ^= w >> np.uint64(30)
    w *= np.uint64(0xBF58476D1CE4E5B9)
    w ^= w >> np.uint64(27)
    w *= np.uint64(0x94D049BB133111EB)
    return w ^ (w >> np.uint64(31))


def _distinct_sets(set_of: np.ndarray, point_of: np.ndarray) -> tuple:
    """(set_of, point_of) of the distinct sets among incidences whose sets
    are numbered from 0, each set's contiguous: one set of each group of
    equal member runs is kept, numbered by group.  Sets are sorted by an
    order-independent hash, the wrapping sum of their points' weights, and
    a set joins its predecessor's group only if their runs are equal point
    by point, so a hash collision can split a group but never merges two
    different sets."""
    starts = np.flatnonzero(np.diff(set_of, prepend=-1))
    h = np.add.reduceat(_point_weights(int(point_of.max(initial=-1)) + 1)[point_of], starts)
    order = np.argsort(h, kind="stable")
    tie = h[order[1:]] == h[order[:-1]]
    if not tie.any():
        return set_of, point_of
    sizes = np.diff(starts, append=len(point_of))
    s, prev = order[1:], order[:-1]
    cand = np.flatnonzero(tie & (sizes[s] == sizes[prev]))
    lens = sizes[s[cand]]
    seg = np.repeat(np.arange(len(cand)), lens)
    offs = np.arange(len(seg)) - np.repeat(np.cumsum(lens) - lens, lens)
    differ = point_of[starts[s[cand]][seg] + offs] != point_of[starts[prev[cand]][seg] + offs]
    same = np.zeros(len(order), dtype=bool)
    same[cand + 1] = np.bincount(seg[differ], minlength=len(cand)) == 0
    group = np.empty(len(order), dtype=np.int64)
    group[order] = np.cumsum(~same) - 1
    first = np.empty(len(order), dtype=bool)
    first[order] = ~same
    run_of = np.repeat(np.arange(len(starts)), sizes)
    keep = first[run_of]
    return group[run_of[keep]], point_of[keep]


@dataclass(frozen=True)
class CoverStats:
    order: int
    mesh: float
    lebesgue: float     # math.inf sentinel when some set swallows the sample


def cover_stats(cover: Cover, matrix: np.ndarray) -> CoverStats:
    """Order, mesh, and Lebesgue number of the cover measured against its
    own ground sample, whose pairwise distances are `matrix`.

    The order is the largest count of incidences of a point.  Identical
    sets give identical mesh and Lebesgue candidates, so each distinct set
    is measured once; its incidences, sorted by point, are read in blocks
    of about _CHUNK matrix entries.  An incidence's mesh candidate is the
    largest distance from its point into its set, and its Lebesgue
    candidate the smallest distance from its point out of the set; a
    point's Lebesgue candidate is the largest of its incidences'."""
    if not cover.colors:
        raise ValueError("empty cover")
    n = cover.n
    matrix = np.asarray(matrix)
    if matrix.shape != (n, n):
        raise ValueError(f"distance matrix has shape {matrix.shape}, not ({n}, {n})")
    counts = np.bincount(cover.point_of, minlength=n)
    if counts.min() < 1:
        raise ValueError("ground point left uncovered")
    set_of, point_of = _distinct_sets(cover.set_of, cover.point_of)
    M = np.zeros((int(set_of.max()) + 1, n), dtype=bool)
    M[set_of, point_of] = True
    by_point = np.argsort(point_of, kind="stable")
    set_of, point_of = set_of[by_point], point_of[by_point]
    step = max(1, _CHUNK // n)
    mesh = 0.0
    out = np.empty(len(point_of))
    for lo in range(0, len(point_of), step):
        inside = M[set_of[lo:lo + step]]
        D = matrix[point_of[lo:lo + step]]
        mesh = max(mesh, float(np.where(inside, D, -math.inf).max()))
        out[lo:lo + step] = np.where(inside, math.inf, D).min(axis=1)
    # every point is covered, so each starts a run of point_of
    best = np.maximum.reduceat(out, np.flatnonzero(np.diff(point_of, prepend=-1)))
    return CoverStats(order=int(counts.max()), mesh=mesh, lebesgue=max(0.0, float(best.min())))


@dataclass(frozen=True)
class ScaleRow:
    lam: float
    order: int
    mesh: float
    lebesgue: float
    bound_mesh: float
    bound_lebesgue: float
    passed: bool

    @classmethod
    def judge(cls, lam, stats: CoverStats, bound_mesh, bound_lebesgue, bound_order) -> "ScaleRow":
        """The row of a cover measured as `stats` at scale lam, which passes
        when order <= bound_order, lebesgue >= bound_lebesgue (1 - 1e-9) and
        mesh <= bound_mesh (1 + 1e-9)."""
        return cls(lam=float(lam), order=stats.order, mesh=stats.mesh, lebesgue=stats.lebesgue,
                   bound_mesh=bound_mesh, bound_lebesgue=bound_lebesgue,
                   passed=(stats.order <= bound_order
                           and stats.lebesgue >= bound_lebesgue * (1 - 1e-9)
                           and stats.mesh <= bound_mesh * (1 + 1e-9)))


# ---------------------------------------------------------------------------
# lattice / vertex-orbit ball systems


def _inside(P, C, rad: float) -> np.ndarray:
    """dist(P, C) < rad elementwise over broadcast rows of coordinates, by
    `_chord` (the IEEE operations of `spaces.dist`) and a strict comparison."""
    return _chord(P[..., i] - C[..., i] for i in range(P.shape[-1])) < rad


def _rank_words(words: list) -> tuple:
    """(keys, codes): the distinct words in increasing order, and the index
    in keys of each word, as int64 (`bytes` sort as tuples do)."""
    keys = sorted(set(words))
    rank = {w: i for i, w in enumerate(keys)}
    return keys, np.fromiter(map(rank.__getitem__, words), dtype=np.int64, count=len(words))


def _word_text(word: bytes) -> str:
    """repr(tuple(word)) of a vertex word."""
    if len(word) == 1:
        return f"({word[0]},)"
    return "(" + ", ".join([_LETTER_TEXT[a] for a in word]) + ")"


def _check_letters(space: Space) -> None:
    if space.kind == TREE and space.valence > 256:
        raise ValueError(f"tree valence {space.valence} > 256: a word letter must fit in a byte")


def _tree_levels(head: bytes, levels: int, k: int) -> list:
    """Words of the first `levels` levels of the subtree of T_k at the
    non-root vertex `head`."""
    if levels <= 0:
        return []
    out, level, letters = [], [head], _LETTERS[:k - 1]
    for _ in range(levels - 1):
        out += level
        level = [w + a for w in level for a in letters]
    return out + level


@dataclass(frozen=True)
class LatticeBallSystem:
    """Open balls of radius 2R around the unit integer lattice (Euclidean)
    or around every vertex (tree).  Centers are enumerated locally near a
    query point, never globally, and named by their keys: int64 coordinate
    rows or `bytes` vertex words."""

    space: Space
    R: object

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("ball system needs R > 0")
        if self.space.kind == HYPERBOLIC:
            raise ValueError("no lattice orbit is provided on the hyperbolic plane")
        _check_letters(self.space)

    @property
    def radius(self):
        return 2 * self.R

    @functools.cached_property
    def stencil(self) -> np.ndarray:
        """Euclidean lattice offsets o, in lexicographic order, whose ball
        around floor(p) + o can hold a point p: the gap between o and the
        unit cube [0, 1]^n is shorter than 2R + 1e-9.  A center off the
        stencil is farther from p than that, beyond any rounding of
        `spaces.dist`.  For 2R + 1e-9 = p/q, a squared gap s is shorter
        iff s q^2 < p^2, that is s <= (p^2 - 1) // q^2."""
        p, q = (Fraction(float(self.radius)) + Fraction(1, 10 ** 9)).as_integer_ratio()
        reach, dim = -(-p // q), self.space.dim
        # every offset in [-reach, reach + 1]^n, in lexicographic order
        o = np.indices((2 * reach + 2,) * dim).reshape(dim, -1).T - reach
        gap = np.maximum(np.maximum(-o, o - 1), 0)
        return o[(gap * gap).sum(axis=1) <= (p * p - 1) // (q * q)]

    def _tree_ball(self, w: bytes, levels, budget: int) -> list:
        """Vertex words within open distance 2R of the vertex w (levels None)
        or of a point on the edge into w, by integer depth budgets: walk up
        the ancestors of the point while they are inside (i steps up iff
        i < budget), and take from each the levels of its other branches
        that stay inside; the far end w of an edge has `levels` inside."""
        k = self.space.valence
        if levels is None:
            up, skip, out = w, None, []
        else:
            up, skip = w[:-1], w[-1]
            out = _tree_levels(w, levels, k)
        for i in range(min(budget, len(up) + 1)):
            a = up[:len(up) - i]
            out.append(a)
            for c in range(k if not a else k - 1):
                if c != skip:
                    out += _tree_levels(a + _LETTERS[c], budget - i - 1, k)
            skip = a[-1] if a else None
        return out

    def incidences(self, points) -> tuple:
        """(keys, set_of, point_of): the keys of the orbit centers whose open
        2R-ball contains some point, in increasing order, and the (ball,
        point) incidences sorted by ball and then by point, as indices into
        `keys` and `points`.

        Tree points are (word, (num, den)) pairs, the offset num/den along
        the edge into the `bytes` word, whose `_tree_ball` budgets are exact
        ceilings, taken once per distinct offset.  R^n points are the rows
        of an (m, n) float array, and the keys int64 rows."""
        if self.space.kind == TREE:
            rad, budgets, balls = Fraction(self.radius), {}, []
            for word, ratio in points:
                if ratio not in budgets:
                    o = Fraction(*ratio)
                    budgets[ratio] = ((math.ceil(rad + o) - 1, math.ceil(rad - o))
                                      if o else (None, math.ceil(rad)))
                balls.append(self._tree_ball(word, *budgets[ratio]))
            keys, set_of = _rank_words(list(itertools.chain.from_iterable(balls)))
            point_of = np.repeat(np.arange(len(balls)), [len(b) for b in balls])
            # the incidences come in point order, which a stable sort keeps
            # within each ball
            by_set = np.argsort(set_of, kind="stable")
            return keys, set_of[by_set], point_of[by_set]
        P = np.asarray(points, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.space.dim:
            raise SpaceMismatchError(f"points of shape {P.shape} are not rows of R^{self.space.dim}")
        base = np.floor(P)
        hit = _inside(P[:, None, :], base[:, None, :] + self.stencil, float(self.radius))
        point_of, offset = np.nonzero(hit)
        rows = base.astype(np.int64)[point_of] + self.stencil[offset]
        # one stable sort of the key rows, first coordinate first, keeps the
        # point order of the incidences within each ball
        by_set = np.lexsort(rows.T[::-1])
        rows = rows[by_set]
        start = np.ones(len(rows), dtype=bool)
        start[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        return rows[start], np.cumsum(start) - 1, point_of[by_set]

    def centers_near(self, p: Point) -> list:
        """All orbit centers whose open 2R-ball contains p, by increasing key."""
        _check_kind(self.space, p)
        if self.space.kind == TREE:
            keys, _, _ = self.incidences([(bytes(p.word), p.offset.as_integer_ratio())])
            return [TreePoint(tuple(key)) for key in keys]
        keys, _, _ = self.incidences(np.array([p.coords], dtype=float))
        return [EuclideanPoint(tuple(map(float, key))) for key in keys.tolist()]


def orbit_ball_order(space: Space, R, resolution: int = 48) -> int:
    """Global order of the orbit 2R-ball system.  Multiplicity is periodic
    under the orbit, so a grid over one fundamental domain (Euclidean) or
    one deep edge (tree) finds the exact maximum up to grid resolution.
    The Euclidean grid is counted a block of offsets at a time, each
    temporary of about 2^12 entries."""
    system = LatticeBallSystem(space, R)
    if space.kind == EUCLIDEAN:
        axis = np.arange(resolution) / resolution
        grid = np.stack(np.meshgrid(*[axis] * space.dim, indexing="ij"), axis=-1)
        counts = np.zeros(grid.shape[:-1], dtype=np.int64)
        stencil = system.stencil.reshape((-1,) + (1,) * space.dim + (space.dim,))
        step = -(-(1 << 12) // counts.size)
        for lo in range(0, len(stencil), step):
            counts += _inside(grid, stencil[lo:lo + step], float(system.radius)).sum(axis=0)
        return int(counts.max())
    deep = bytes([0] + [1, 0] * (int(2 * R) + 2))
    edge = [(deep, (num, 16)) for num in range(16)]
    return int(np.bincount(system.incidences(edge)[2]).max())


# ---------------------------------------------------------------------------
# boundary pushout


def _tree_ray_points(space: Space, t: Fraction, boundary_sample: list) -> list:
    """The `LatticeBallSystem.incidences` point at time t = whole + off on
    the ray from the vertex basepoint v toward each boundary point.  A ray
    leaving v's word at depth m walks up it first: while m <= |v| - ceil(t)
    its point is at depth |v| - t on v, at offset 1 - off (0 for off = 0),
    and else at depth 2m - |v| + t on its own word, at offset off."""
    whole, off = divmod(t, 1)
    top = space.basepoint.word
    rise = len(top) - whole - (off > 0)
    upper = (bytes(top[:len(top) - whole]), (1 - off if off else off).as_integer_ratio())
    down = off.as_integer_ratio()
    points = []
    for xi in boundary_sample:
        m = next((j for j, (a, b) in enumerate(zip(top, xi.prefix(len(top)))) if a != b), len(top))
        points.append(upper if m <= rise else (bytes(xi.prefix(2 * m - rise)), down))
    return points


def boundary_pushout_cover(space: Space, system: LatticeBallSystem, lam, A,
                           boundary_sample: list) -> Cover:
    """The orbit-ball cover pushed out to the boundary at scale lam, from
    `LatticeBallSystem.incidences` of the basepoint rays' points at time
    1/lam: a boundary point joins the set of a ball V iff its ray sits in
    V at that time.  One set per ball meeting the sample, by increasing
    center key.  The ray points are `spaces.ray_point`'s: at
    t = 1/Fraction(lam) on a tree, and basepoint + (1.0 / lam) V on R^n."""
    if lam <= 0:
        raise ValueError("scale must be positive")
    if system.R <= A:
        raise ValueError("pushout needs ball parameter R > A")
    _check_kind(system.space, space.basepoint, *boundary_sample)
    n = len(boundary_sample)
    if space.kind == TREE:
        points = _tree_ray_points(space, 1 / Fraction(lam), boundary_sample)
    else:
        V = np.array([xi.direction for xi in boundary_sample], dtype=float).reshape(n, space.dim)
        points = np.array(space.basepoint.coords) + (1.0 / float(lam)) * V
    keys, set_of, point_of = system.incidences(points)
    text = _word_text if space.kind == TREE else (lambda row: str(tuple(row.tolist())))
    if not np.bincount(point_of, minlength=n).all():
        raise ValueError("pushout cover failed to cover the boundary sample")
    label = f"pushout lam={float(lam):g}"
    return Cover(n, set_of, point_of, (None,) * len(keys),
                 lambda s: f"{label} center={text(keys[s])}")


# ---------------------------------------------------------------------------
# colored boundary covers


def _tree_cylinder_cover(lam, boundary_sample: list) -> Cover:
    depth = max(1, math.ceil(math.log(4.0 / float(lam)) - 1e-9))
    keys, cylinder = _rank_words([bytes(xi.prefix(depth)) for xi in boundary_sample])
    point_of = np.argsort(cylinder, kind="stable")
    return Cover(len(cylinder), cylinder[point_of], point_of, (0,) * len(keys),
                 lambda s: f"cylinder depth={depth} word={_word_text(keys[s])}")


def _circle_arc_cover(lam, boundary_sample: list) -> Cover:
    """Two alternating colors of overlapping arcs; same-color arcs stay a
    chordal gap >= lam/2 apart, arc diameter <= ~5 lam.  Raises ValueError
    when lam is too coarse for four arcs."""
    lamf = float(lam)
    theta = 4.0 * math.asin(min(1.0, lamf / 4.0))
    N = 2 * int(math.floor(math.pi / theta))
    if lamf >= 4.0 * math.sin(math.pi / 8) or N < 4:
        raise ValueError(f"scale {lamf:g} is too coarse for four arcs of the circle")
    spacing = 2 * math.pi / N
    half = 0.75 * spacing
    V = np.array([xi.direction for xi in boundary_sample], dtype=float)
    phi = np.arctan2(V[:, 1], V[:, 0]) % (2 * math.pi)
    centers = np.arange(N) * spacing
    set_of, point_of = np.nonzero(_wrapped_gap(phi, centers[:, None]) <= half)
    return Cover(len(phi), set_of, point_of, [j % 2 for j in range(N)],
                 lambda j: f"arc j={j} center={j * spacing:.6f} half={half:.6f}")


def _greedy_net(matrix: np.ndarray, lam: float, radius: float, rng) -> Cover:
    """Greedy maximal lam-separated net over the rows of `matrix`, scanned in
    `rng`'s permutation order; returns the cover by the open radius-balls
    around the net, one set per center by increasing center."""
    n = matrix.shape[0]
    blocked = np.zeros(n, dtype=bool)
    centers = []
    for i in rng.permutation(n):
        if not blocked[i]:
            centers.append(int(i))
            blocked |= matrix[:, i] < lam
    centers.sort()
    step = block_lines(n)
    hits = [np.zeros((2, 0), dtype=np.intp)]
    for lo in range(0, len(centers), step):
        hit = np.array(np.nonzero((matrix[:, centers[lo:lo + step]] < radius).T))
        hit[0] += lo
        hits.append(hit)
    set_of, point_of = np.concatenate(hits, axis=1)
    return Cover(n, set_of, point_of, (None,) * len(centers),
                 lambda s: f"net-ball center={centers[s]}")


def colored_boundary_cover(space: Space, lam, boundary_sample: list) -> Cover:
    """Boundary cover at scale lam whose color classes are lam/2-separated:
    disjoint cylinders of one color on a tree, two colors of alternating
    arcs on the circle.  Any other space, or a circle scale too coarse for
    four arcs, raises ValueError."""
    if lam <= 0:
        raise ValueError("scale must be positive")
    if space.kind == TREE:
        _check_letters(space)
        return _tree_cylinder_cover(lam, boundary_sample)
    if space.kind == EUCLIDEAN and space.dim == 2:
        return _circle_arc_cover(lam, boundary_sample)
    raise ValueError("colored boundary covers are built on trees and the circle only")


# ---------------------------------------------------------------------------
# annular pushin


@dataclass(frozen=True)
class ScaleSchedule:
    """Geometric scale ladder lam_k = 4 e^{-kR}, k = 1..K."""

    R: int
    K: int
    c: float

    def __post_init__(self):
        if self.R <= 0 or self.K < 0 or self.c < 1:
            raise ValueError("need R > 0, K >= 0, c >= 1")

    def lam(self, k: int) -> float:
        return 4.0 * math.exp(-k * self.R)


def sample_ray_points(boundary_sample: list, r_max, n: int, seed: int) -> list:
    """(boundary index, radius) pairs with dyadic radii in [0, r_max);
    the interior sample for the annular pushin."""
    top = int(Fraction(r_max) * 8)
    # one call, index and radius draws alternating, as per-pair calls draw them
    draws = substream(seed, "ray-points").integers(0, [len(boundary_sample), top] * n).tolist()
    return [(i, Fraction(r, 8)) for i, r in zip(draws[::2], draws[1::2])]


def annular_pushin_cover(space: Space, schedule: ScaleSchedule,
                         colored_covers: dict, boundary_sample: list,
                         interior_sample: list):
    """Tube cover of the interior sample of a tree: for each scale k and
    each colored boundary set U, the band kR < r < (k+2)R of rays landing
    in U, plus the base ball B(x0, 2R).  Returns (cover, claims).

    interior_sample entries are (boundary index, radius) pairs; each radius
    is read once as num/den, and tested against the bands in integers.
    Everything is read from one branch table B of the basepoint rays, with
    +inf on its diagonal: the ray toward j passes the point at radius r on
    the ray toward i iff B[i, j] >= ceil(r).  Raises ValueError on a
    non-tree space."""
    if space.kind != TREE:
        raise ValueError("the annular pushin is built on tree spaces only")
    R, K = schedule.R, schedule.K
    for k in range(1, K + 1):
        if k not in colored_covers:
            raise ValueError(f"missing colored cover for scale k={k}")
    B = pair_table(len(boundary_sample), pair_kernel(space, boundary_sample), math.inf)
    rays = np.array([i for i, _ in interior_sample], dtype=np.int64)
    ratios = [r.as_integer_ratio() for _, r in interior_sample]
    reach = B[rays] >= np.array([-(-num // den) for num, den in ratios], dtype=float)[:, None]

    m = len(interior_sample)
    # one tube per colored set U with members, by scale and then by U:
    # the in-band points whose ray reaches a member of U
    set_parts, point_parts, colors, tube_of = [], [], [], []
    for k in range(1, K + 1):
        lo, hi = k * R, (k + 2) * R
        band = np.flatnonzero([lo * den < num < hi * den for num, den in ratios])
        boundary = colored_covers[k]
        p, inc = np.nonzero(reach[band][:, boundary.point_of])
        hit = np.zeros((len(boundary.colors), m), dtype=bool)
        hit[boundary.set_of[inc], band[p]] = True
        used = np.flatnonzero(hit.any(axis=1))
        tube, points = np.nonzero(hit[used])
        set_parts.append(tube + len(colors))
        point_parts.append(points)
        colors += [boundary.colors[s] for s in used.tolist()]
        tube_of += [(k, s) for s in used.tolist()]
    base = np.flatnonzero([num < 2 * R * den for num, den in ratios])
    set_parts.append(np.full(len(base), len(colors)))
    point_parts.append(base)
    colors.append(None)

    def describe(t):
        if t == len(tube_of):
            return f"base ball radius={2 * R}"
        k, s = tube_of[t]
        return f"tube k={k} of [{colored_covers[k].describe(s)}]"

    cover = Cover(m, np.concatenate(set_parts), np.concatenate(point_parts), colors, describe)
    set_scale = np.array([k for k, _ in tube_of] + [0])
    # int / int rounds as float of a Fraction does
    claims = _pushin_claims(cover, set_scale, schedule, [num / den for num, den in ratios], rays, B)
    return cover, claims


def _pushin_claims(cover, set_scale, schedule, radii, rays, B):
    """The pushin claims, given each set's scale k (0 for the base ball),
    with the tube mesh read from the branch table B (+inf diagonal): points
    at float radii r_a, r_b on the rays toward i_a, i_b (`rays`) are
    r_a + r_b - 2 min(r_a, r_b, B[i_a, i_b]) apart, exact for dyadic radii."""
    R, c = schedule.R, schedule.c
    set_of, point_of = cover.set_of, cover.point_of
    tube = set_scale[set_of] > 0
    # Claim 1: same-color tube sets at one scale share no sample point
    groups = {}
    group = np.array([groups.setdefault(key, len(groups))
                      for key in zip(set_scale.tolist(), cover.colors)], dtype=np.int64)
    pairs = group[set_of[tube]] * cover.n + point_of[tube]
    color_ok = bool(np.bincount(pairs).max(initial=0) <= 1)
    # per-point decay inequality 2 e^{-r} < lam_k / 2 inside scale-k tubes
    decay = np.array([2.0 * math.exp(-r) for r in radii])
    half_lam = np.array([schedule.lam(k) / 2.0 for k in set_scale.tolist()])
    point_ok = bool((decay[point_of[tube]] < half_lam[set_of[tube]]).all())
    # Claim 3: tube mesh bound
    mesh_bound = 4.0 * c * math.exp(2 * R) + 2 * R
    radii = np.array(radii)
    bounds = cover.bounds
    tube_mesh = 0.0
    for t in np.flatnonzero(set_scale).tolist():
        members = point_of[bounds[t]:bounds[t + 1]]
        i, r = rays[members], radii[members]
        shared = np.minimum(np.minimum.outer(r, r), B[np.ix_(i, i)])
        tube_mesh = max(tube_mesh, float((r[:, None] + r[None, :] - 2.0 * shared).max()))
    counts = np.bincount(point_of, minlength=cover.n)
    return {
        "color_disjoint": color_ok,
        "per_point_decay": point_ok,
        "tube_mesh": tube_mesh,
        "mesh_bound": mesh_bound,
        "mesh_ok": tube_mesh <= mesh_bound,
        "order": int(counts.max(initial=0)),
        "covers_ground": bool(counts.all()),
    }


# ---------------------------------------------------------------------------
# dimension estimate from greedy nets


def ell_dim_estimate(matrix: np.ndarray, scales: list, c: float, seed: int = 0):
    """At each scale: greedy maximal lam-separated net (seeded scan order,
    ties by index), cover by open lam-balls around the net, measured order;
    a scale passes when the mesh is at most c lam.  Returns (rows,
    estimate) with estimate = max order - 1."""
    if c < 1:
        raise ValueError("need c >= 1")
    if not scales or any(lam <= 0 for lam in scales):
        raise ValueError("need at least one scale, each positive")
    rows = []
    for lam in map(float, scales):
        cover = _greedy_net(matrix, lam, lam, substream(seed, f"net-{lam:.12g}"))
        rows.append(ScaleRow.judge(lam, cover_stats(cover, matrix=matrix), c * lam, 0.0, math.inf))
    return rows, max(r.order for r in rows) - 1
