"""Cover constructions and measured cover statistics: lattice ball systems
of the space, their pushout to boundary covers, colored boundary covers of
trees and the circle, annular tube covers pushed back into a tree, and a
greedy-net dimension estimate over sampled metric data.  The orbit, its
balls and the colored covers of each space are its own (`spaces.Space`)."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metrics import SampleMetric, pair_kernel, pair_table
# `dist` is unused, but bench/test_bench.py checks the tracer wraps this binding
from .spaces import TREE, Point, Space, _check_kind, dist, substream  # noqa: F401

# distances per block of the full rows and member pairs that cover_stats
# and the row-read greedy net read (their transient memory is O(chunk))
_CHUNK = 1 << 15
# a circle run spanning more than half the circle less this has its mesh
# read from its members' pairs: the H^2 angle of a nearly antipodal pair
# is rounded to about 1e-8
_HALF_TURN_SLACK = 1e-6

@dataclass(frozen=True, eq=False)
class Cover:
    """Cover of the ground points 0..n-1 by its (set, point) incidences,
    sorted by set and then by point.  Set s has color colors[s] (an int or
    None), so a set without members is still a set, and a descriptor text
    held as data: `descriptor` is a tuple of parts, each a str (the same
    text on every set) or a pair (texts, codes) of a tuple of str and an
    int array with one row per set (1-D, or 2-D for several texts in a row)
    whose entries index texts, -1 for none.  Set s's text is the
    concatenation, part by part and along its rows, of the texts its codes
    pick (`describe(s)`).  `cli._cover_json` writes every set's text from
    one word table per part, with no string per set; str parts are kept as
    ((text,), zeros)."""

    n: int
    set_of: np.ndarray
    point_of: np.ndarray
    colors: tuple
    descriptor: tuple = ()

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
        object.__setattr__(self, "descriptor", tuple(map(self._part, self.descriptor)))

    def _part(self, part) -> tuple:
        """A descriptor part as (texts, codes), checked to hold one row of
        codes per set, each code in [-1, len(texts))."""
        sets = len(self.colors)
        if isinstance(part, str):
            return (part,), np.zeros(sets, dtype=np.int8)
        texts, codes = part
        if type(texts) is not tuple or not all(isinstance(t, str) for t in texts):
            raise ValueError("cover descriptor texts must be a tuple of str")
        codes = np.asarray(codes)
        if codes.dtype.kind != "i":
            codes = codes.astype(np.int64)
        if codes.ndim not in (1, 2) or len(codes) != sets:
            raise ValueError(f"cover descriptor part of shape {codes.shape} does not hold "
                             f"one row per set ({sets})")
        if codes.size and (codes.min() < -1 or codes.max() >= len(texts)):
            raise ValueError(f"cover descriptor code outside [-1, {len(texts)})")
        return texts, codes

    @property
    def bounds(self) -> np.ndarray:
        """Set s's members are point_of[bounds[s]:bounds[s + 1]]."""
        return np.searchsorted(self.set_of, np.arange(len(self.colors) + 1))

    def describe(self, s: int) -> str:
        """Set s's descriptor text."""
        return "".join([texts[c] for texts, codes in self.descriptor
                        for c in np.ravel(codes[s]).tolist() if c >= 0])


def tuple_parts(rows: np.ndarray, lens=None) -> tuple:
    """Two descriptor parts (texts, codes) of repr(tuple(row)) without its
    "(" for each row of the int array `rows`, of its first lens[i] entries
    (every entry where `lens` is None): the entries, a first one v as "v"
    and each later one as ", v", then ",)" after one entry or ")".  The
    codes are of the narrowest signed type."""
    lo, hi = int(rows.min(initial=0)), int(rows.max(initial=0))
    ints = tuple(map(str, range(lo, hi + 1)))
    codes = np.empty(rows.shape, np.min_scalar_type(-2 * len(ints)))
    np.subtract(rows, lo, out=codes, casting="unsafe")
    codes[:, 1:] += len(ints)
    if lens is not None:
        codes[np.arange(rows.shape[1]) >= lens[:, None]] = -1
    one = (codes[:, 0] >= 0) & (codes[:, 1:2] < 0).all(axis=1)
    return (ints + tuple(", " + t for t in ints), codes), ((")", ",)"), one.view(np.int8))


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
    starts = _starts(set_of)
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


def _ranks(order: np.ndarray) -> np.ndarray:
    """The position of each sample index in the boundary order."""
    rank = np.empty(len(order), dtype=np.int64)
    rank[order] = np.arange(len(order))
    return rank


def _starts(x: np.ndarray) -> np.ndarray:
    """The index of the first entry of each run of equal entries of x."""
    new = np.ones(len(x), dtype=bool)
    np.not_equal(x[1:], x[:-1], out=new[1:])
    return np.flatnonzero(new)


def _segments(set_of: np.ndarray) -> tuple:
    """(starts, ends, seg) of incidences whose sets are contiguous: the
    first and last incidence of each set, and each incidence's set, the
    sets numbered in order from 0."""
    starts = _starts(set_of)
    ends = np.append(starts[1:], len(set_of)) - 1
    return starts, ends, np.repeat(np.arange(len(starts)), ends - starts + 1)


def _runs(metric: SampleMetric, point_of: np.ndarray, starts, ends, seg) -> tuple:
    """(run, lo, hi) for the sets of `_segments`: whether each set is a run
    of the boundary order (cyclic on the circle), and the ranks of its
    first and last members along it.  A whole circle runs from rank 0 to
    n - 1."""
    n = metric.n
    # each set's ranks in increasing order
    r = np.sort(seg * n + _ranks(metric.order)[point_of]) - seg * n
    first, last = r[starts], r[ends]
    if metric.turn is None:
        return last - first == ends - starts, first, last
    # the ranks missing after each member, the last member's wrapping round
    # to the first; a run misses ranks at one place at most, and starts
    # after it
    gap = np.empty(len(r), dtype=np.int64)
    np.subtract(r[1:], r[:-1] + 1, out=gap[:-1])
    gap[ends] = first + n - last - 1
    at = np.flatnonzero(gap > 0)
    cut = ends.copy()
    cut[seg[at]] = at
    return (np.bincount(seg[at], minlength=len(starts)) <= 1,
            r[np.where(cut == ends, starts, cut + 1)], r[cut])


def _far_pairs(metric: SampleMetric, lo: np.ndarray, size: np.ndarray) -> float:
    """The largest distance between two members of one of the circle runs
    of `size` points from rank lo, each spanning half the circle or more.
    Along a run the members' turns u rise from 0; the farthest member from
    the one at u is one of the two around u + pi or around u - pi, or, where
    those fall outside the run, its end, so each member is paired with
    those four."""
    n, order, turn = metric.n, metric.order, metric.turn
    seg = np.repeat(np.arange(len(lo)), size)
    first = np.cumsum(size) - size
    members = order[(lo[seg] + np.arange(len(seg)) - first[seg]) % n]
    # each run's turns in a window of its own, 4 pi apart
    u = (turn[members] - turn[members[first]][seg]) % (2 * math.pi) + 4 * math.pi * seg
    a, b = first[seg], first[seg] + size[seg] - 1
    j = np.searchsorted(u, np.concatenate([u + math.pi, u - math.pi]))
    near = np.concatenate([np.clip(j - 1, np.tile(a, 2), np.tile(b, 2)),
                           np.clip(j, np.tile(a, 2), np.tile(b, 2))])
    return float(metric.dist(np.tile(members, 4), members[near]).max())


def _run_candidates(metric: SampleMetric, point_of: np.ndarray, starts, ends, seg,
                    run, lo, hi, best: np.ndarray) -> float:
    """The largest mesh candidate of the run sets of `_runs`, over the sets
    of `_segments`; raises best[p] to each Lebesgue candidate of a point p
    in a run set."""
    n, order = metric.n, metric.order
    whole = ends - starts == n - 1
    inc = np.flatnonzero(run[seg])
    s = seg[inc]
    near = np.concatenate([lo[s] - 1, hi[s] + 1])
    if metric.turn is None:
        # past the ends of the line there is no point
        missing = (near < 0) | (near >= n)
        near = np.clip(near, 0, n - 1)
    else:
        missing = np.tile(whole[s], 2)
        near %= n
    d = metric.dist(np.tile(point_of[inc], 2), order[near])
    d[missing] = math.inf
    np.maximum.at(best, point_of[inc], np.minimum(d[:len(inc)], d[len(inc):]))
    spread = run & (ends > starts)
    by_ends = spread
    mesh = 0.0
    if metric.turn is not None:
        span = (metric.turn[order[hi]] - metric.turn[order[lo]]) % (2 * math.pi)
        by_ends = spread & ~whole & (span < math.pi - _HALF_TURN_SLACK)
        far = spread & ~by_ends
        # identical runs have the same ends: one of each
        ends_key = np.sort(lo[far] * n + hi[far])
        ends_key = ends_key[_starts(ends_key)]
        if ends_key.size:
            first = ends_key // n
            mesh = _far_pairs(metric, first, (ends_key % n - first) % n + 1)
    e = np.flatnonzero(by_ends)
    return max(mesh, float(metric.dist(order[lo[e]], order[hi[e]]).max(initial=0.0)))


def _row_candidates(metric: SampleMetric, set_of: np.ndarray, point_of: np.ndarray,
                    best: np.ndarray) -> float:
    """`_run_candidates` for any sets, each distinct set measured once from
    its members' full rows (`SampleMetric.rows`), in blocks of about
    _CHUNK distances."""
    n = metric.n
    set_of, point_of = _distinct_sets(set_of, point_of)
    inside = np.zeros((int(set_of.max()) + 1, n), dtype=bool)
    inside[set_of, point_of] = True
    step = max(1, _CHUNK // n)
    mesh = 0.0
    for a in range(0, len(point_of), step):
        points = point_of[a:a + step]
        D = metric.rows(points)
        member = inside[set_of[a:a + step]]
        mesh = max(mesh, float(np.where(member, D, -math.inf).max()))
        np.maximum.at(best, points, np.where(member, math.inf, D).min(axis=1))
    return mesh


def cover_stats(cover: Cover, metric: SampleMetric) -> CoverStats:
    """Order, mesh, and Lebesgue number of the cover measured against its
    own ground sample, whose distances `metric` gives.

    The order is the largest count of incidences of a point.  An
    incidence's mesh candidate is the largest distance from its point into
    its set, and its Lebesgue candidate the smallest distance from its
    point out of the set; a point's Lebesgue candidate is the largest of its
    incidences'.

    A set that is a run of the metric's boundary order reads each member's
    Lebesgue candidate from the two sample points just outside the run,
    and its mesh from its two ends, or, when it spans half the circle or
    more (within _HALF_TURN_SLACK), from its members' pairs that can be
    farthest (`_far_pairs`), equal to the full-row answer up to the
    near-ties that `SampleMetric` names.  Any other set reads the full row
    of each member (`SampleMetric.rows`), each distinct set once, in blocks
    of about _CHUNK distances (`_row_candidates`)."""
    if not cover.colors:
        raise ValueError("empty cover")
    n = cover.n
    if metric.n != n:
        raise ValueError(f"sample metric over {metric.n} points, not {n}")
    counts = np.bincount(cover.point_of, minlength=n)
    if counts.min() < 1:
        raise ValueError("ground point left uncovered")
    set_of, point_of = cover.set_of, cover.point_of
    best = np.full(n, -math.inf)
    mesh = 0.0
    if metric.order is not None:
        starts, ends, seg = _segments(set_of)
        run, lo, hi = _runs(metric, point_of, starts, ends, seg)
        mesh = _run_candidates(metric, point_of, starts, ends, seg, run, lo, hi, best)
        set_of, point_of = set_of[~run[seg]], point_of[~run[seg]]
    if len(point_of):
        mesh = max(mesh, _row_candidates(metric, set_of, point_of, best))
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


@dataclass(frozen=True)
class LatticeBallSystem:
    """Open balls of radius 2R around the unit integer lattice of R^n or
    every vertex of T_k (H^2 raises ValueError).  Centers are enumerated
    locally near a query point, never globally, and named by their keys:
    int64 coordinate rows or `bytes` vertex words."""

    space: Space
    R: object

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("ball system needs R > 0")
        self.space.check_orbit()

    @property
    def radius(self):
        return 2 * self.R

    def incidences(self, points) -> tuple:
        """(keys, set_of, point_of): the keys of the orbit centers whose open
        2R-ball contains some point, in increasing order, and the (ball,
        point) incidences sorted by ball and then by point, as indices into
        `keys` and `points`: (word, (num, den)) pairs on T_k, at offset
        num/den along the edge into the `bytes` word, rows of R^n."""
        return self.space.incidences(self, points)

    def centers_near(self, p: Point) -> list:
        """All orbit centers whose open 2R-ball contains p, by increasing key."""
        _check_kind(self.space, p)
        return self.space.centers_near(self, p)


def orbit_ball_order(space: Space, R, resolution: int = 48) -> int:
    """Global order of the orbit 2R-ball system.  Multiplicity is periodic
    under the orbit, so a grid over one fundamental domain (Euclidean) or
    one deep edge (tree) finds the exact maximum up to grid resolution."""
    return space.orbit_order(LatticeBallSystem(space, R), resolution)


def boundary_pushout_cover(space: Space, system: LatticeBallSystem, lam, A,
                           boundary_sample: list) -> Cover:
    """The orbit-ball cover pushed out to the boundary at scale lam, from
    `LatticeBallSystem.incidences` of the basepoint rays' points at time
    1/lam: a boundary point joins the set of a ball V iff its ray sits in
    V at that time.  One set per ball meeting the sample, by increasing
    center key.  The ray points are `spaces.ray_point`'s, at
    t = 1/Fraction(lam) on a tree (`Space.pushout_points`)."""
    if lam <= 0:
        raise ValueError("scale must be positive")
    if system.R <= A:
        raise ValueError("pushout needs ball parameter R > A")
    _check_kind(system.space, space.basepoint, *boundary_sample)
    n = len(boundary_sample)
    keys, set_of, point_of = system.incidences(space.pushout_points(lam, boundary_sample))
    if not np.bincount(point_of, minlength=n).all():
        raise ValueError("pushout cover failed to cover the boundary sample")
    return Cover(n, set_of, point_of, (None,) * len(keys),
                 (f"pushout lam={float(lam):g} center=(", *space.center_parts(keys)))


# ---------------------------------------------------------------------------
# colored boundary covers


def _arcs(metric: SampleMetric, ranks: np.ndarray, radius: float, width: int = 4) -> tuple:
    """(back, ahead): for the sample point at each of `ranks` in the
    boundary order, how many consecutive points before it and after it are
    within open distance `radius`, each counted by walking outward from the
    point to the first that is not, or to the end of the line.  On the
    circle a ball whose walks meet is the whole circle, (0, n - 1).  Every
    walk reads a block of `width` steps per `dist` call, the blocks
    doubling."""
    n, order = metric.n, metric.order
    m = len(ranks)
    start = np.concatenate([ranks, ranks])
    sign = np.repeat([-1, 1], m)
    cap = (np.concatenate([ranks, n - 1 - ranks]) if metric.turn is None
           else np.full(2 * m, n - 1))
    reach = np.zeros(2 * m, dtype=np.int64)
    live = np.flatnonzero(cap > 0)
    while live.size:
        steps = reach[live, None] + np.arange(1, width + 1)
        valid = steps <= cap[live, None]
        pos = (start[live, None] + sign[live, None] * steps)[valid] % n
        inside = np.zeros(steps.shape, dtype=bool)
        inside[valid] = metric.dist(np.repeat(order[start[live]], width)[valid.ravel()],
                                    order[pos]) < radius
        count = np.where(inside.all(axis=1), width, inside.argmin(axis=1))
        reach[live] += count
        live = live[(count == width) & (reach[live] < cap[live])]
        width *= 2
    back, ahead = reach[:m], reach[m:]
    if metric.turn is not None:
        whole = back + ahead >= n - 1
        back[whole], ahead[whole] = 0, n - 1
    return back, ahead


def _greedy_net(metric: SampleMetric, lam: float, radius: float, rng) -> Cover:
    """Greedy maximal lam-separated net of the sample, scanned in `rng`'s
    permutation order: a point joins the net unless the open lam-ball of an
    earlier net point holds it.  Returns the cover by the open radius-balls
    around the net, one set per center by increasing center.

    With a boundary order each ball is the arc that `_arcs` walks out.
    The scan takes the next unblocked points a batch at a time, walks out
    all their balls at once, and then admits them one by one.  After a
    first batch of 8, at the mean ball size s so far, a batch holds 4/s
    times the unblocked points, and at least _CHUNK/(8 s) points, rounded
    up, and its walks start with blocks of s steps.  Without an order each
    ball is read from the center's full row (`SampleMetric.rows`)."""
    n = metric.n
    scan = rng.permutation(n)
    if metric.order is None:
        return _row_net(metric, scan, lam, radius)
    order, rank = metric.order, _ranks(metric.order)
    scan = rank[scan]
    # one byte per rank, set once the rank is blocked
    blocked = bytearray(n)
    flags = np.frombuffer(blocked, dtype=np.uint8)
    ones = bytes([1]) * n
    arcs = []
    at, batch, width, covered = 0, 8, 4, 0
    while True:
        free = at + np.flatnonzero(flags[scan[at:]] == 0)
        if not free.size:
            break
        take = free[:batch]
        back, ahead = _arcs(metric, scan[take], lam, width)
        for p, b, a in zip(scan[take].tolist(), back.tolist(), ahead.tolist()):
            if not blocked[p]:
                arcs.append((p, b, a))
                lo, hi = p - b, p + a + 1
                if lo < 0:
                    blocked[lo:] = ones[:-lo]
                    lo = 0
                if hi > n:
                    blocked[:hi - n] = ones[:hi - n]
                    hi = n
                blocked[lo:hi] = ones[:hi - lo]
                covered += b + a + 1
        at = int(take[-1]) + 1
        width = max(4, covered // len(arcs))
        # a ceiling: a batch holds a point however large the balls grow
        batch = -(-max(4 * len(arcs) * (n - int(flags.sum())), (_CHUNK >> 3) * len(arcs))
                  // covered)
    ranks, back, ahead = np.array(arcs, dtype=np.int64).T
    by_center = np.argsort(order[ranks])
    ranks, back, ahead = ranks[by_center], back[by_center], ahead[by_center]
    if radius != lam:
        back, ahead = _arcs(metric, ranks, radius)
    size = back + ahead + 1
    set_of = np.repeat(np.arange(len(ranks)), size)
    step = np.arange(len(set_of)) - np.repeat(np.cumsum(size) - size, size)
    point_of = order[(np.repeat(ranks - back, size) + step) % n]
    return Cover(n, set_of, point_of[np.lexsort((point_of, set_of))], (None,) * len(ranks))


def _row_net(metric: SampleMetric, scan: np.ndarray, lam: float, radius: float) -> Cover:
    """`_greedy_net` from full rows (`SampleMetric.rows`): one per scanned
    center, then the radius-balls in blocks of about _CHUNK distances."""
    n = metric.n
    blocked = np.zeros(n, dtype=bool)
    centers = []
    for i in scan.tolist():
        if not blocked[i]:
            centers.append(i)
            blocked |= metric.rows([i])[0] < lam
    centers.sort()
    step = max(1, _CHUNK // n)
    hits = [np.zeros((2, 0), dtype=np.intp)]
    for lo in range(0, len(centers), step):
        hit = np.array(np.nonzero(metric.rows(centers[lo:lo + step]) < radius))
        hit[0] += lo
        hits.append(hit)
    set_of, point_of = np.concatenate(hits, axis=1)
    return Cover(n, set_of, point_of, (None,) * len(centers))


def colored_boundary_cover(space: Space, lam, boundary_sample: list) -> Cover:
    """Boundary cover at scale lam whose color classes are lam/2-separated:
    disjoint cylinders of one color on a tree, two colors of alternating
    arcs on the circle.  Any other space, or a circle scale too coarse for
    four arcs, raises ValueError."""
    if lam <= 0:
        raise ValueError("scale must be positive")
    _check_kind(space, *boundary_sample)
    return space.colored_cover(lam, boundary_sample)


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


@dataclass(frozen=True, eq=False)
class RayPoints:
    """Points on the basepoint rays toward a boundary sample: point m lies at
    radius num[m] / den on the ray toward the boundary point ray[m], with
    int64 arrays ray and 0 <= num < 2^53 (so that num / den in floats rounds
    as the float of the Fraction does), and an int den > 0."""

    ray: np.ndarray
    num: np.ndarray
    den: int


def sample_ray_points(boundary_sample: list, r_max, n: int, seed: int) -> RayPoints:
    """n points with dyadic radii in [0, r_max), in eighths, on rays toward
    drawn boundary indices: the interior sample for the annular pushin."""
    top = int(Fraction(r_max) * 8)
    # one call, index and radius draws alternating, as per-pair calls draw them
    draws = substream(seed, "ray-points").integers(0, [len(boundary_sample), top] * n)
    return RayPoints(draws[::2].astype(np.int64), draws[1::2].astype(np.int64), 8)


def annular_pushin_cover(space: Space, schedule: ScaleSchedule,
                         colored_covers: dict, boundary_sample: list,
                         interior_sample: RayPoints):
    """Tube cover of the interior sample of a tree: for each scale k and
    each colored boundary set U, the band kR < r < (k+2)R of rays landing
    in U, plus the base ball B(x0, 2R).  Returns (cover, claims).

    The radii of the `RayPoints` interior sample are tested against the
    bands in integers.  Everything is read from one branch table B of the
    basepoint rays, with +inf on its diagonal: the ray toward j passes the
    point at radius r on the ray toward i iff B[i, j] >= ceil(r).  Raises
    ValueError on a non-tree space."""
    if space.kind != TREE:
        raise ValueError("the annular pushin is built on tree spaces only")
    R, K = schedule.R, schedule.K
    for k in range(1, K + 1):
        if k not in colored_covers:
            raise ValueError(f"missing colored cover for scale k={k}")
    B = pair_table(len(boundary_sample), pair_kernel(space, boundary_sample), math.inf)
    rays, num, den = interior_sample.ray, interior_sample.num, interior_sample.den
    reach = B[rays] >= (-(-num // den)).astype(float)[:, None]

    m = len(rays)
    # one tube per colored set U with members, by scale and then by U:
    # the in-band points whose ray reaches a member of U
    set_parts, point_parts, colors, used_sets = [], [], [], []
    scale_covers = [colored_covers[k] for k in range(1, K + 1)]
    for k, boundary in enumerate(scale_covers, 1):
        lo, hi = k * R, (k + 2) * R
        band = np.flatnonzero((lo * den < num) & (num < hi * den))
        p, inc = np.nonzero(reach[band][:, boundary.point_of])
        hit = np.zeros((len(boundary.colors), m), dtype=bool)
        hit[boundary.set_of[inc], band[p]] = True
        used = np.flatnonzero(hit.any(axis=1))
        tube, points = np.nonzero(hit[used])
        set_parts.append(tube + len(colors))
        point_parts.append(points)
        colors += [boundary.colors[s] for s in used.tolist()]
        used_sets.append(used)
    base = np.flatnonzero(num < 2 * R * den)
    set_parts.append(np.full(len(base), len(colors)))
    point_parts.append(base)
    colors.append(None)
    set_scale = np.append(np.repeat(np.arange(1, K + 1), [len(u) for u in used_sets]), 0)

    # "tube k={k} of [{U's text}]" and "base ball radius={2R}"; part p of
    # U's text is gathered from part p of each scale's cover into one part:
    # the scales' texts one after the other, each tube's codes shifted past
    # those of the scales before its own, -1 filling the rows to the widest
    heads = tuple(f"tube k={k} of [" for k in range(1, K + 1)) + (f"base ball radius={2 * R}",)
    descriptor = [(heads, np.where(set_scale > 0, set_scale - 1, K))]
    for p in range(max((len(c.descriptor) for c in scale_covers), default=0)):
        texts, rows = (), []
        for boundary, used in zip(scale_covers, used_sets):
            t, codes = (boundary.descriptor[p] if p < len(boundary.descriptor)
                        else ((), np.full(len(boundary.colors), -1)))
            codes = (codes[:, None] if codes.ndim == 1 else codes)[used].astype(np.int64)
            rows.append(np.where(codes >= 0, codes + len(texts), -1))
            texts += t
        width = max(r.shape[1] for r in rows)
        rows = [np.hstack([r, np.full((len(r), width - r.shape[1]), -1)]) for r in rows]
        descriptor.append((texts, np.concatenate(rows + [np.full((1, width), -1)])))
    descriptor.append((("]",), np.where(set_scale > 0, 0, -1)))
    cover = Cover(m, np.concatenate(set_parts), np.concatenate(point_parts), colors,
                  tuple(descriptor))
    # num < 2^53: int64 / int rounds as float of a Fraction does
    claims = _pushin_claims(cover, set_scale, schedule, num / den, rays, B)
    return cover, claims


def _pushin_claims(cover, set_scale, schedule, radii, rays, B):
    """The pushin claims, given each set's scale k (0 for the base ball),
    with the tube mesh read from the branch table B (+inf diagonal): points
    at float radii r_a, r_b (an array `radii`) on the rays toward i_a, i_b
    (`rays`) are r_a + r_b - 2 min(r_a, r_b, B[i_a, i_b]) apart, exact for
    dyadic radii.  The mesh is the largest of these over the ordered pairs
    (a, b) of members of each tube, gathered flat, all tubes at once."""
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
    decay = np.array([2.0 * math.exp(-r) for r in radii.tolist()])
    half_lam = np.array([schedule.lam(k) / 2.0 for k in set_scale.tolist()])
    point_ok = bool((decay[point_of[tube]] < half_lam[set_of[tube]]).all())
    # Claim 3: tube mesh bound
    mesh_bound = 4.0 * c * math.exp(2 * R) + 2 * R
    tubes = np.flatnonzero(set_scale)
    first, size = cover.bounds[tubes], np.diff(cover.bounds)[tubes]
    pairs = size * size
    t = np.repeat(np.arange(len(tubes)), pairs)
    k = np.arange(len(t)) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    a, b = point_of[first[t] + k // size[t]], point_of[first[t] + k % size[t]]
    shared = np.minimum(np.minimum(radii[a], radii[b]), B[rays[a], rays[b]])
    tube_mesh = float((radii[a] + radii[b] - 2.0 * shared).max(initial=0.0))
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


def ell_dim_estimate(metric: SampleMetric, scales: list, c: float, seed: int = 0):
    """At each scale: greedy maximal lam-separated net of the sample that
    `metric` measures (seeded scan order, `_greedy_net`), cover by open
    lam-balls around the net, measured order (`cover_stats`); a scale
    passes when the mesh is at most c lam.  On a sample with a boundary
    order no n x n table is built: time O(n log n + incidences) and memory
    O(n) per scale, the balls and verdicts equal to the full-row ones up to
    the near-ties that `SampleMetric` names.
    Returns (rows, estimate) with estimate = max order - 1."""
    if c < 1:
        raise ValueError("need c >= 1")
    if not scales or any(lam <= 0 for lam in scales):
        raise ValueError("need at least one scale, each positive")
    rows = []
    for lam in map(float, scales):
        cover = _greedy_net(metric, lam, lam, substream(seed, f"net-{lam:.12g}"))
        rows.append(ScaleRow.judge(lam, cover_stats(cover, metric), c * lam, 0.0, math.inf))
    return rows, max(r.order for r in rows) - 1
