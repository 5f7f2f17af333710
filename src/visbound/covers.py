"""Cover constructions and measured cover statistics: lattice ball systems
of the space, their pushout to boundary covers, colored boundary covers of
trees and the circle, annular tube covers pushed back into a tree, and a
greedy-net dimension estimate over sampled metric data."""

from __future__ import annotations

import collections
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metrics import _wrapped_gap, pair_invariants
from .spaces import (
    EUCLIDEAN,
    HYPERBOLIC,
    TREE,
    EuclideanPoint,
    Point,
    Ray,
    Space,
    TreePoint,
    dist,
    ray_point,
    substream,
)

# membership and distance entries per block of cover_stats (its transient
# memory is O(chunk))
_CHUNK = 1 << 15


@dataclass(frozen=True)
class CoverSet:
    members: tuple
    color: object = None
    descriptor: str = ""


@dataclass
class Cover:
    """Finite cover of a sampled ground set; sets hold ground indices."""

    ground: list
    sets: list

    def covers_ground(self) -> bool:
        hit = set()
        for s in self.sets:
            hit.update(s.members)
        return hit >= set(range(len(self.ground)))

    def membership(self) -> np.ndarray:
        """Boolean set-by-point matrix: M[s, i] iff ground point i is in set s."""
        return _membership([s.members for s in self.sets], len(self.ground))[0]


def _membership(member_lists: list, n: int) -> tuple:
    """(M, set_of, point_of): the boolean membership matrix of the member
    lists over n points, and its (set, point) pairs sorted by point and
    then by set."""
    sizes = [len(m) for m in member_lists]
    points = np.fromiter(itertools.chain.from_iterable(member_lists), dtype=np.int64,
                         count=sum(sizes))
    if points.size and (points.min() < 0 or points.max() >= n):
        raise ValueError(f"cover member index outside [0, {n})")
    sets = np.repeat(np.arange(len(sizes)), sizes)
    M = np.zeros((len(sizes), n), dtype=bool)
    M[sets, points] = True
    by_point = np.argsort(points, kind="stable")
    return M, sets[by_point], points[by_point]


@dataclass(frozen=True)
class CoverStats:
    order: int
    mesh: float
    lebesgue: float     # math.inf sentinel when some set swallows the sample


def cover_stats(cover: Cover, matrix: np.ndarray) -> CoverStats:
    """Order, mesh, and Lebesgue number of the cover measured against its
    own ground sample, whose pairwise distances are `matrix`.

    The (set, point) incidences, sorted by point, are read in blocks of
    about _CHUNK matrix entries.  An incidence's mesh candidate is the
    largest distance from its point into its set, and its Lebesgue
    candidate the smallest distance from its point out of the set; a
    point's Lebesgue candidate is the largest of its incidences'."""
    if not cover.sets:
        raise ValueError("empty cover")
    n = len(cover.ground)
    matrix = np.asarray(matrix)
    if matrix.shape != (n, n):
        raise ValueError(f"distance matrix has shape {matrix.shape}, not ({n}, {n})")
    # identical sets give identical mesh and Lebesgue candidates, so the
    # matrix holds each distinct set once and the order counts repeats
    repeats = collections.Counter(frozenset(s.members) for s in cover.sets)
    M, set_of, point_of = _membership(list(repeats), n)
    counts = np.array(list(repeats.values())) @ M     # column sums, with repeats
    if counts.min() < 1:
        raise ValueError("ground point left uncovered")
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


# ---------------------------------------------------------------------------
# lattice / vertex-orbit ball systems


def _inside(space: Space, P, C, rad: float) -> np.ndarray:
    """dist(P, C) < rad elementwise over broadcast rows of coordinates, in
    the order of `spaces.dist`: difference, square, sum left to right from
    0, square root, strict comparison.  numpy squares by d * d and
    `spaces.dist` by the libm pow, which can differ in the last bit, so the
    few pairs within a relative 1e-12 of the sphere are decided by
    `spaces.dist` itself."""
    P, C = np.broadcast_arrays(P, C)
    sq = 0
    for i in range(P.shape[-1]):
        d = P[..., i] - C[..., i]
        sq = sq + d * d
    r = np.sqrt(sq)
    inside = r < rad
    for idx in zip(*np.nonzero(np.abs(r - rad) <= 1e-12 * rad)):
        p, c = (EuclideanPoint(tuple(X[idx].tolist())) for X in (P, C))
        inside[idx] = dist(space, p, c) < rad
    return inside


def _tree_levels(head: tuple, levels: int, k: int) -> list:
    """Words of the first `levels` levels of the subtree of T_k at the
    non-root vertex `head`."""
    if levels <= 0:
        return []
    out, level = [], [head]
    for _ in range(levels - 1):
        out += level
        level = [w + (a,) for w in level for a in range(k - 1)]
    return out + level


@dataclass(frozen=True)
class LatticeBallSystem:
    """Open balls of radius 2R around the unit integer lattice (Euclidean)
    or around every vertex (tree).  Centers are enumerated locally near a
    query point, never globally, and named by their keys: integer
    coordinate tuples or vertex words."""

    space: Space
    R: object

    def __post_init__(self):
        if self.R <= 0:
            raise ValueError("ball system needs R > 0")
        if self.space.kind == HYPERBOLIC:
            raise ValueError("no lattice orbit is provided on the hyperbolic plane")

    @property
    def radius(self):
        return 2 * self.R

    @functools.cached_property
    def stencil(self) -> np.ndarray:
        """Euclidean lattice offsets o, in lexicographic order, whose ball
        around floor(p) + o can hold a point p: the gap between o and the
        unit cube [0, 1]^n is shorter than 2R + 1e-9.  A center off the
        stencil is farther from p than that, beyond any rounding of
        `spaces.dist`."""
        rad = Fraction(float(self.radius)) + Fraction(1, 10 ** 9)
        reach = math.ceil(rad)
        offsets = [o for o in itertools.product(range(-reach, reach + 2), repeat=self.space.dim)
                   if sum(max(-a, a - 1, 0) ** 2 for a in o) < rad * rad]
        return np.array(offsets, dtype=np.int64)

    def _tree_ball(self, p: TreePoint) -> list:
        """Vertex words within open distance 2R of p, by integer depth
        budgets: walk up the ancestors of p while they are inside, and take
        from each the levels of its other branches that stay inside.  The
        budgets are exact ceilings, so a rational offset and a non-integer
        R are handled exactly."""
        k = self.space.valence
        rad = Fraction(self.radius)
        w = p.word
        if p.is_vertex:
            up, skip, out = w, None, []
            budget = math.ceil(rad)
        else:
            # the far end w of p's edge is 1 - offset away
            up, skip = w[:-1], w[-1]
            out = _tree_levels(w, math.ceil(rad + p.offset) - 1, k)
            budget = math.ceil(rad - p.offset)
        # the ancestor i steps up is inside iff i < budget
        for i in range(min(budget, len(up) + 1)):
            a = up[:len(up) - i]
            out.append(a)
            for c in range(k if not a else k - 1):
                if c != skip:
                    out += _tree_levels(a + (c,), budget - i - 1, k)
            skip = a[-1] if a else None
        return out

    def center_keys(self, points: list) -> list:
        """For each point, the keys of all orbit centers whose open 2R-ball
        contains it (Euclidean keys in lexicographic order)."""
        if self.space.kind == TREE:
            return [self._tree_ball(p) for p in points]
        P = np.array([p.coords for p in points], dtype=float).reshape(len(points), self.space.dim)
        base = np.floor(P)
        hit = _inside(self.space, P[:, None, :], base[:, None, :] + self.stencil,
                      float(self.radius))
        keys = base.astype(np.int64)[:, None, :] + self.stencil
        return [list(map(tuple, keys[i][hit[i]].tolist())) for i in range(len(points))]

    def centers_near(self, p: Point) -> list:
        """All orbit centers whose open 2R-ball contains p."""
        [keys] = self.center_keys([p])
        if self.space.kind == TREE:
            return [TreePoint(key) for key in keys]
        return [EuclideanPoint(tuple(float(v) for v in key)) for key in keys]


def _ball_sets(system: LatticeBallSystem, points: list, label: str) -> list:
    """One set per orbit ball meeting `points`, by increasing center key."""
    by_center = {}
    for i, keys in enumerate(system.center_keys(points)):
        for key in keys:
            by_center.setdefault(key, []).append(i)
    return [CoverSet(tuple(members), None, f"{label} center={key}")
            for key, members in sorted(by_center.items())]


def orbit_ball_order(space: Space, R, resolution: int = 48) -> int:
    """Global order of the orbit 2R-ball system.  Multiplicity is periodic
    under the orbit, so a grid over one fundamental domain (Euclidean) or
    one deep edge (tree) finds the exact maximum up to grid resolution.
    The Euclidean grid is counted in one pass per stencil offset."""
    system = LatticeBallSystem(space, R)
    if space.kind == EUCLIDEAN:
        axis = np.arange(resolution) / resolution
        grid = np.stack(np.meshgrid(*[axis] * space.dim, indexing="ij"), axis=-1)
        counts = np.zeros(grid.shape[:-1], dtype=np.int64)
        for o in system.stencil:
            counts += _inside(space, grid, o, float(system.radius))
        return int(counts.max())
    deep = tuple([0] + [1, 0] * (int(2 * R) + 2))
    edge = [TreePoint(deep, Fraction(num, 16)) for num in range(16)]
    return max(len(keys) for keys in system.center_keys(edge))


# ---------------------------------------------------------------------------
# boundary pushout


def boundary_pushout_cover(space: Space, system: LatticeBallSystem, lam, A,
                           boundary_sample: list) -> Cover:
    """Push the orbit-ball cover out to the boundary at scale lam: a
    boundary point joins the set of a ball V iff its basepoint ray sits in
    V at time 1/lam."""
    if system.R <= A:
        raise ValueError("pushout needs ball parameter R > A")
    t = 1 / Fraction(lam) if space.kind == TREE else 1.0 / float(lam)
    points = [ray_point(Ray(space, space.basepoint, xi), t) for xi in boundary_sample]
    sets = _ball_sets(system, points, f"pushout lam={float(lam):g}")
    cover = Cover(ground=list(boundary_sample), sets=sets)
    if not cover.covers_ground():
        raise ValueError("pushout cover failed to cover the boundary sample")
    return cover


# ---------------------------------------------------------------------------
# colored boundary covers


def _tree_cylinder_cover(lam, boundary_sample: list) -> Cover:
    depth = max(1, math.ceil(math.log(4.0 / float(lam)) - 1e-9))
    by_prefix = {}
    for i, xi in enumerate(boundary_sample):
        by_prefix.setdefault(xi.prefix(depth), []).append(i)
    sets = [CoverSet(tuple(members), 0, f"cylinder depth={depth} word={w}")
            for w, members in sorted(by_prefix.items())]
    return Cover(ground=list(boundary_sample), sets=sets)


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
    sets = []
    for j in range(N):
        center = j * spacing
        members = np.flatnonzero(_wrapped_gap(phi, center) <= half).tolist()
        sets.append(CoverSet(tuple(members), j % 2, f"arc j={j} center={center:.6f} half={half:.6f}"))
    return Cover(ground=list(boundary_sample), sets=sets)


def _greedy_net(matrix: np.ndarray, lam: float, radius: float, rng) -> list:
    """Greedy maximal lam-separated net over the rows of `matrix`, scanned in
    `rng`'s permutation order; returns (center, members of its open
    radius-ball) by increasing center."""
    n = matrix.shape[0]
    blocked = np.zeros(n, dtype=bool)
    centers = []
    for i in rng.permutation(n):
        if not blocked[i]:
            centers.append(int(i))
            blocked |= matrix[:, i] < lam
    return [(c, tuple(np.flatnonzero(matrix[:, c] < radius).tolist())) for c in sorted(centers)]


def colored_boundary_cover(space: Space, lam, boundary_sample: list) -> Cover:
    """Boundary cover at scale lam whose color classes are lam/2-separated:
    disjoint cylinders of one color on a tree, two colors of alternating
    arcs on the circle.  Any other space, or a circle scale too coarse for
    four arcs, raises ValueError."""
    if lam <= 0:
        raise ValueError("scale must be positive")
    if space.kind == TREE:
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


def sample_ray_points(space: Space, boundary_sample: list, r_max, n: int,
                      seed: int) -> list:
    """(boundary index, radius) pairs with dyadic radii in [0, r_max);
    the interior sample for the annular pushin."""
    rng = substream(seed, "ray-points")
    out = []
    denom = 8
    top = int(Fraction(r_max) * denom)
    for _ in range(n):
        i = int(rng.integers(0, len(boundary_sample)))
        r = Fraction(int(rng.integers(0, top)), denom)
        out.append((i, r))
    return out


def annular_pushin_cover(space: Space, schedule: ScaleSchedule,
                         colored_covers: dict, boundary_sample: list,
                         interior_sample: list):
    """Tube cover of the interior sample of a tree: for each scale k and
    each colored boundary set U, the band kR < r < (k+2)R of rays landing
    in U, plus the base ball B(x0, 2R).  Returns (cover, claims).

    interior_sample entries are (boundary index, radius) pairs.  Everything
    is read from one branch table B of the basepoint rays, with +inf on its
    diagonal: the ray toward j passes the point at radius r on the ray
    toward i iff B[i, j] >= ceil(r).  Raises ValueError on a non-tree
    space."""
    if space.kind != TREE:
        raise ValueError("the annular pushin is built on tree spaces only")
    R, K, c = schedule.R, schedule.K, schedule.c
    for k in range(1, K + 1):
        if k not in colored_covers:
            raise ValueError(f"missing colored cover for scale k={k}")
    I, J = np.triu_indices(len(boundary_sample), k=1)
    B = np.full((len(boundary_sample),) * 2, math.inf)
    B[I, J] = B[J, I] = pair_invariants(space, boundary_sample, I, J)
    rays = np.array([i for i, _ in interior_sample], dtype=np.int64)
    ceil_r = np.array([math.ceil(r) for _, r in interior_sample], dtype=float)
    reach = (B[rays] >= ceil_r[:, None]).astype(float)

    ground = [ray_point(Ray(space, space.basepoint, boundary_sample[i]), r)
              for i, r in interior_sample]
    sets = []
    set_scale = []
    for k in range(1, K + 1):
        lo, hi = k * R, (k + 2) * R
        in_band = np.array([lo < r < hi for _, r in interior_sample], dtype=bool)
        hits = (reach @ colored_covers[k].membership().T > 0) & in_band[:, None]
        for s, hit in zip(colored_covers[k].sets, hits.T):
            members = np.flatnonzero(hit).tolist()
            if members:
                sets.append(CoverSet(tuple(members), s.color,
                                     f"tube k={k} of [{s.descriptor}]"))
                set_scale.append(k)
    base_members = tuple(idx for idx, (i, r) in enumerate(interior_sample)
                         if r < 2 * R)
    sets.append(CoverSet(base_members, None, f"base ball radius={2 * R}"))
    set_scale.append(0)
    cover = Cover(ground=ground, sets=sets)

    claims = _pushin_claims(cover, set_scale, schedule, interior_sample, rays, B)
    return cover, claims


def _pushin_claims(cover, set_scale, schedule, interior_sample, rays, B):
    """The pushin claims, with the tube mesh read from the branch table B
    (+inf diagonal): points at radii r_a, r_b on the rays toward i_a, i_b
    (`rays`) are r_a + r_b - 2 min(r_a, r_b, B[i_a, i_b]) apart, exactly in
    float for dyadic radii."""
    R, c = schedule.R, schedule.c
    M = cover.membership()
    tubes = [t for t, sc in enumerate(set_scale) if sc]
    # Claim 1: same-color tube sets at one scale share no sample point
    groups = {}
    for t in tubes:
        groups.setdefault((set_scale[t], cover.sets[t].color), []).append(t)
    color_ok = all(M[g].sum(axis=0).max(initial=0) <= 1 for g in groups.values())
    # per-point decay inequality 2 e^{-r} < lam_k / 2 inside scale-k tubes
    decay = np.array([2.0 * math.exp(-float(r)) for _, r in interior_sample])
    point_ok = all((decay[M[t]] < schedule.lam(set_scale[t]) / 2.0).all() for t in tubes)
    # Claim 3: tube mesh bound
    mesh_bound = 4.0 * c * math.exp(2 * R) + 2 * R
    radii = np.array([float(r) for _, r in interior_sample])
    tube_mesh = 0.0
    for t in tubes:
        members = np.flatnonzero(M[t])
        i, r = rays[members], radii[members]
        shared = np.minimum(np.minimum.outer(r, r), B[np.ix_(i, i)])
        tube_mesh = max(tube_mesh, float((r[:, None] + r[None, :] - 2.0 * shared).max()))
    counts = M.sum(axis=0)
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


@dataclass(frozen=True)
class ScaleRow:
    lam: float
    order: int
    mesh: float
    lebesgue: float
    bound_mesh: float
    bound_lebesgue: float
    passed: bool


def ell_dim_estimate(points: list, matrix: np.ndarray, scales: list, c: float,
                     seed: int = 0):
    """At each scale: greedy maximal lam-separated net (seeded scan order,
    ties by index), cover by open lam-balls around the net, measured order.
    Returns (rows, estimate) with estimate = max order - 1."""
    if c < 1:
        raise ValueError("need c >= 1")
    rows = []
    worst_order = 0
    for lam in scales:
        lamf = float(lam)
        net = _greedy_net(matrix, lamf, lamf, substream(seed, f"net-{lamf:.12g}"))
        sets = [CoverSet(members, None, f"net-ball center={cc}") for cc, members in net]
        cover = Cover(ground=list(points), sets=sets)
        stats = cover_stats(cover, matrix=matrix)
        bound_mesh = c * lamf
        row = ScaleRow(lam=lamf, order=stats.order, mesh=stats.mesh,
                       lebesgue=stats.lebesgue, bound_mesh=bound_mesh,
                       bound_lebesgue=0.0,
                       passed=stats.mesh <= bound_mesh * (1 + 1e-9))
        rows.append(row)
        worst_order = max(worst_order, stats.order)
    return rows, worst_order - 1
