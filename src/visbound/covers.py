"""Cover constructions and measured cover statistics: lattice ball covers
of the space, their pushout to boundary covers, colored boundary covers,
annular tube covers pushed back into the space, and a greedy-net dimension
estimate over sampled metric data."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .metrics import MetricSpec, pair_distance_matrix, tree_branch_matrix
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


# per-set frozen membership sets, built lazily on first stats pass
def _member_sets(cover: Cover):
    for s in cover.sets:
        if not hasattr(s, "member_set"):
            object.__setattr__(s, "member_set", frozenset(s.members))
    return [s.member_set for s in cover.sets]


@dataclass(frozen=True)
class CoverStats:
    order: int
    mesh: float
    lebesgue: float     # math.inf sentinel when some set swallows the sample


def cover_stats(cover: Cover, dist_fn=None, matrix=None,
                lebesgue_indices=None) -> CoverStats:
    """Order, mesh, and Lebesgue number of the cover measured against its
    own ground sample.  `matrix` is an optional precomputed pairwise
    distance matrix; `lebesgue_indices` restricts the Lebesgue minimum to a
    window-interior subset."""
    if not cover.sets:
        raise ValueError("empty cover")
    n = len(cover.ground)
    if matrix is None:
        matrix = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i, j] = matrix[j, i] = float(dist_fn(cover.ground[i], cover.ground[j]))
    msets = _member_sets(cover)
    counts = np.zeros(n, dtype=int)
    mesh = 0.0
    for ms in msets:
        idx = sorted(ms)
        counts[idx] += 1
        if len(idx) > 1:
            sub = matrix[np.ix_(idx, idx)]
            mesh = max(mesh, float(sub.max()))
    if counts.min() < 1:
        raise ValueError("ground point left uncovered")
    order = int(counts.max())
    which = range(n) if lebesgue_indices is None else lebesgue_indices
    lebesgue = math.inf
    full = set(range(n))
    for i in which:
        best = 0.0
        for ms in msets:
            if i not in ms:
                continue
            outside = full - ms
            if not outside:
                best = math.inf
                break
            best = max(best, float(matrix[i, sorted(outside)].min()))
        lebesgue = min(lebesgue, best)
        if lebesgue == 0.0:
            break
    return CoverStats(order=order, mesh=mesh, lebesgue=lebesgue)


# ---------------------------------------------------------------------------
# lattice / vertex-orbit ball systems


def _tree_vertex_neighbors(word: tuple, k: int):
    if word:
        yield word[:-1]
        for a in range(k - 1):
            yield word + (a,)
    else:
        for a in range(k):
            yield (a,)


@dataclass(frozen=True)
class LatticeBallSystem:
    """Open balls of radius 2R around the unit integer lattice (Euclidean)
    or around every vertex (tree).  Centers are enumerated lazily near a
    query point, never globally."""

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

    def centers_near(self, p: Point) -> list:
        """All orbit centers whose open 2R-ball contains p."""
        rad = self.radius
        if self.space.kind == EUCLIDEAN:
            lo = [math.floor(c - float(rad)) for c in p.coords]
            hi = [math.ceil(c + float(rad)) for c in p.coords]
            out = []
            def rec(i, partial):
                if i == len(lo):
                    c = EuclideanPoint(tuple(float(v) for v in partial))
                    if dist(self.space, p, c) < float(rad):
                        out.append(c)
                    return
                for v in range(lo[i], hi[i] + 1):
                    rec(i + 1, partial + [v])
            rec(0, [])
            return out
        # tree: BFS over the vertex graph from the floor vertex of p
        k = self.space.valence
        start = p.word if p.is_vertex else p.word[:-1]
        seen = {start}
        frontier = [start]
        out = []
        while frontier:
            nxt = []
            for w in frontier:
                v = TreePoint(w)
                d = dist(self.space, p, v)
                if d < rad:
                    out.append(v)
                if d <= rad:
                    for u in _tree_vertex_neighbors(w, k):
                        if u not in seen:
                            seen.add(u)
                            nxt.append(u)
            frontier = nxt
        return out

    def center_key(self, c: Point):
        if self.space.kind == EUCLIDEAN:
            return tuple(int(round(v)) for v in c.coords)
        return c.word


def sample_window_points(space: Space, window_radius, n: int, seed: int) -> list:
    """Interior sample in the ball of radius window_radius about the
    basepoint (exact dyadic offsets on trees)."""
    if n < 1:
        raise ValueError("window sample must be nonempty")
    rng = substream(seed, f"window-{space.kind}")
    out = []
    if space.kind == EUCLIDEAN:
        dim = space.dim
        wr = float(window_radius)
        while len(out) < n:
            v = rng.uniform(-wr, wr, size=dim)
            if float(np.linalg.norm(v)) <= wr:
                out.append(EuclideanPoint(tuple(float(c) for c in v)))
        return out
    if space.kind == TREE:
        k = space.valence
        max_depth = int(window_radius)
        for _ in range(n):
            depth = int(rng.integers(0, max_depth + 1))
            word = []
            for i in range(depth):
                hi = k if i == 0 else k - 1
                word.append(int(rng.integers(0, hi)))
            off = Fraction(int(rng.integers(0, 8)), 8)
            if off > 0 and depth < max_depth:
                hi = k if depth == 0 else k - 1
                word.append(int(rng.integers(0, hi)))
                out.append(TreePoint(tuple(word), off))
            else:
                out.append(TreePoint(tuple(word)))
        return out
    raise ValueError("window sampling is defined on euclidean and tree spaces")


def lattice_ball_cover(space: Space, R, window_radius, n_points: int, seed: int) -> Cover:
    """Cover of a window sample by the orbit 2R-balls.  Centers are drawn
    from a window padded by 2R so every ball meeting the sample is present."""
    system = LatticeBallSystem(space, R)
    ground = sample_window_points(space, window_radius, n_points, seed)
    by_center = {}
    for i, p in enumerate(ground):
        for c in system.centers_near(p):
            by_center.setdefault(system.center_key(c), []).append(i)
    sets = [CoverSet(tuple(members), None, f"ball r={float(2*R):g} center={key}")
            for key, members in sorted(by_center.items())]
    cover = Cover(ground=ground, sets=sets)
    if not cover.covers_ground():
        raise ValueError("orbit balls failed to cover the window sample")
    return cover


def orbit_ball_order(space: Space, R, resolution: int = 48) -> int:
    """Global order of the orbit 2R-ball system.  Multiplicity is periodic
    under the orbit, so a grid over one fundamental domain (Euclidean) or
    one deep edge (tree) finds the exact maximum up to grid resolution."""
    system = LatticeBallSystem(space, R)
    if space.kind == EUCLIDEAN:
        best = 0
        n = space.dim
        def rec(i, partial):
            nonlocal best
            if i == n:
                p = EuclideanPoint(tuple(partial))
                best = max(best, len(system.centers_near(p)))
                return
            for j in range(resolution):
                rec(i + 1, partial + [j / resolution])
        rec(0, [])
        return best
    deep = tuple([0] + [1, 0] * (int(2 * R) + 2))
    best = 0
    for num in range(16):
        off = Fraction(num, 16)
        p = TreePoint(deep, off) if off > 0 else TreePoint(deep)
        best = max(best, len(system.centers_near(p)))
    return best


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
    by_center = {}
    for i, xi in enumerate(boundary_sample):
        p = ray_point(Ray(space, space.basepoint, xi), t)
        for c in system.centers_near(p):
            by_center.setdefault(system.center_key(c), []).append(i)
    sets = [CoverSet(tuple(members), None, f"pushout lam={float(lam):g} center={key}")
            for key, members in sorted(by_center.items())]
    cover = Cover(ground=list(boundary_sample), sets=sets)
    if not cover.covers_ground():
        raise ValueError("pushout cover failed to cover the boundary sample")
    return cover


# ---------------------------------------------------------------------------
# colored boundary covers


def _tree_cylinder_cover(space: Space, lam, boundary_sample: list) -> Cover:
    depth = max(1, math.ceil(math.log(4.0 / float(lam)) - 1e-9))
    by_prefix = {}
    for i, xi in enumerate(boundary_sample):
        by_prefix.setdefault(xi.prefix(depth), []).append(i)
    sets = [CoverSet(tuple(members), 0, f"cylinder depth={depth} word={w}")
            for w, members in sorted(by_prefix.items())]
    return Cover(ground=list(boundary_sample), sets=sets)


def _circle_arc_cover(space: Space, lam, boundary_sample: list) -> Cover | None:
    """Two alternating colors of overlapping arcs; same-color arcs stay a
    chordal gap >= lam/2 apart, arc diameter <= ~5 lam."""
    lamf = float(lam)
    if lamf >= 4.0 * math.sin(math.pi / 8):
        return None
    theta = 4.0 * math.asin(min(1.0, lamf / 4.0))
    N = 2 * int(math.floor(math.pi / theta))
    if N < 4:
        return None
    spacing = 2 * math.pi / N
    half = 0.75 * spacing
    sets = []
    for j in range(N):
        center = j * spacing
        members = []
        for i, xi in enumerate(boundary_sample):
            phi = math.atan2(xi.direction[1], xi.direction[0]) % (2 * math.pi)
            delta = abs(phi - center) % (2 * math.pi)
            if min(delta, 2 * math.pi - delta) <= half:
                members.append(i)
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


def _greedy_net_cover(matrix: np.ndarray, lam: float, boundary_sample: list,
                      seed: int) -> Cover:
    radius = 2.0 * lam
    sets = [CoverSet(members, None, f"net-ball center={c} radius={radius:.6g}")
            for c, members in _greedy_net(matrix, lam, radius, substream(seed, "net-cover"))]
    # greedy-color the intersection graph
    colored = []
    assigned = []
    for s in sets:
        used = {col for t, col in colored if set(s.members) & set(t.members)}
        col = 0
        while col in used:
            col += 1
        colored.append((s, col))
        assigned.append(CoverSet(s.members, col, s.descriptor))
    return Cover(ground=list(boundary_sample), sets=assigned)


def colored_boundary_cover(space: Space, lam, boundary_sample: list,
                           metric_spec: MetricSpec | None = None,
                           seed: int = 0) -> Cover:
    """Boundary cover at scale lam whose color classes are lam/2-separated.
    Trees get disjoint cylinders (one color); the circle gets two colors of
    alternating arcs; anything else a greedy net with greedy coloring."""
    if lam <= 0:
        raise ValueError("scale must be positive")
    if space.kind == TREE:
        return _tree_cylinder_cover(space, lam, boundary_sample)
    if space.kind == EUCLIDEAN and space.dim == 2:
        cover = _circle_arc_cover(space, lam, boundary_sample)
        if cover is not None:
            return cover
    if metric_spec is None:
        raise ValueError("generic fallback needs a metric spec")
    matrix = pair_distance_matrix(space, metric_spec, boundary_sample)
    if float(lam) >= float(matrix.max()):
        return Cover(ground=list(boundary_sample),
                     sets=[CoverSet(tuple(range(len(boundary_sample))), 0, "whole-sample")])
    return _greedy_net_cover(matrix, float(lam), boundary_sample, seed)


# ---------------------------------------------------------------------------
# annular pushin


@dataclass(frozen=True)
class ScaleSchedule:
    """Geometric scale ladder lam_k = 4 e^{-kR}, k = 1..K."""

    R: int
    K: int
    c: float
    lam0: float = 4.0

    def __post_init__(self):
        if self.R <= 0 or self.K < 0 or self.c < 1:
            raise ValueError("need R > 0, K >= 0, c >= 1")
        if 4.0 / math.exp(self.R) >= self.lam0:
            raise ValueError("scale ladder must start below lam0")

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
                         interior_sample: list, tol: float = 1e-9):
    """Tube cover of the interior sample: for each scale k and each colored
    boundary set U, the band kR < r < (k+2)R of rays landing in U, plus the
    base ball B(x0, 2R).  Returns (cover, claims).

    interior_sample entries are (boundary index, radius) pairs; membership
    on trees is decided exactly by branch times."""
    R, K, c = schedule.R, schedule.K, schedule.c
    for k in range(1, K + 1):
        if k not in colored_covers:
            raise ValueError(f"missing colored cover for scale k={k}")
    if space.kind == TREE:
        B = tree_branch_matrix(space, boundary_sample).tolist()

        def on_ray_of(i, r, j):
            return j == i or B[i][j] >= r
    else:
        rays = [Ray(space, space.basepoint, xi) for xi in boundary_sample]

        def on_ray_of(i, r, j):
            if j == i:
                return True
            p = ray_point(rays[i], r)
            return dist(space, p, ray_point(rays[j], r)) <= tol

    ground = [ray_point(Ray(space, space.basepoint, boundary_sample[i]), r)
              for i, r in interior_sample]
    sets = []
    set_scale = []
    for k in range(1, K + 1):
        lo, hi = k * R, (k + 2) * R
        for s in colored_covers[k].sets:
            members = []
            for idx, (i, r) in enumerate(interior_sample):
                if not (lo < r < hi):
                    continue
                if any(on_ray_of(i, r, j) for j in s.members):
                    members.append(idx)
            if members:
                sets.append(CoverSet(tuple(members), s.color,
                                     f"tube k={k} of [{s.descriptor}]"))
                set_scale.append(k)
    base_members = tuple(idx for idx, (i, r) in enumerate(interior_sample)
                         if r < 2 * R)
    sets.append(CoverSet(base_members, None, f"base ball radius={2 * R}"))
    set_scale.append(0)
    cover = Cover(ground=ground, sets=sets)

    claims = _pushin_claims(space, cover, set_scale, schedule, interior_sample)
    return cover, claims


def _pushin_claims(space, cover, set_scale, schedule, interior_sample):
    R, K, c = schedule.R, schedule.K, schedule.c
    msets = _member_sets(cover)
    # Claim 1: same-color tube sets at one scale share no sample point
    color_ok = True
    for k in range(1, K + 1):
        by_color = {}
        for s, sc, ms in zip(cover.sets, set_scale, msets):
            if sc != k:
                continue
            if by_color.setdefault(s.color, set()) & ms:
                color_ok = False
            by_color[s.color] |= ms
    # per-point decay inequality 2 e^{-r} < lam_k / 2 inside scale-k tubes
    point_ok = True
    for sc, ms in zip(set_scale, msets):
        if sc == 0:
            continue
        lam_k = schedule.lam(sc)
        for idx in ms:
            r = float(interior_sample[idx][1])
            if not 2.0 * math.exp(-r) < lam_k / 2.0:
                point_ok = False
    # Claim 3: tube mesh bound
    mesh_bound = 4.0 * c * math.exp(2 * R) + 2 * R
    tube_mesh = 0.0
    for sc, ms in zip(set_scale, msets):
        if sc == 0 or len(ms) < 2:
            continue
        pts = [cover.ground[i] for i in sorted(ms)]
        for a in range(len(pts)):
            for b in range(a + 1, len(pts)):
                tube_mesh = max(tube_mesh, float(dist(space, pts[a], pts[b])))
    counts = [0] * len(cover.ground)
    for ms in msets:
        for i in ms:
            counts[i] += 1
    order = max(counts) if counts else 0
    return {
        "color_disjoint": color_ok,
        "per_point_decay": point_ok,
        "tube_mesh": tube_mesh,
        "mesh_bound": mesh_bound,
        "mesh_ok": tube_mesh <= mesh_bound,
        "order": order,
        "covers_ground": cover.covers_ground(),
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
