import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visbound import covers
from visbound.covers import (
    Cover,
    CoverSet,
    LatticeBallSystem,
    ScaleSchedule,
    annular_pushin_cover,
    boundary_pushout_cover,
    colored_boundary_cover,
    cover_stats,
    ell_dim_estimate,
    orbit_ball_order,
    sample_ray_points,
)
from visbound.metrics import MetricSpec, pair_distance_matrix, pair_invariants
from visbound.spaces import (
    EuclideanPoint,
    Ray,
    TreeBoundary,
    TreePoint,
    branch_time,
    dist,
    euclidean_space,
    hyperbolic_plane,
    ray_point,
    sample_boundary,
    tree_space,
)

T4 = tree_space(4)
E1 = euclidean_space(1)
E2 = euclidean_space(2)


def all_depth3_boundary_words():
    """One boundary point per depth-3 cylinder of T4 (4*3*3 = 36 words)."""
    out = []
    for a in range(4):
        for b in range(3):
            for c in range(3):
                out.append(TreeBoundary((a, b, c), ((c + 1) % 3,)))
    return out


def distance_matrix(ground, d):
    """Pairwise distances d(p, q) of the ground points, mirrored."""
    D = np.zeros((len(ground), len(ground)))
    for i, j in itertools.combinations(range(len(ground)), 2):
        D[i, j] = D[j, i] = float(d(ground[i], ground[j]))
    return D


class TestCoverStats:
    def test_single_set_sentinel(self):
        cover = Cover(ground=[0, 1, 2], sets=[CoverSet((0, 1, 2))])
        st = cover_stats(cover, distance_matrix(cover.ground, lambda p, q: abs(p - q)))
        assert st.order == 1 and st.lebesgue == math.inf and st.mesh == 2

    def test_partition_order_one(self):
        cover = Cover(ground=[0.0, 1.0, 5.0, 6.0],
                      sets=[CoverSet((0, 1)), CoverSet((2, 3))])
        st = cover_stats(cover, distance_matrix(cover.ground, lambda p, q: abs(p - q)))
        assert st.order == 1 and st.mesh == 1.0 and st.lebesgue == 4.0

    def test_uncovered_point_rejected(self):
        cover = Cover(ground=[0, 1], sets=[CoverSet((0,))])
        with pytest.raises(ValueError):
            cover_stats(cover, distance_matrix(cover.ground, lambda p, q: abs(p - q)))

    @pytest.mark.parametrize("matrix,sets,match", [
        (np.zeros((2, 3)), [(0, 1), (2,)], r"shape \(2, 3\), not \(3, 3\)"),
        (np.zeros((4, 4)), [(0, 1), (2,)], r"shape \(4, 4\), not \(3, 3\)"),
        (np.zeros((3, 3)), [(0, 1), (2, 3)], r"member index outside \[0, 3\)"),
        (np.zeros((3, 3)), [(-1, 0, 1), (2,)], r"member index outside \[0, 3\)"),
    ], ids=["2x3", "4x4", "member-n", "member-minus-1"])
    def test_bad_input_rejected(self, matrix, sets, match):
        cover = Cover(ground=[0.0, 1.0, 2.0], sets=[CoverSet(m) for m in sets])
        with pytest.raises(ValueError, match=match):
            cover_stats(cover, matrix)

    def test_depth1_cylinders_dbar(self):
        words = all_depth3_boundary_words()
        spec = MetricSpec("dbar")
        D = pair_distance_matrix(T4, spec, words)
        by_first = {}
        for i, w in enumerate(words):
            by_first.setdefault(w.letter(0), []).append(i)
        cover = Cover(ground=words, sets=[CoverSet(tuple(v)) for v in by_first.values()])
        st = cover_stats(cover, matrix=D)
        assert abs(st.mesh - 2 * math.exp(-1)) < 1e-12
        assert abs(st.lebesgue - 2.0) < 1e-12   # distinct first letters branch at 0


class TestLatticeBalls:
    def test_hyperbolic_rejected(self):
        with pytest.raises(ValueError):
            LatticeBallSystem(hyperbolic_plane(), 1)

    def test_centers_near_euclidean(self):
        sys_ = LatticeBallSystem(E1, 1)
        centers = sys_.centers_near(EuclideanPoint((0.5,)))
        keys = sorted(c.coords[0] for c in centers)
        assert keys == [-1.0, 0.0, 1.0, 2.0]    # open balls of radius 2

    def test_centers_near_tree_counts_ball(self):
        sys_ = LatticeBallSystem(T4, 1)
        centers = sys_.centers_near(TreePoint((0, 0)))
        # distance < 2 from a depth-2 vertex: itself, parent, 3 children,
        # grandparent excluded at exactly 2? no: dist = 2 not < 2
        words = {c.word for c in centers}
        assert (0, 0) in words and (0,) in words
        assert () not in words
        assert len([w for w in words if len(w) == 3]) == 3


class TestPushout:
    def test_R_must_exceed_A(self):
        sys_ = LatticeBallSystem(T4, 1)
        with pytest.raises(ValueError):
            boundary_pushout_cover(T4, sys_, Fraction(1, 2), 1, sample_boundary(T4, 10, 1))

    def test_bounds_across_scales(self):
        for space in (T4, E2):
            sys_ = LatticeBallSystem(space, 2)
            sample = sample_boundary(space, 150, 9)
            spec = MetricSpec("dA", A=1)
            D = pair_distance_matrix(space, spec, sample)
            order_v = orbit_ball_order(space, 2)
            for lam in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                cover = boundary_pushout_cover(space, sys_, lam, 1, sample)
                st = cover_stats(cover, matrix=D)
                assert st.order <= order_v
                assert st.lebesgue >= float(lam) * (1 - 1e-9)
                assert st.mesh <= 8 * float(lam) * (1 + 1e-9)

    def test_tree_membership_exact(self):
        # rays landing in the same radius-4 vertex ball branch late
        sys_ = LatticeBallSystem(T4, 2)
        sample = sample_boundary(T4, 60, 2)
        cover = boundary_pushout_cover(T4, sys_, Fraction(1, 4), 1, sample)
        for s in cover.sets:
            for i, j in itertools.combinations(s.members, 2):
                # separation f(4) < 8 means branch > 0
                assert branch_time(T4, sample[i], sample[j]) > 4 - 4
        assert cover.covers_ground()


class TestColoredCovers:
    def test_depth3_cylinder_count(self):
        lam = 4 * math.exp(-3)
        words = all_depth3_boundary_words()
        cover = colored_boundary_cover(T4, lam, words)
        assert len(cover.sets) == 36
        assert all(s.color == 0 for s in cover.sets)
        # distinct cylinders are at dbar distance >= 2 e^{-2} = lam/2 e
        D = pair_distance_matrix(T4, MetricSpec("dbar"), words)
        for s, t in itertools.combinations(cover.sets, 2):
            gap = min(D[i, j] for i in s.members for j in t.members)
            assert gap >= 2 * math.exp(-2) - 1e-12

    def test_cylinder_mesh_below_half_lambda(self):
        lam = 4 * math.exp(-3)
        sample = sample_boundary(T4, 200, 6)
        cover = colored_boundary_cover(T4, lam, sample)
        D = pair_distance_matrix(T4, MetricSpec("dbar"), sample)
        st = cover_stats(cover, matrix=D)
        assert st.mesh <= lam / 2 + 1e-12

    def test_circle_two_colors(self):
        sample = sample_boundary(E2, 400, 3)
        lam = 0.05
        cover = colored_boundary_cover(E2, lam, sample)
        assert {s.color for s in cover.sets} == {0, 1}
        assert cover.covers_ground()
        D = pair_distance_matrix(E2, MetricSpec("dA", A=1), sample)
        # same-color separation >= lam/2
        for s, t in itertools.combinations(cover.sets, 2):
            if s.color != t.color or not s.members or not t.members:
                continue
            gap = min(D[i, j] for i in s.members for j in t.members)
            assert gap >= lam / 2 - 1e-12

    @pytest.mark.parametrize("space, lam, reason", [
        (hyperbolic_plane(), 0.25, "trees and the circle only"),
        (euclidean_space(3), 0.25, "trees and the circle only"),
        (E2, 10.0, "too coarse for four arcs"),
    ], ids=["H2", "R3", "circle-coarse"])
    def test_other_spaces_and_coarse_circle_rejected(self, space, lam, reason):
        # trees get cylinders and the circle arcs; there is no generic
        # fallback that a metric could unlock
        sample = sample_boundary(space, 50, 3)
        with pytest.raises(ValueError, match=reason):
            colored_boundary_cover(space, lam, sample)


class TestPushin:
    def setup_method(self):
        self.sched = ScaleSchedule(R=2, K=3, c=1.0)
        self.sample = sample_boundary(T4, 60, 7)
        self.covers = {k: colored_boundary_cover(T4, self.sched.lam(k), self.sample)
                       for k in range(1, 4)}

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            ScaleSchedule(R=2, K=3, c=0.5)

    def test_missing_cover_rejected(self):
        interior = sample_ray_points(T4, self.sample, 10, 100, 1)
        with pytest.raises(ValueError):
            annular_pushin_cover(T4, self.sched, {1: self.covers[1]},
                                 self.sample, interior)

    def test_claims_on_tree(self):
        interior = sample_ray_points(T4, self.sample, 10, 600, 1)
        cover, claims = annular_pushin_cover(T4, self.sched, self.covers,
                                             self.sample, interior)
        assert claims["color_disjoint"]
        assert claims["per_point_decay"]
        assert claims["mesh_ok"]
        assert claims["covers_ground"]
        assert claims["order"] <= 2

    def test_trivial_schedule_base_ball_only(self):
        sched = ScaleSchedule(R=2, K=0, c=1.0)
        interior = [(0, Fraction(1, 2)), (1, Fraction(3))]
        cover, claims = annular_pushin_cover(T4, sched, {}, self.sample, interior)
        assert len(cover.sets) == 1 and claims["order"] == 1

    def test_overlap_band_multiplicity(self):
        # a point at radius strictly inside two consecutive bands can lie in
        # tubes of both scales
        interior = sample_ray_points(T4, self.sample, 10, 600, 1)
        cover, claims = annular_pushin_cover(T4, self.sched, self.covers,
                                             self.sample, interior)
        assert claims["order"] == 2


class TestEllDim:
    def test_single_point(self):
        rows, est = ell_dim_estimate([object()], np.zeros((1, 1)), [1.0], 4.0)
        assert est == 0

    def test_tree_dbar_order_one(self):
        sample = sample_boundary(T4, 300, 4)
        D = pair_distance_matrix(T4, MetricSpec("dbar"), sample)
        scales = [4 * math.exp(-k) for k in range(1, 7)]
        rows, est = ell_dim_estimate(sample, D, scales, 4.0, 2)
        assert [r.order for r in rows] == [1] * 6
        assert est == 0

    def test_circle_dA_order_two(self):
        sample = sample_boundary(E2, 900, 4)
        D = pair_distance_matrix(E2, MetricSpec("dA", A=1), sample)
        scales = [2.0 ** -k for k in range(1, 6)]
        rows, est = ell_dim_estimate(sample, D, scales, 4.0, 2)
        assert [r.order for r in rows] == [2] * 5
        assert est == 1

    def test_mesh_bound_recorded(self):
        sample = sample_boundary(E2, 200, 4)
        D = pair_distance_matrix(E2, MetricSpec("dA", A=1), sample)
        rows, _ = ell_dim_estimate(sample, D, [0.25], 4.0, 2)
        assert rows[0].passed and rows[0].mesh <= rows[0].bound_mesh


# ---------------------------------------------------------------------------
# the kernels against reference copies of the per-point loops they replaced


def _reference_centers_near(system, p):
    """Box scan (Euclidean) or BFS over the vertex graph (tree), testing
    every candidate with `spaces.dist`."""
    space, rad = system.space, system.radius
    if space.kind == "euclidean":
        ranges = [range(math.floor(c - float(rad)), math.ceil(c + float(rad)) + 1)
                  for c in p.coords]
        return [EuclideanPoint(tuple(float(v) for v in cand))
                for cand in itertools.product(*ranges)
                if dist(space, p, EuclideanPoint(tuple(float(v) for v in cand))) < float(rad)]
    k = space.valence
    start = p.word if p.is_vertex else p.word[:-1]
    seen, frontier, out = {start}, [start], []
    while frontier:
        nxt = []
        for w in frontier:
            d = dist(space, p, TreePoint(w))
            if d < rad:
                out.append(TreePoint(w))
            if d <= rad:
                nbrs = [w[:-1]] + [w + (a,) for a in range(k - 1)] if w else [(a,) for a in range(k)]
                for u in nbrs:
                    if u not in seen:
                        seen.add(u)
                        nxt.append(u)
        frontier = nxt
    return out


def _reference_cover_stats(cover, matrix):
    msets = [frozenset(s.members) for s in cover.sets]
    n = len(cover.ground)
    counts = np.zeros(n, dtype=int)
    mesh = 0.0
    for ms in msets:
        idx = sorted(ms)
        counts[idx] += 1
        if len(idx) > 1:
            mesh = max(mesh, float(matrix[np.ix_(idx, idx)].max()))
    if counts.min() < 1:
        raise ValueError("ground point left uncovered")
    lebesgue = math.inf
    full = set(range(n))
    for i in range(n):
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
    return (int(counts.max()), mesh, lebesgue)


def _tree_points(k, depths=range(7)):
    """One vertex per depth plus the interior points at offsets 1/8..7/8 on
    its last edge."""
    out = []
    for depth in depths:
        word = tuple((i % (k - 1)) if i else k - 1 for i in range(depth))
        out.append(TreePoint(word))
        if word:
            out += [TreePoint(word, Fraction(num, 8)) for num in range(1, 8)]
    return out


class TestBallKernels:
    @pytest.mark.parametrize("k", [3, 4, 5])
    @pytest.mark.parametrize("R", [1, Fraction(3, 2), 2, Fraction(5, 2)])
    def test_tree_ball_matches_bfs(self, k, R):
        system = LatticeBallSystem(tree_space(k), R)
        for p in _tree_points(k):
            got = [c.word for c in system.centers_near(p)]
            assert len(got) == len(set(got))
            assert set(got) == {c.word for c in _reference_centers_near(system, p)}

    def test_tree_ball_float_R(self):
        for R in (1.5, 2.5):
            system = LatticeBallSystem(T4, R)
            for p in _tree_points(4, range(4)):
                assert ({c.word for c in system.centers_near(p)}
                        == {c.word for c in _reference_centers_near(system, p)})

    def test_tree_ball_far_edge_end_below_half(self):
        # 2R = 1/2 < offset 3/4: the ball holds the far end (0,) at 1/4,
        # which a BFS from the near end (the root, at 3/4) never reaches
        system = LatticeBallSystem(T4, Fraction(1, 4))
        assert [c.word for c in system.centers_near(TreePoint((0,), Fraction(3, 4)))] == [(0,)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_euclidean_stencil_matches_scan(self, dim):
        rng = np.random.default_rng(dim)
        points = [tuple(float(v) for v in rng.uniform(-3, 3, size=dim)) for _ in range(40)]
        points += [(0.0,) * dim, (0.5,) * dim, tuple(float(v) for v in range(dim)),
                   (-1e-17,) * dim, (2.9999999999999996,) * dim]
        for R in (1, 1.25, Fraction(3, 2), 2, 2.5):
            system = LatticeBallSystem(euclidean_space(dim), R)
            for coords in points:
                p = EuclideanPoint(coords)
                assert ([c.coords for c in system.centers_near(p)]
                        == [c.coords for c in _reference_centers_near(system, p)])

    @pytest.mark.parametrize("coords,center,R", [
        ((0.5,), (2.5,), 1),                 # 1-d, |p - c| = 2 = 2R
        ((0.5, 0.0), (2.0, 2.0), 1.25),      # (1.5, 2) has length 2.5 = 2R
        ((0.0, 0.0), (3.0, 4.0), 2.5),
        ((0.0, 0.0, 0.0), (1.0, 2.0, 2.0), 1.5),
    ])
    def test_euclidean_boundary_of_ball_excluded(self, coords, center, R):
        space = euclidean_space(len(coords))
        system = LatticeBallSystem(space, R)
        p = EuclideanPoint(coords)
        assert dist(space, p, EuclideanPoint(center)) == 2 * R
        got = [c.coords for c in system.centers_near(p)]
        assert center not in got
        assert got == [c.coords for c in _reference_centers_near(system, p)]

    @pytest.mark.parametrize("dim,resolution", [(1, 8), (1, 16), (2, 8), (2, 16), (3, 8)])
    def test_orbit_order_matches_recursion(self, dim, resolution):
        space = euclidean_space(dim)
        for R in ((1, Fraction(3, 2), 2) if dim < 3 else (1,)):
            system = LatticeBallSystem(space, R)
            axis = [j / resolution for j in range(resolution)]
            want = max(len(_reference_centers_near(system, EuclideanPoint(p)))
                       for p in itertools.product(axis, repeat=dim))
            assert orbit_ball_order(space, R, resolution) == want

    @pytest.mark.parametrize("k", [3, 4])
    def test_tree_orbit_order_matches_bfs(self, k):
        for R in (1, Fraction(3, 2), 2):
            system = LatticeBallSystem(tree_space(k), R)
            deep = tuple([0] + [1, 0] * (int(2 * R) + 2))
            want = max(len(_reference_centers_near(system, TreePoint(deep, Fraction(num, 16))))
                       for num in range(16))
            assert orbit_ball_order(tree_space(k), R) == want


def _stats_at_chunks(cover, matrix):
    """(order, mesh, lebesgue) of `cover_stats` at the default _CHUNK and at
    sizes at which a point's incidences straddle blocks of one row (1,
    n - 1, n + 1) and of two rows (2n + 1)."""
    n = len(cover.ground)
    out = []
    for chunk in (covers._CHUNK, 1, n - 1, n + 1, 2 * n + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covers, "_CHUNK", chunk)
            got = cover_stats(cover, matrix=matrix)
        out.append((got.order, got.mesh, got.lebesgue))
    return out


@st.composite
def _random_covers(draw):
    n = draw(st.integers(1, 9))
    values = st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5, 3.0])
    matrix = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = draw(values)
    subsets = st.lists(st.integers(0, n - 1), max_size=n).map(lambda m: tuple(sorted(set(m))))
    sets = draw(st.lists(subsets, min_size=1, max_size=6))
    if draw(st.booleans()):
        sets.append(tuple(range(n)))          # a set swallowing the sample
    return Cover(ground=list(range(n)), sets=[CoverSet(m) for m in sets]), matrix


class TestStatsKernels:
    @settings(max_examples=300, deadline=None)
    @given(_random_covers())
    def test_cover_stats_matches_loop(self, case):
        cover, matrix = case
        try:
            want = _reference_cover_stats(cover, matrix)
        except ValueError:
            with pytest.raises(ValueError, match="uncovered"):
                cover_stats(cover, matrix=matrix)
            return
        assert _stats_at_chunks(cover, matrix) == [want] * 5

    def test_cover_stats_matches_loop_on_pushout(self):
        for space, n, scales in ((E2, 120, (0.5, 0.125, 1 / 64)),
                                 (T4, 40, (4 * math.exp(-1), 4 * math.exp(-3)))):
            sample = sample_boundary(space, n, 5)
            D = pair_distance_matrix(space, MetricSpec("dA", A=1), sample)
            for lam in scales:
                cover = boundary_pushout_cover(space, LatticeBallSystem(space, 2), lam, 1, sample)
                assert _stats_at_chunks(cover, D) == [_reference_cover_stats(cover, D)] * 5

    def test_cover_stats_transient_memory(self):
        # the blocks bound what cover_stats holds beyond the membership
        # matrix; reading all (set, point) rows at once would take
        # incidences x n floats, here over 20 MB
        n = 1500
        D = pair_distance_matrix(E2, MetricSpec("dA", A=1), sample_boundary(E2, n, 0))
        net = covers._greedy_net(D, 1 / 16, 1 / 16, np.random.default_rng(0))
        cover = Cover(ground=list(range(n)), sets=[CoverSet(members) for _, members in net])
        incidences = sum(len(m) for _, m in net)
        assert incidences * n * 8 > 20e6
        tracemalloc.start()
        try:
            cover_stats(cover, matrix=D)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(net) * n + 8 * covers._CHUNK * 8

    def test_pushin_reach_matches_fraction_comparisons(self):
        sched = ScaleSchedule(R=2, K=3, c=1.0)
        sample = sample_boundary(T4, 40, 11)
        covers = {k: colored_boundary_cover(T4, sched.lam(k), sample) for k in range(1, 4)}
        B = [[None if i == j else branch_time(T4, x, y) for j, y in enumerate(sample)]
             for i, x in enumerate(sample)]
        rng = np.random.default_rng(4)
        interior = [(int(rng.integers(0, 40)), Fraction(int(rng.integers(0, 10 * q)), q))
                    for q in (3, 5, 7) for _ in range(150)]
        # radii equal to a branch time sit exactly on the reach boundary
        interior += [(i, B[i][j]) for i, j in ((0, 1), (2, 3), (5, 9))]
        cover, claims = annular_pushin_cover(T4, sched, covers, sample, interior)
        want = []
        for k in range(1, 4):
            for s in covers[k].sets:
                members = tuple(idx for idx, (i, r) in enumerate(interior)
                                if 2 * k < r < 2 * (k + 2)
                                and any(j == i or B[i][j] >= r for j in s.members))
                if members:
                    want.append((members, s.color, f"tube k={k} of [{s.descriptor}]"))
        got = [(s.members, s.color, s.descriptor) for s in cover.sets[:-1]]
        assert got == want
        counts = [sum(idx in s.members for s in cover.sets) for idx in range(len(interior))]
        assert claims["order"] == max(counts)
        assert claims["covers_ground"] == (min(counts) > 0)

    def test_pushin_reach_from_a_vertex_basepoint(self):
        # the ray toward j passes the tube point iff the two ray points
        # coincide, with both rays leaving the space's basepoint
        space = tree_space(4, TreePoint((1, 2, 0)))
        sched = ScaleSchedule(R=1, K=3, c=1.0)
        sample = sample_boundary(space, 30, 6)
        covers = {k: colored_boundary_cover(space, sched.lam(k), sample) for k in range(1, 4)}
        rng = np.random.default_rng(9)
        interior = [(int(rng.integers(0, 30)), Fraction(int(rng.integers(0, 40)), 8))
                    for _ in range(200)]
        cover, _ = annular_pushin_cover(space, sched, covers, sample, interior)
        rays = [Ray(space, space.basepoint, xi) for xi in sample]
        want = []
        for k in range(1, 4):
            for s in covers[k].sets:
                members = tuple(idx for idx, (i, r) in enumerate(interior)
                                if k < r < k + 2
                                and any(dist(space, ray_point(rays[i], r), ray_point(rays[j], r)) == 0
                                        for j in s.members))
                if members:
                    want.append(members)
        assert [s.members for s in cover.sets[:-1]] == want

    @pytest.mark.parametrize("basepoint", [TreePoint(()), TreePoint((1, 2, 0))])
    def test_pushin_tube_mesh_matches_fraction_dist(self, basepoint):
        space = tree_space(4, basepoint)
        sched = ScaleSchedule(R=1, K=3, c=1.0)
        sample = sample_boundary(space, 30, 6)
        covers = {k: colored_boundary_cover(space, sched.lam(k), sample) for k in range(1, 4)}
        ends = ((0, 1), (2, 3), (5, 9), (7, 8))
        b = pair_invariants(space, sample, *zip(*ends), basepoint)
        rng = np.random.default_rng(2)
        interior = [(int(rng.integers(0, 30)), Fraction(int(rng.integers(0, 40)), 8))
                    for _ in range(200)]
        # repeated boundary indices, and radii equal to branch times
        interior += [(3, Fraction(r, 4)) for r in range(4, 20)]
        interior += [(i, Fraction(int(bij))) for (i, _), bij in zip(ends, b) if bij > 0]
        cover, claims = annular_pushin_cover(space, sched, covers, sample, interior)
        want = 0.0
        for s in cover.sets[:-1]:
            pts = [cover.ground[i] for i in s.members]
            for a, b in itertools.combinations(pts, 2):
                want = max(want, float(dist(space, a, b)))
        assert want > 0
        assert claims["tube_mesh"] == want

    def test_pushin_rejects_non_tree(self):
        sample = sample_boundary(E2, 10, 1)
        with pytest.raises(ValueError, match="tree"):
            annular_pushin_cover(E2, ScaleSchedule(R=2, K=0, c=1.0), {}, sample,
                                 [(0, Fraction(1))])
