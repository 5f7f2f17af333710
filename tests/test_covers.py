import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visbound import covers, euclidean, metrics, tree
from visbound.covers import (
    Cover,
    CoverStats,
    LatticeBallSystem,
    ScaleRow,
    ScaleSchedule,
    annular_pushin_cover,
    boundary_pushout_cover,
    colored_boundary_cover,
    cover_stats,
    ell_dim_estimate,
    _far_pairs,
    orbit_ball_order,
    sample_ray_points,
    tuple_parts,
)
from visbound.metrics import (MetricSpec, SampleMetric, pair_distance_matrix, pair_kernel,
                              sample_metric)
from visbound.spaces import (
    EuclideanBoundary,
    EuclideanPoint,
    HyperbolicPoint,
    Ray,
    SpaceMismatchError,
    TreeBoundary,
    TreePoint,
    branch_time,
    dist,
    euclidean_space,
    hyperbolic_plane,
    ray_point,
    sample_boundary,
    substream,
    tree_space,
)

from ray_points import ray_points
from table_covers import table_cover_stats, table_greedy_net

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


def _cover(n, sets, colors=None, descriptors=None):
    """The cover record of the member lists `sets` (each sorted, no
    repeats) over n points; colors None and descriptors empty unless
    given."""
    set_of = [s for s, members in enumerate(sets) for _ in members]
    point_of = [p for members in sets for p in members]
    # the descriptors as a table of their distinct texts
    texts = {t: i for i, t in enumerate(dict.fromkeys(descriptors or [""] * len(sets)))}
    codes = [texts[t] for t in descriptors or [""] * len(sets)]
    return Cover(n, set_of, point_of, colors or [None] * len(sets),
                 ((tuple(texts), np.array(codes, dtype=np.int64)),))


def _sets(cover):
    """(members, color, descriptor) of each set of the record, the members
    read by a mask of its incidences."""
    return [(tuple(cover.point_of[cover.set_of == s].tolist()), color, cover.describe(s))
            for s, color in enumerate(cover.colors)]


def covers_ground(cover):
    """Every ground index lies in some set of the cover."""
    return set().union(*(m for m, _, _ in _sets(cover))) >= set(range(cover.n))


def distance_matrix(ground, d):
    """Pairwise distances d(p, q) of the ground points, mirrored."""
    D = np.zeros((len(ground), len(ground)))
    for i, j in itertools.combinations(range(len(ground)), 2):
        D[i, j] = D[j, i] = float(d(ground[i], ground[j]))
    return D


class TestCoverStats:
    def test_single_set_sentinel(self):
        cover = _cover(3, [(0, 1, 2)])
        D = distance_matrix([0, 1, 2], lambda p, q: abs(p - q))
        st = cover_stats(cover, SampleMetric.from_table(D))
        assert st.order == 1 and st.lebesgue == math.inf and st.mesh == 2

    def test_partition_order_one(self):
        cover = _cover(4, [(0, 1), (2, 3)])
        D = distance_matrix([0.0, 1.0, 5.0, 6.0], lambda p, q: abs(p - q))
        st = cover_stats(cover, SampleMetric.from_table(D))
        assert st.order == 1 and st.mesh == 1.0 and st.lebesgue == 4.0

    def test_uncovered_point_rejected(self):
        cover = _cover(2, [(0,)])
        with pytest.raises(ValueError):
            cover_stats(cover, SampleMetric.from_table(distance_matrix([0, 1],
                                                                       lambda p, q: abs(p - q))))

    @pytest.mark.parametrize("size,sets,match", [
        (2, [(0, 1), (2,)], r"sample metric over 2 points, not 3"),
        (4, [(0, 1), (2,)], r"sample metric over 4 points, not 3"),
        (3, [(0, 1), (2, 3)], r"member index outside \[0, 3\)"),
        (3, [(-1, 0, 1), (2,)], r"member index outside \[0, 3\)"),
    ], ids=["2-points", "4-points", "member-n", "member-minus-1"])
    def test_bad_input_rejected(self, size, sets, match):
        # the record rejects a member index, cover_stats a metric of another size
        with pytest.raises(ValueError, match=match):
            cover_stats(_cover(3, sets), SampleMetric.from_table(np.zeros((size, size))))

    @pytest.mark.parametrize("set_of,point_of,match", [
        ([1, 0], [0, 1], "sorted by set"),
        ([0, 0, 1], [2, 1, 0], "sorted by set"),
        ([0, 1, 1], [0, 1, 1], "sorted by set"),
        ([0, 2], [0, 1], r"set index outside \[0, 2\)"),
        ([-1, 0], [0, 1], r"set index outside \[0, 2\)"),
    ], ids=["sets-descending", "points-descending", "repeated-pair", "set-2", "set-minus-1"])
    def test_record_rejects_unsorted_runs(self, set_of, point_of, match):
        with pytest.raises(ValueError, match=match):
            Cover(3, set_of, point_of, [None, None])

    @pytest.mark.parametrize("descriptor,match", [
        (((("a", "b"), [0, 1]),), "one row per set"),
        (((("a", "b"), [0, 1, 1, 0]),), "one row per set"),
        (((("a", "b", "c", "d"), np.zeros((2, 3), dtype=np.int64)),), "one row per set"),
        (((("a",), np.zeros((3, 1, 1), dtype=np.int64)),), "one row per set"),
        (("x", (("a", "b"), [0, 2, 1])), r"code outside \[-1, 2\)"),
        ((((), [-1, -1, -2]),), r"code outside \[-1, 0\)"),
    ], ids=["short", "long", "2d-short", "3d", "code-2", "code-minus-2"])
    def test_record_rejects_descriptor_not_one_per_set(self, descriptor, match):
        with pytest.raises(ValueError, match=match):
            Cover(3, [0, 1, 2], [0, 1, 2], [None] * 3, descriptor)

    @pytest.mark.parametrize("texts", [range(3), ("0", 1, "2"), ["0", "1", "2"], "012"],
                             ids=["range", "int-text", "list", "str"])
    def test_record_rejects_texts_not_a_tuple_of_str(self, texts):
        with pytest.raises(ValueError, match="tuple of str"):
            Cover(3, [0, 1, 2], [0, 1, 2], [None] * 3, ((texts, [0, 1, 2]),))

    def test_descriptor_parts_are_read_along_rows(self):
        # a constant part, a table of int texts read two to a row and a
        # text table, with -1 for none
        cover = Cover(3, [0, 1, 2], [0, 1, 2], [None] * 3,
                      ("at ", (("-2", "-1", "0", "1", "2"), [[0, 4], [2, -1], [-1, -1]]),
                       (("x", "y"), np.array([1, -1, 0], dtype=np.int8))))
        assert [cover.describe(s) for s in range(3)] == ["at -22y", "at 0", "at x"]

    def test_empty_set_is_a_set(self):
        # the middle set has no members and still has its number and color
        cover = Cover(3, [0, 0, 2], [0, 1, 2], [0, 1, None], ((("0", "1", "2"), np.arange(3)),))
        assert cover.bounds.tolist() == [0, 2, 2, 3]
        assert _sets(cover) == [((0, 1), 0, "0"), ((), 1, "1"), ((2,), None, "2")]
        D = distance_matrix([0.0, 1.0, 5.0], lambda p, q: abs(p - q))
        st = cover_stats(cover, SampleMetric.from_table(D))
        assert st.order == 1 and st.mesh == 1.0 and st.lebesgue == 4.0

    def test_depth1_cylinders_dbar(self):
        words = all_depth3_boundary_words()
        metric = sample_metric(T4, MetricSpec("dbar"), words)
        by_first = {}
        for i, w in enumerate(words):
            by_first.setdefault(w.letter(0), []).append(i)
        cover = _cover(len(words), list(by_first.values()))
        st = cover_stats(cover, metric)
        assert abs(st.mesh - 2 * math.exp(-1)) < 1e-12
        assert abs(st.lebesgue - 2.0) < 1e-12   # distinct first letters branch at 0


class TestLatticeBalls:
    def test_hyperbolic_rejected(self):
        with pytest.raises(ValueError):
            LatticeBallSystem(hyperbolic_plane(), 1)

    # new rejection: vertex words keep one letter per byte
    def test_valence_above_256_rejected(self):
        space = tree_space(257)
        with pytest.raises(ValueError, match="valence 257 > 256"):
            LatticeBallSystem(space, 1)
        with pytest.raises(ValueError, match="valence 257 > 256"):
            colored_boundary_cover(space, 0.5, [TreeBoundary((256,), (255,))])

    def test_valence_256_keeps_its_last_letter(self):
        space = tree_space(256)
        centers = LatticeBallSystem(space, 1).centers_near(TreePoint((255, 254)))
        # the vertex, its parent and its 255 children; the root is 2 away
        assert [c.word for c in centers] == [(255,), (255, 254)] + [(255, 254, a)
                                                                  for a in range(255)]
        sample = [TreeBoundary((255, 254), (0,)), TreeBoundary((0,), (254,))]
        cover = colored_boundary_cover(space, 4 * math.exp(-2), sample)
        assert [d for _, _, d in _sets(cover)] == ["cylinder depth=2 word=(0, 254)",
                                                   "cylinder depth=2 word=(255, 254)"]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_stencil_matches_fraction_products(self, dim):
        for R in (0.3, 1, 1.1, 1.25, Fraction(3, 2), 2, 2.5, 1 / 3):
            rad = Fraction(float(2 * R)) + Fraction(1, 10 ** 9)
            reach = math.ceil(rad)
            want = [o for o in itertools.product(range(-reach, reach + 2), repeat=dim)
                    if sum(max(-a, a - 1, 0) ** 2 for a in o) < rad * rad]
            got = euclidean.stencil(float(2 * R), dim)
            assert got.dtype == np.int64 and list(map(tuple, got.tolist())) == want

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
    def test_direction_of_another_dimension_rejected(self):
        sample = sample_boundary(E2, 10, 1) + [EuclideanBoundary((0.0, 0.6, 0.8))]
        with pytest.raises(SpaceMismatchError, match="R\\^2"):
            boundary_pushout_cover(E2, LatticeBallSystem(E2, 2), 0.5, 1, sample)
        with pytest.raises(SpaceMismatchError, match="R\\^2"):
            LatticeBallSystem(E2, 2).incidences(np.zeros((4, 3)))

    def test_sample_of_another_space_rejected(self):
        with pytest.raises(SpaceMismatchError):
            boundary_pushout_cover(T4, LatticeBallSystem(T4, 2), 0.5, 1, sample_boundary(E2, 10, 1))

    def test_R_must_exceed_A(self):
        sys_ = LatticeBallSystem(T4, 1)
        with pytest.raises(ValueError):
            boundary_pushout_cover(T4, sys_, Fraction(1, 2), 1, sample_boundary(T4, 10, 1))

    # lam = 0 raised ZeroDivisionError, lam < 0 a ray-parameter error
    @pytest.mark.parametrize("space", [T4, E2])
    @pytest.mark.parametrize("lam", [0, -0.25, Fraction(-1, 4)])
    def test_nonpositive_scale_rejected(self, space, lam):
        with pytest.raises(ValueError, match="scale must be positive"):
            boundary_pushout_cover(space, LatticeBallSystem(space, 2), lam, 1,
                                   sample_boundary(space, 10, 1))

    def test_uncovered_sample_rejected(self):
        # balls of radius 0.4 around Z^2 miss part of the circle of radius 2
        sample = sample_boundary(E2, 50, 0)
        with pytest.raises(ValueError, match="failed to cover the boundary sample"):
            boundary_pushout_cover(E2, LatticeBallSystem(E2, 0.2), 0.5, 0.1, sample)

    def test_bounds_across_scales(self):
        for space in (T4, E2):
            sys_ = LatticeBallSystem(space, 2)
            sample = sample_boundary(space, 150, 9)
            metric = sample_metric(space, MetricSpec("dA", A=1), sample)
            order_v = orbit_ball_order(space, 2)
            for lam in (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)):
                cover = boundary_pushout_cover(space, sys_, lam, 1, sample)
                st = cover_stats(cover, metric)
                assert st.order <= order_v
                assert st.lebesgue >= float(lam) * (1 - 1e-9)
                assert st.mesh <= 8 * float(lam) * (1 + 1e-9)

    def test_tree_membership_exact(self):
        # rays landing in the same radius-4 vertex ball branch late
        sys_ = LatticeBallSystem(T4, 2)
        sample = sample_boundary(T4, 60, 2)
        cover = boundary_pushout_cover(T4, sys_, Fraction(1, 4), 1, sample)
        for members, _, _ in _sets(cover):
            for i, j in itertools.combinations(members, 2):
                # separation f(4) < 8 means branch > 0
                assert branch_time(T4, sample[i], sample[j]) > 4 - 4
        assert covers_ground(cover)


class TestColoredCovers:
    def test_depth3_cylinder_count(self):
        lam = 4 * math.exp(-3)
        words = all_depth3_boundary_words()
        cover = colored_boundary_cover(T4, lam, words)
        assert len(cover.colors) == 36
        assert all(color == 0 for color in cover.colors)
        # distinct cylinders are at dbar distance >= 2 e^{-2} = lam/2 e
        D = pair_distance_matrix(T4, MetricSpec("dbar"), words)
        for (s, _, _), (t, _, _) in itertools.combinations(_sets(cover), 2):
            gap = min(D[i, j] for i in s for j in t)
            assert gap >= 2 * math.exp(-2) - 1e-12

    def test_cylinder_mesh_below_half_lambda(self):
        lam = 4 * math.exp(-3)
        sample = sample_boundary(T4, 200, 6)
        cover = colored_boundary_cover(T4, lam, sample)
        st = cover_stats(cover, sample_metric(T4, MetricSpec("dbar"), sample))
        assert st.mesh <= lam / 2 + 1e-12

    def test_circle_two_colors(self):
        sample = sample_boundary(E2, 400, 3)
        lam = 0.05
        cover = colored_boundary_cover(E2, lam, sample)
        assert set(cover.colors) == {0, 1}
        assert covers_ground(cover)
        D = pair_distance_matrix(E2, MetricSpec("dA", A=1), sample)
        # same-color separation >= lam/2
        for (s, s_color, _), (t, t_color, _) in itertools.combinations(_sets(cover), 2):
            if s_color != t_color or not s or not t:
                continue
            gap = min(D[i, j] for i in s for j in t)
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
        interior = sample_ray_points(self.sample, 10, 100, 1)
        with pytest.raises(ValueError):
            annular_pushin_cover(T4, self.sched, {1: self.covers[1]},
                                 self.sample, interior)

    def test_claims_on_tree(self):
        interior = sample_ray_points(self.sample, 10, 600, 1)
        cover, claims = annular_pushin_cover(T4, self.sched, self.covers,
                                             self.sample, interior)
        assert claims["color_disjoint"]
        assert claims["per_point_decay"]
        assert claims["mesh_ok"]
        assert claims["covers_ground"]
        assert claims["order"] <= 2

    def test_trivial_schedule_base_ball_only(self):
        sched = ScaleSchedule(R=2, K=0, c=1.0)
        interior = ray_points([(0, Fraction(1, 2)), (1, Fraction(3))])
        cover, claims = annular_pushin_cover(T4, sched, {}, self.sample, interior)
        assert len(cover.colors) == 1 and claims["order"] == 1

    def test_overlap_band_multiplicity(self):
        # a point at radius strictly inside two consecutive bands can lie in
        # tubes of both scales
        interior = sample_ray_points(self.sample, 10, 600, 1)
        cover, claims = annular_pushin_cover(T4, self.sched, self.covers,
                                             self.sample, interior)
        assert claims["order"] == 2


def _reference_ray_points(boundary_sample, r_max, n, rng):
    # the per-pair loop: an index draw, then a radius draw
    top = int(Fraction(r_max) * 8)
    return [(int(rng.integers(0, len(boundary_sample))), Fraction(int(rng.integers(0, top)), 8))
            for _ in range(n)]


@pytest.mark.parametrize("size, r_max, n", [(60, 10, 600), (1, 14, 50), (7, Fraction(1, 8), 40),
                                            (5, 2 ** 30, 300), (2 ** 33 + 3, 3, 300)],
                         ids=["pushin", "one-point", "one-radius", "top-2^33", "size-2^33"])
def test_ray_points_equal_the_per_pair_loop(size, r_max, n, monkeypatch):
    # one integers call over alternating bounds: the same values and the
    # same final generator state, through Lemire's 64-bit rule past 2^32
    made = []

    def recording(seed, name):
        made.append(substream(seed, name))
        return made[-1]

    monkeypatch.setattr(covers, "substream", recording)
    sample = range(size)
    for seed in range(20):
        rng = substream(seed, "ray-points")
        want = _reference_ray_points(sample, r_max, n, rng)
        got = sample_ray_points(sample, r_max, n, seed)
        # the drawn integers are carried as eighths
        assert got.ray.dtype == got.num.dtype == np.int64 and got.den == 8
        assert list(zip(got.ray.tolist(), [Fraction(a, 8) for a in got.num.tolist()])) == want
        assert made[-1].bit_generator.state == rng.bit_generator.state


class TestEllDim:
    @pytest.mark.parametrize("space", [E2, T4, hyperbolic_plane(), euclidean_space(3)])
    def test_single_point(self, space):
        metric = sample_metric(space, MetricSpec("dbar"), sample_boundary(space, 1, 0))
        rows, est = ell_dim_estimate(metric, [1.0], 4.0)
        assert est == 0

    def test_tree_dbar_order_one(self):
        sample = sample_boundary(T4, 300, 4)
        scales = [4 * math.exp(-k) for k in range(1, 7)]
        rows, est = ell_dim_estimate(sample_metric(T4, MetricSpec("dbar"), sample), scales, 4.0, 2)
        assert [r.order for r in rows] == [1] * 6
        assert est == 0

    def test_circle_dA_order_two(self):
        sample = sample_boundary(E2, 900, 4)
        scales = [2.0 ** -k for k in range(1, 6)]
        rows, est = ell_dim_estimate(sample_metric(E2, MetricSpec("dA", A=1), sample), scales,
                                     4.0, 2)
        assert [r.order for r in rows] == [2] * 5
        assert est == 1

    # 8192 reads every center row at once, 120 two at a time, 7 one
    @pytest.mark.parametrize("chunk", [8192, 120, 7])
    def test_row_net_reads_center_rows_in_blocks(self, chunk, monkeypatch):
        # a metric without a boundary order reads full rows
        M = np.random.default_rng(4).random((60, 60))
        M = np.minimum(M, M.T)
        np.fill_diagonal(M, 0.0)
        want = table_greedy_net(M, 0.2, 0.3, np.random.default_rng(3))
        monkeypatch.setattr(covers, "_CHUNK", chunk)
        cover = covers._greedy_net(SampleMetric.from_table(M), 0.2, 0.3, np.random.default_rng(3))
        assert len(cover.colors) == len(want.colors) > 2
        assert np.array_equal(cover.set_of, want.set_of)
        assert np.array_equal(cover.point_of, want.point_of)

    def test_mesh_bound_recorded(self):
        sample = sample_boundary(E2, 200, 4)
        rows, _ = ell_dim_estimate(sample_metric(E2, MetricSpec("dA", A=1), sample), [0.25], 4.0, 2)
        assert rows[0].passed and rows[0].mesh <= rows[0].bound_mesh

    # no scale returned ([], -1)
    @pytest.mark.parametrize("scales", [[], [0.5, 0.0], [-0.25]])
    def test_scales_must_be_positive(self, scales):
        with pytest.raises(ValueError, match="at least one scale, each positive"):
            ell_dim_estimate(SampleMetric.from_table(np.zeros((3, 3))), scales, 4.0)


class TestScaleRowJudge:
    LAM = 0.3

    def judge(self, order=2, mesh=0.5, lebesgue=0.4, bound_mesh=1.0, bound_lebesgue=LAM,
              bound_order=2):
        return ScaleRow.judge(self.LAM, CoverStats(order, mesh, lebesgue), bound_mesh,
                              bound_lebesgue, bound_order)

    def test_lebesgue_boundary(self):
        edge = self.LAM * (1 - 1e-9)
        assert self.judge(lebesgue=edge).passed
        assert not self.judge(lebesgue=np.nextafter(edge, 0.0)).passed

    def test_mesh_boundary(self):
        edge = 1.0 * (1 + 1e-9)
        assert self.judge(mesh=edge).passed
        assert not self.judge(mesh=np.nextafter(edge, 2.0)).passed

    def test_order_boundary(self):
        assert self.judge(order=2).passed
        assert not self.judge(order=3).passed

    def test_row_records_the_bounds(self):
        row = self.judge(order=1, mesh=0.25, lebesgue=math.inf)
        assert row == ScaleRow(lam=self.LAM, order=1, mesh=0.25, lebesgue=math.inf,
                               bound_mesh=1.0, bound_lebesgue=self.LAM, passed=True)

    @pytest.mark.parametrize("lebesgue", [0.0, 1e-300, 0.3, math.inf])
    @pytest.mark.parametrize("order", [1, 7, 10 ** 6])
    def test_ell_dim_form_is_the_mesh_rule(self, lebesgue, order):
        # bound_lebesgue 0 and bound_order inf leave the mesh rule alone,
        # since cover_stats clamps the Lebesgue number to >= 0
        c_lam = 4.0 * 0.3
        edge = c_lam * (1 + 1e-9)
        for mesh in (0.0, c_lam, edge, np.nextafter(edge, 2.0), 2 * c_lam):
            row = ScaleRow.judge(0.3, CoverStats(order, mesh, lebesgue), c_lam, 0.0, math.inf)
            assert row.passed == (mesh <= c_lam * (1 + 1e-9))


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
    msets = [frozenset(members) for members, _, _ in _sets(cover)]
    n = cover.n
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


def _texts(parts: tuple) -> list:
    """The text of each row that descriptor `parts` describe, after "(" ."""
    rows = len(parts[1][1])
    cover = Cover(0, [], [], [None] * rows, ("(", *parts))
    return [cover.describe(s) for s in range(rows)]


class TestTupleParts:
    @pytest.mark.parametrize("k", [3, 4, 256])
    def test_tree_words_read_as_tuples(self, k):
        # words of 0, 1 and 62 letters with letter 0 and the largest first
        # and later letters, first and later letters read apart
        rng = np.random.default_rng(k)
        words = [(), (0,), (k - 1,), (0,) * 62, (k - 1,) + (k - 2,) * 61,
                 (0,) + tuple(rng.integers(0, k - 1, 61).tolist()), (k - 1, 0)]
        parts = tree.Tree.center_parts([bytes(w) for w in words])
        assert _texts(parts) == [repr(w) for w in words]
        assert [part[1].dtype for part in parts] == [np.int16 if k > 64 else np.int8, np.int8]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_lattice_rows_read_as_tuples(self, dim):
        rng = np.random.default_rng(dim)
        keys = np.vstack([rng.integers(-300, 300, (20, dim)), np.full((1, dim), -1),
                          np.zeros((1, dim), np.int64)])
        parts = euclidean_space(dim).center_parts(keys)
        assert _texts(parts) == [repr(tuple(row)) for row in keys.tolist()]
        assert parts[0][1].dtype == np.int16
        assert _texts(tuple_parts(keys[:, :1] - 1)) == [f"({a - 1},)" for a in keys[:, 0].tolist()]

    def test_lens_cut_rows(self):
        rows = np.array([[5, 6, 7], [-2, 0, 9], [4, 4, 4]])
        assert _texts(tuple_parts(rows, np.array([3, 1, 0]))) == ["(5, 6, 7)", "(-2,)", "()"]
        assert tuple_parts(rows)[0][1].dtype == np.int8


class TestVertexWords:
    @pytest.mark.parametrize("word", [(), (0,), (255,), (3, 255), (0, 0),
                                      tuple(range(192, 256)), tuple(i % 7 for i in range(64))])
    def test_word_text_is_the_tuple_repr(self, word):
        # the word among others, which set the table's letters and width
        words = [bytes(word), b"", b"\x03", bytes(range(5))]
        cover = Cover(0, [], [], [None] * len(words), ("(", *tree.Tree.center_parts(words)))
        assert cover.describe(0) == repr(word)
        assert [cover.describe(s) for s in range(1, 4)] == ["()", "(3,)", "(0, 1, 2, 3, 4)"]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 255), max_size=6), max_size=30))
    def test_bytes_rank_like_tuples(self, words):
        # prefixes of drawn words too, so that prefixes meet their extensions
        words = [w[:j] for w in words for j in (len(w), len(w) // 2)]
        keys, codes = tree._rank_words([bytes(w) for w in words])
        want_keys, want_codes = tree._rank_words([tuple(w) for w in words])
        assert [tuple(k) for k in keys] == want_keys
        assert codes.tolist() == want_codes.tolist()


def _reference_ball_sets(system, points):
    """The grouping the incidence kernel replaced: (key, members) for each
    orbit ball meeting `points`, by increasing center key, from each
    point's centers as `_reference_centers_near` finds them."""
    by_center = {}
    for i, p in enumerate(points):
        for c in _reference_centers_near(system, p):
            key = c.word if system.space.kind == "tree" else tuple(int(v) for v in c.coords)
            by_center.setdefault(key, []).append(i)
    return [(key, tuple(members)) for key, members in sorted(by_center.items())]


def _kernel_ball_sets(system, points):
    """`_reference_ball_sets` from the incidence kernel, fed the points as
    (bytes word, offset ratio) pairs on a tree and as an array of rows on
    R^n; each key is compared as the tuple of its letters or coordinates."""
    if system.space.kind == "tree":
        keys, set_of, point_of = system.incidences([(bytes(p.word), p.offset.as_integer_ratio())
                                                    for p in points])
    else:
        keys, set_of, point_of = system.incidences(np.array([p.coords for p in points]))
    # sorted by ball and then by point, each incidence once
    assert (np.diff(set_of * len(points) + point_of) > 0).all()
    bounds = np.flatnonzero(np.diff(set_of, prepend=-1)).tolist() + [len(set_of)]
    assert len(bounds) == len(keys) + 1
    return [(tuple(key), tuple(point_of[a:b].tolist()))
            for key, a, b in zip(keys, bounds, bounds[1:])]


class TestIncidenceKernel:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_euclidean_matches_reference(self, dim):
        rng = np.random.default_rng(10 + dim)
        points = [EuclideanPoint(tuple(float(v) for v in rng.uniform(-6, 6, size=dim)))
                  for _ in range(25)]
        points += [EuclideanPoint(c) for c in ((-2.0,) * dim, (-0.5,) * dim, (0.0,) * dim,
                                               (-1e-17,) * dim, (-3.0,) + (2.5,) * (dim - 1))]
        # keys 8e6 apart on every axis
        points += [EuclideanPoint(c) for c in ((-4e6,) * dim, (4e6 + 0.5,) + (4e6,) * (dim - 1),
                                               (-4e6 + 0.25,) + (-4e6,) * (dim - 1))]
        for R in (1, 1.25, Fraction(3, 2), 2.5):
            system = LatticeBallSystem(euclidean_space(dim), R)
            assert _kernel_ball_sets(system, points) == _reference_ball_sets(system, points)

    @pytest.mark.parametrize("R", [Fraction(3, 2), 1.25, Fraction(5, 2)])
    def test_tree_matches_reference(self, R):
        # vertices and points at offsets 1/8..7/8 on their last edges
        points = _tree_points(4, range(6))
        system = LatticeBallSystem(T4, R)
        assert _kernel_ball_sets(system, points) == _reference_ball_sets(system, points)

    # float scales with 1/lam an integer (0.5, 0.125) and not (4e^-2, 0.3),
    # Fraction scales with 1/lam an integer (1/4) and not (3/7, 3/2).  From
    # the vertex (1, 2, 0) a ray first walks up its word to the meet, and
    # at t = 2/3 or 7/3 some points stay on that word.
    @pytest.mark.parametrize("space,R,n", [
        (E1, 2.5, 2), (E2, 2.5, 80), (euclidean_space(3), Fraction(3, 2), 40),
        (T4, Fraction(3, 2), 40), (T4, 1.25, 40),
        (tree_space(4, TreePoint((1, 2, 0))), Fraction(3, 2), 40),
        (euclidean_space(2, (0.3, -1.7)), 2.5, 80),
    ], ids=["R1", "R2", "R3", "T4-3/2", "T4-1.25", "T4-at-120", "R2-at-(0.3,-1.7)"])
    def test_pushout_sets_and_stats_per_scale(self, space, R, n):
        sample = sample_boundary(space, n, 8)
        D = pair_distance_matrix(space, MetricSpec("dA", A=1), sample)
        metric = sample_metric(space, MetricSpec("dA", A=1), sample)
        system = LatticeBallSystem(space, R)
        for lam in (0.5, 4 * math.exp(-2), 0.125, 0.3, Fraction(1, 4), Fraction(3, 7),
                    Fraction(3, 2)):
            t = 1 / Fraction(lam) if space.kind == "tree" else 1.0 / float(lam)
            points = [ray_point(Ray(space, space.basepoint, xi), t) for xi in sample]
            want = _reference_ball_sets(system, points)
            cover = boundary_pushout_cover(space, system, lam, 1, sample)
            assert [(m, d) for m, _, d in _sets(cover)] == [
                (members, f"pushout lam={float(lam):g} center={key}") for key, members in want]
            ref = _cover(len(sample), [members for _, members in want])
            got = cover_stats(cover, metric)
            assert (got.order, got.mesh, got.lebesgue) == _reference_cover_stats(ref, D)


def _stats_at_chunks(cover, metric):
    """(order, mesh, lebesgue) of `cover_stats` at the default _CHUNK and at
    sizes at which a point's incidences straddle blocks of one row (1,
    n - 1, n + 1) and of two rows (2n + 1)."""
    n = cover.n
    out = []
    for chunk in (covers._CHUNK, 1, n - 1, n + 1, 2 * n + 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covers, "_CHUNK", chunk)
            got = cover_stats(cover, metric)
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
    return _cover(n, sets), matrix


class TestStatsKernels:
    @settings(max_examples=300, deadline=None)
    @given(_random_covers())
    def test_cover_stats_matches_loop(self, case):
        cover, matrix = case
        try:
            want = _reference_cover_stats(cover, matrix)
        except ValueError:
            with pytest.raises(ValueError, match="uncovered"):
                cover_stats(cover, SampleMetric.from_table(matrix))
            return
        assert _stats_at_chunks(cover, SampleMetric.from_table(matrix)) == [want] * 5

    @settings(max_examples=200, deadline=None)
    @given(_random_covers())
    def test_colliding_hashes_never_merge_sets(self, case):
        # with every weight 0 all sets hash alike, and only the point by
        # point comparison tells them apart
        cover, matrix = case
        try:
            want = _reference_cover_stats(cover, matrix)
        except ValueError:
            return
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(covers, "_point_weights", lambda n: np.zeros(n, dtype=np.uint64))
            assert _stats_at_chunks(cover, SampleMetric.from_table(matrix)) == [want] * 5

    @pytest.mark.parametrize("weights", ["hashed", "colliding"])
    def test_distinct_sets_count_repeats(self, weights):
        sets = [(0, 1), (2,), (0, 1), (1, 2), (2,), (0, 1), (0, 2), (1,), (2, 0), (), (1, 2)]
        # raw incidences, each set's run in its listed order
        set_of = np.repeat(np.arange(len(sets)), [len(m) for m in sets])
        point_of = np.array([p for m in sets for p in m], dtype=np.int64)
        with pytest.MonkeyPatch.context() as mp:
            if weights == "colliding":
                mp.setattr(covers, "_point_weights", lambda n: np.ones(n, dtype=np.uint64))
            got_set, got_point = covers._distinct_sets(set_of, point_of)
        runs = {}
        for g, p in zip(got_set.tolist(), got_point.tolist()):
            runs.setdefault(g, []).append(p)
        distinct = {s for s in sets if s}
        # members in their listed order: (0, 2) and (2, 0) stay apart
        assert {tuple(r) for r in runs.values()} == distinct
        # a collision may split a group of equal sets, a good hash does not
        assert (len(runs) == len(distinct)) == (weights == "hashed")

    def test_cover_stats_matches_loop_on_pushout(self):
        for space, n, scales in ((E2, 120, (0.5, 0.125, 1 / 64)),
                                 (T4, 40, (4 * math.exp(-1), 4 * math.exp(-3)))):
            sample = sample_boundary(space, n, 5)
            D = pair_distance_matrix(space, MetricSpec("dA", A=1), sample)
            metric = sample_metric(space, MetricSpec("dA", A=1), sample)
            for lam in scales:
                cover = boundary_pushout_cover(space, LatticeBallSystem(space, 2), lam, 1, sample)
                assert _stats_at_chunks(cover, metric) == [_reference_cover_stats(cover, D)] * 5

    def test_cover_stats_transient_memory(self):
        # on a metric without an order the blocks bound what cover_stats
        # holds beyond its set-by-point boolean matrix; reading all (set,
        # point) rows at once would take incidences x n floats, here over
        # 20 MB
        n = 1500
        D = pair_distance_matrix(E2, MetricSpec("dA", A=1), sample_boundary(E2, n, 0))
        metric = SampleMetric.from_table(D)
        cover = covers._greedy_net(metric, 1 / 16, 1 / 16, np.random.default_rng(0))
        incidences = len(cover.point_of)
        assert incidences * n * 8 > 20e6
        tracemalloc.start()
        try:
            cover_stats(cover, metric)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= len(cover.colors) * n + 8 * covers._CHUNK * 8

    def test_pushin_reach_in_blocks_of_seven_pairs(self, monkeypatch):
        # blocks of 7 pairs split the branch table's rows
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", 7)
        self.test_pushin_reach_matches_fraction_comparisons()

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
        cover, claims = annular_pushin_cover(T4, sched, covers, sample, ray_points(interior))
        want = []
        for k in range(1, 4):
            for s_members, color, descriptor in _sets(covers[k]):
                members = tuple(idx for idx, (i, r) in enumerate(interior)
                                if 2 * k < r < 2 * (k + 2)
                                and any(j == i or B[i][j] >= r for j in s_members))
                if members:
                    want.append((members, color, f"tube k={k} of [{descriptor}]"))
        got = _sets(cover)
        assert got[:-1] == want
        counts = [sum(idx in m for m, _, _ in got) for idx in range(len(interior))]
        assert claims["order"] == max(counts)
        assert claims["covers_ground"] == (min(counts) > 0)

    def test_pushin_reads_int_and_float_radii_exactly(self):
        # the same radii as dyadic floats and ints, over the common
        # denominator of their integer ratios, give the same cover and claims
        sched = ScaleSchedule(R=2, K=3, c=1.0)
        sample = sample_boundary(T4, 30, 3)
        covers = {k: colored_boundary_cover(T4, sched.lam(k), sample) for k in range(1, 4)}
        interior = sample_ray_points(sample, 10, 200, 3)
        numbers = [(i, a // 8 if a % 8 == 0 else a / 8)
                   for i, a in zip(interior.ray.tolist(), interior.num.tolist())]
        assert {type(r) for _, r in numbers} == {int, float}
        want, want_claims = annular_pushin_cover(T4, sched, covers, sample, interior)
        got, got_claims = annular_pushin_cover(T4, sched, covers, sample, ray_points(numbers))
        assert _sets(got) == _sets(want) and got_claims == want_claims

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
        cover, _ = annular_pushin_cover(space, sched, covers, sample, ray_points(interior))
        rays = [Ray(space, space.basepoint, xi) for xi in sample]
        want = []
        for k in range(1, 4):
            for s_members, _, _ in _sets(covers[k]):
                members = tuple(idx for idx, (i, r) in enumerate(interior)
                                if k < r < k + 2
                                and any(dist(space, ray_point(rays[i], r), ray_point(rays[j], r)) == 0
                                        for j in s_members))
                if members:
                    want.append(members)
        assert [m for m, _, _ in _sets(cover)[:-1]] == want

    @pytest.mark.parametrize("basepoint", [TreePoint(()), TreePoint((1, 2, 0))])
    def test_pushin_tube_mesh_matches_fraction_dist(self, basepoint):
        space = tree_space(4, basepoint)
        sched = ScaleSchedule(R=1, K=3, c=1.0)
        sample = sample_boundary(space, 30, 6)
        covers = {k: colored_boundary_cover(space, sched.lam(k), sample) for k in range(1, 4)}
        ends = ((0, 1), (2, 3), (5, 9), (7, 8))
        b = pair_kernel(space, sample, basepoint)(*np.transpose(ends))
        rng = np.random.default_rng(2)
        interior = [(int(rng.integers(0, 30)), Fraction(int(rng.integers(0, 40)), 8))
                    for _ in range(200)]
        # repeated boundary indices, and radii equal to branch times
        interior += [(3, Fraction(r, 4)) for r in range(4, 20)]
        interior += [(i, Fraction(int(bij))) for (i, _), bij in zip(ends, b) if bij > 0]
        cover, claims = annular_pushin_cover(space, sched, covers, sample, ray_points(interior))
        ground = [ray_point(Ray(space, basepoint, sample[i]), r) for i, r in interior]
        want = 0.0
        for members, _, _ in _sets(cover)[:-1]:
            pts = [ground[idx] for idx in members]
            for a, b in itertools.combinations(pts, 2):
                want = max(want, float(dist(space, a, b)))
        assert want > 0
        assert claims["tube_mesh"] == want

    def test_pushin_rejects_non_tree(self):
        sample = sample_boundary(E2, 10, 1)
        with pytest.raises(ValueError, match="tree"):
            annular_pushin_cover(E2, ScaleSchedule(R=2, K=0, c=1.0), {}, sample,
                                 ray_points([(0, Fraction(1))]))


def _construction_covers():
    """(name, cover, sample metric of its ground, its distance matrix) for
    each construction: the pushout on T4 and R^2, the tree cylinders, the
    circle arcs, the greedy-net balls and the pushin tubes with the base
    ball."""
    def boundary(space, spec, sample):
        return sample_metric(space, spec, sample), pair_distance_matrix(space, spec, sample)

    out = []
    for name, space in (("pushout-T4", T4), ("pushout-R2", E2)):
        sample = sample_boundary(space, 60, 3)
        out.append((name, boundary_pushout_cover(space, LatticeBallSystem(space, 2), 0.25, 1,
                                                 sample),
                    *boundary(space, MetricSpec("dA", A=1), sample)))
    sample = sample_boundary(T4, 80, 3)
    metric, D = boundary(T4, MetricSpec("dbar"), sample)
    out.append(("cylinders", colored_boundary_cover(T4, 4 * math.exp(-2), sample), metric, D))
    out.append(("net-balls", covers._greedy_net(metric, 0.1, 0.1, np.random.default_rng(1)),
                metric, D))
    circle = sample_boundary(E2, 200, 3)
    out.append(("arcs", colored_boundary_cover(E2, 0.25, circle),
                *boundary(E2, MetricSpec("dA", A=1), circle)))
    sched = ScaleSchedule(R=1, K=3, c=1.0)
    colored = {k: colored_boundary_cover(T4, sched.lam(k), sample) for k in range(1, 4)}
    interior = sample_ray_points(sample, 5, 120, 3)
    cover, _ = annular_pushin_cover(T4, sched, colored, sample, interior)
    ground = [ray_point(Ray(T4, T4.basepoint, sample[i]), Fraction(a, interior.den))
              for i, a in zip(interior.ray.tolist(), interior.num.tolist())]
    D = distance_matrix(ground, lambda p, q: dist(T4, p, q))
    out.append(("pushin", cover, SampleMetric.from_table(D), D))
    return out


class TestCoverRecord:
    def test_every_construction_keeps_the_record_invariants(self):
        seen = []
        for name, cover, metric, D in _construction_covers():
            seen.append(name)
            set_of, point_of = cover.set_of, cover.point_of
            assert set_of.dtype == point_of.dtype == np.int64
            # sorted by set and then by point, each incidence once
            assert (np.diff(set_of * cover.n + point_of) > 0).all(), name
            assert point_of.min() >= 0 and point_of.max() < cover.n == len(D), name
            # one color per set: every numbered set but the pushin's base
            # ball has members, and every set has its text
            filled = np.unique(set_of).tolist()
            assert filled == list(range(len(cover.colors))), name
            assert all(isinstance(cover.describe(s), str) for s in range(len(cover.colors)))
            assert _stats_at_chunks(cover, metric) == [_reference_cover_stats(cover, D)] * 5, name
        assert len(seen) == 6


# ---------------------------------------------------------------------------
# the runs over the sorted boundary against the table-reading reference

SORTED_SPACES = {
    "R2": (E2, MetricSpec("dA", A=1)),
    "H2": (hyperbolic_plane(), MetricSpec("dbar")),
    "H2-at-(1.3,0.4)": (hyperbolic_plane(HyperbolicPoint(1.3, 0.4)), MetricSpec("dA", A=0.8)),
    "T4": (T4, MetricSpec("dbar")),
    "T4-at-120": (tree_space(4, TreePoint((1, 2, 0))), MetricSpec("dA", A=1)),
    "R3": (euclidean_space(3), MetricSpec("dbar")),
}


def _net_sets(cover):
    return cover.set_of.tolist(), cover.point_of.tolist()


class TestSortedBoundary:
    @pytest.mark.parametrize("name", sorted(SORTED_SPACES))
    def test_nets_and_stats_equal_the_table_reference(self, name, monkeypatch):
        # scales at quantiles of the distances, the largest with 2 lam-balls
        # spanning more than half the circle
        space, spec = SORTED_SPACES[name]
        far = []
        monkeypatch.setattr(covers, "_far_pairs",
                            lambda *args: far.append(1) or _far_pairs(*args))
        for seed in range(10):
            n = (30, 120, 250)[seed % 3]
            sample = sample_boundary(space, n, seed)
            metric = sample_metric(space, spec, sample)
            D = pair_distance_matrix(space, spec, sample)
            for q in (0.002, 0.01, 0.05, 0.2, 0.5, 0.8, 0.97):
                lam = float(np.quantile(D[np.triu_indices(n, 1)], q))
                for radius in (lam, 2 * lam):
                    got = covers._greedy_net(metric, lam, radius, np.random.default_rng(seed))
                    want = table_greedy_net(D, lam, radius, np.random.default_rng(seed))
                    assert _net_sets(got) == _net_sets(want), (seed, q, radius)
                    assert cover_stats(got, metric) == table_cover_stats(want, D), (seed, q)
        assert bool(far) == (metric.turn is not None)

    @pytest.mark.parametrize("name", ["R2", "H2", "H2-at-(1.3,0.4)", "T4"])
    def test_net_batches_when_balls_outgrow_a_chunk(self, name, monkeypatch):
        # with _CHUNK = 64 a mean ball of more than 8 points and a sliver of
        # unblocked points left make the batch's quotient round to 0, as a
        # mean ball of more than 4096 points does at the real _CHUNK
        monkeypatch.setattr(covers, "_CHUNK", 64)
        space, spec = SORTED_SPACES[name]
        for seed in range(8):
            n = (60, 250)[seed % 2]
            sample = sample_boundary(space, n, seed)
            metric = sample_metric(space, spec, sample)
            D = pair_distance_matrix(space, spec, sample)
            for q in (0.05, 0.2, 0.5, 0.8):
                lam = float(np.quantile(D[np.triu_indices(n, 1)], q))
                got = covers._greedy_net(metric, lam, lam, np.random.default_rng(seed))
                want = table_greedy_net(D, lam, lam, np.random.default_rng(seed))
                assert _net_sets(got) == _net_sets(want), (seed, q)

    def test_net_of_8000_points_with_balls_over_a_chunk(self):
        # balls of about a third of the circle, over 4096 points each; the
        # row route of the same distances is the reference
        for seed in range(3):
            sample = sample_boundary(E2, 8000, seed)
            metric = sample_metric(E2, MetricSpec("dA", A=1), sample)
            unordered = SampleMetric(metric.n, metric.dist)
            got = covers._greedy_net(metric, 1.5, 1.5, np.random.default_rng(seed))
            want = covers._greedy_net(unordered, 1.5, 1.5, np.random.default_rng(seed))
            assert _net_sets(got) == _net_sets(want), seed
            assert cover_stats(got, metric) == cover_stats(want, unordered), seed

    @pytest.mark.parametrize("name", ["R2", "T4", "T4-at-120", "R3"])
    def test_pushout_stats_equal_the_table_reference(self, name):
        space, _ = SORTED_SPACES[name]
        spec = MetricSpec("dA", A=1)
        for seed in range(8):
            sample = sample_boundary(space, (40, 150)[seed % 2], seed)
            metric = sample_metric(space, spec, sample)
            D = pair_distance_matrix(space, spec, sample)
            for lam in (0.5, 0.25, 0.125, 1 / 16, 1 / 64):
                cover = boundary_pushout_cover(space, LatticeBallSystem(space, 2), lam, 1, sample)
                assert cover_stats(cover, metric) == table_cover_stats(cover, D), (seed, lam)

    def test_tangent_ball_is_read_from_rows(self):
        # at lam = 1/4 the ray points lie on |x| = 4, the boundary of the
        # ball of radius 4 around the origin: which of them it holds is
        # decided by rounding, so its set is not a run on some seeds
        not_runs = 0
        for seed in range(30):
            sample = sample_boundary(E2, 80, seed)
            metric = sample_metric(E2, MetricSpec("dA", A=1), sample)
            cover = boundary_pushout_cover(E2, LatticeBallSystem(E2, 2), 0.25, 1, sample)
            run, _, _ = covers._runs(metric, cover.point_of, *covers._segments(cover.set_of))
            not_runs += not run.all()
            D = pair_distance_matrix(E2, MetricSpec("dA", A=1), sample)
            assert cover_stats(cover, metric) == table_cover_stats(cover, D), seed
        assert not_runs > 0

    def test_whole_circle_and_line_runs(self):
        # a set swallowing the sample, and sets at the ends of the line
        for space, spec in (SORTED_SPACES["R2"], SORTED_SPACES["T4"], SORTED_SPACES["H2"]):
            sample = sample_boundary(space, 50, 4)
            metric = sample_metric(space, spec, sample)
            D = pair_distance_matrix(space, spec, sample)
            order = metric.order.tolist()
            sets = [tuple(range(50)), tuple(sorted(order[:7])), tuple(sorted(order[-5:])),
                    tuple(sorted(order[7:-5])), tuple(sorted(order[3:9] + order[30:32]))]
            sets.append(tuple(sorted(set(range(50)) - set().union(*sets[1:]))))
            cover = _cover(50, [m for m in sets if m])
            assert cover_stats(cover, metric) == table_cover_stats(cover, D)
