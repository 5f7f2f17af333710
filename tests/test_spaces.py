import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visbound import spaces
from visbound.spaces import (
    EuclideanBoundary,
    EuclideanPoint,
    HyperbolicBoundary,
    HyperbolicPoint,
    IdenticalBoundaryPointsError,
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

T4 = tree_space(4)
E2 = euclidean_space(2)
H2 = hyperbolic_plane()


def tree_letters(k, length):
    """Strategy for a valid non-backtracking letter word of given length."""
    first = st.integers(0, k - 1)
    rest = st.lists(st.integers(0, k - 2), min_size=length - 1, max_size=length - 1)
    return st.tuples(first, rest).map(lambda p: (p[0],) + tuple(p[1]))


class TestConstruction:
    def test_dimension_valence_validation(self):
        with pytest.raises(ValueError):
            euclidean_space(0)
        with pytest.raises(ValueError):
            tree_space(2)

    def test_tree_basepoint_must_be_vertex(self):
        with pytest.raises(ValueError):
            tree_space(4, TreePoint((0,), Fraction(1, 2)))

    def test_unit_direction_enforced(self):
        with pytest.raises(ValueError):
            EuclideanBoundary((1.0, 1.0))

    def test_tree_offset_range(self):
        with pytest.raises(ValueError):
            TreePoint((0,), Fraction(3, 2))

    def test_kind_mismatch(self):
        with pytest.raises(SpaceMismatchError):
            dist(T4, EuclideanPoint((0.0, 0.0)), TreePoint(()))

    @pytest.mark.parametrize("angle", [-5e-324, -1e-17, -0.0, 2 * math.pi])
    def test_hyperbolic_angles_wrap_into_zero_two_pi(self, angle):
        # x % 2pi rounds to 2pi for tiny negative x; that angle is 0
        assert HyperbolicBoundary(angle) == HyperbolicBoundary(0.0)
        assert HyperbolicPoint(1.0, angle) == HyperbolicPoint(1.0, 0.0)


class TestBoundaryWords:
    def test_period_made_primitive(self):
        assert TreeBoundary((), (1, 1)).period == (1,)

    def test_trailing_preperiod_absorbed(self):
        # 0 1 (1)^inf is the same word as 0 (1)^inf
        assert TreeBoundary((0, 1), (1,)) == TreeBoundary((0,), (1,))

    @given(pre=st.lists(st.integers(0, 2), max_size=4).map(tuple),
           per=st.lists(st.integers(0, 2), min_size=1, max_size=4).map(tuple))
    def test_canonical_equality_matches_word_equality(self, pre, per):
        a = TreeBoundary(pre, per)
        b = TreeBoundary(pre + per, per)       # unrolled once: same word
        assert a == b
        assert a.prefix(20) == b.prefix(20)

    @given(pre=st.lists(st.integers(0, 2), max_size=3).map(tuple),
           per=st.lists(st.integers(0, 2), min_size=1, max_size=3).map(tuple),
           n=st.integers(0, 30))
    def test_letter_agrees_with_prefix(self, pre, per, n):
        bp = TreeBoundary(pre, per)
        assert bp.prefix(n + 1)[n] == bp.letter(n)

    def test_branch_time_examples(self):
        a = TreeBoundary((), (0,))
        b = TreeBoundary((), (1,))
        assert branch_time(T4, a, b) == 0
        c = TreeBoundary((0, 1), (1,))
        assert branch_time(T4, a, c) == 1

    def test_branch_time_needs_word_expansion(self):
        x = TreeBoundary((0, 1), (2,))
        y = TreeBoundary((0, 1), (2, 0))
        # words 0 1 2 2 2... vs 0 1 2 0 2 0...: first disagreement at index 3
        assert branch_time(T4, x, y) == 3

    def test_identical_points_signal(self):
        a = TreeBoundary((), (0,))
        with pytest.raises(IdenticalBoundaryPointsError):
            branch_time(T4, a, TreeBoundary((0,), (0,)))

    @pytest.mark.parametrize("pre, per", [((), (3,)), ((4,), (0,)), ((0, 3), (1,)), ((0,), (-1,))],
                             ids=["pre= per=3", "pre=4 per=0", "pre=0.3 per=1", "pre=0 per=-1"])
    def test_illegal_tree_word_rejected(self, pre, per):
        # first letter < 4, later letters < 3 on T4
        word, legal = TreeBoundary(pre, per), TreeBoundary((), (0,))
        for x, y in ((word, legal), (legal, word)):
            with pytest.raises(ValueError, match="letter"):
                branch_time(T4, x, y)


class TestDistances:
    def test_tree_path_through_root(self):
        assert dist(T4, TreePoint((0,)), TreePoint((1,))) == 2

    def test_euclidean(self):
        assert dist(E2, EuclideanPoint((0.0, 0.0)), EuclideanPoint((3.0, 4.0))) == 5.0

    def test_hyperbolic_law_of_cosines(self):
        d = dist(H2, HyperbolicPoint(1, 0), HyperbolicPoint(1, math.pi))
        oracle = math.acosh(math.cosh(1.0) ** 2 + math.sinh(1.0) ** 2)
        assert abs(d - oracle) < 1e-12

    def test_hyperbolic_nearby_points_no_cancellation(self):
        p = HyperbolicPoint(5.0, 1.0)
        q = HyperbolicPoint(5.0, 1.0 + 1e-9)
        d = dist(H2, p, q)
        # ~ sinh(5) * dphi for small angle differences
        dphi = (1.0 + 1e-9) - 1.0
        assert abs(d - math.sinh(5.0) * dphi) < 1e-18 * math.sinh(5.0)

    def test_tree_distance_exact_fraction(self):
        p = TreePoint((0, 1), Fraction(1, 3))
        q = TreePoint((0,))
        assert dist(T4, p, q) == Fraction(1, 3)

    @given(st.data())
    @settings(max_examples=60)
    def test_tree_triangle_inequality_exact(self, data):
        pts = []
        for _ in range(3):
            w = data.draw(tree_letters(4, data.draw(st.integers(1, 4))))
            off = Fraction(data.draw(st.integers(0, 3)), 4)
            pts.append(TreePoint(w, off))
        a, b, c = pts
        assert dist(T4, a, c) <= dist(T4, a, b) + dist(T4, b, c)


class TestRays:
    def test_euclidean_ray(self):
        r = Ray(E2, EuclideanPoint((0.0, 0.0)), EuclideanBoundary((1.0, 0.0)))
        assert ray_point(r, 3).coords == (3.0, 0.0)

    def test_tree_ray_interior_point(self):
        r = Ray(T4, TreePoint(()), TreeBoundary((), (0,)))
        p = ray_point(r, Fraction(5, 2))
        assert p.word == (0, 0, 0) and p.offset == Fraction(1, 2)

    def test_hyperbolic_pole_ray(self):
        r = Ray(H2, HyperbolicPoint(0, 0), HyperbolicBoundary(math.pi / 2))
        p = ray_point(r, 1.0)
        assert p.r == 1.0 and abs(p.phi - math.pi / 2) < 1e-15

    def test_negative_parameter_rejected(self):
        r = Ray(E2, EuclideanPoint((0.0, 0.0)), EuclideanBoundary((1.0, 0.0)))
        with pytest.raises(ValueError):
            ray_point(r, -1)

    def test_unit_speed_sampled(self):
        targets = [EuclideanBoundary((0.6, 0.8))]
        rays = [Ray(E2, EuclideanPoint((1.0, 2.0)), targets[0]),
                Ray(H2, HyperbolicPoint(0.7, 0.3), HyperbolicBoundary(2.0)),
                Ray(T4, TreePoint((1, 0)), TreeBoundary((2,), (0, 1)))]
        for ray in rays:
            for s, t in [(0.5, 1.5), (1.0, 4.0), (2.0, 7.5)]:
                d = dist(ray.space, ray_point(ray, s), ray_point(ray, t))
                assert abs(float(d) - (t - s)) < 1e-10

    def test_tree_rebase_runs_through_root(self):
        # from vertex "0" toward 111...: back through root, then along 1s
        r = Ray(T4, TreePoint((0,)), TreeBoundary((), (1,)))
        assert ray_point(r, 1) == TreePoint(())
        assert ray_point(r, 3) == TreePoint((1, 1))

    def test_rebase_bound(self):
        # rays to a common boundary point stay within dist(origins)
        for space, o1, o2, xi in [
            (E2, EuclideanPoint((0.0, 0.0)), EuclideanPoint((0.0, 1.0)),
             EuclideanBoundary((1.0, 0.0))),
            (T4, TreePoint(()), TreePoint((0,)), TreeBoundary((), (1,))),
            (H2, HyperbolicPoint(0, 0), HyperbolicPoint(0.5, 1.0),
             HyperbolicBoundary(0.0)),
        ]:
            bound = float(dist(space, o1, o2)) + 1e-9
            r1 = Ray(space, o1, xi)
            r2 = Ray(space, o2, xi)
            for t in [0, 1, 2.5, 7, 20]:
                tt = Fraction(t) if space.kind == "tree" else t
                assert float(dist(space, ray_point(r1, tt), ray_point(r2, tt))) <= bound


class TestProjection:
    # the point at r toward z is the projection of z to the ball B(x0, r)
    def test_euclidean_projection(self):
        p = ray_point(Ray(E2, EuclideanPoint((0.0, 0.0)), EuclideanPoint((10.0, 0.0))), 2)
        assert p.coords == (2.0, 0.0)

    def test_inside_ball_fixed(self):
        z = EuclideanPoint((0.5, 0.0))
        assert ray_point(Ray(E2, EuclideanPoint((0.0, 0.0)), z), 2) == z

    def test_tree_boundary_projection(self):
        p = ray_point(Ray(T4, TreePoint(()), TreeBoundary((), (0,))), 3)
        assert p == TreePoint((0, 0, 0))

    def test_geodesic_midpoint(self):
        m = ray_point(Ray(T4, TreePoint((0, 0)), TreePoint((1,))), Fraction(3, 2))
        assert m == TreePoint((0,), Fraction(1, 2))


SEGMENTS = [
    (E2, EuclideanPoint((1.0, 2.0)), EuclideanPoint((-3.5, 0.25))),
    (E2, EuclideanPoint((0.0, 0.0)), EuclideanPoint((10.0, 0.0))),
    (T4, TreePoint((1, 0)), TreePoint((2, 1, 0), Fraction(1, 3))),
    (T4, TreePoint(()), TreePoint((0, 1, 2), Fraction(1, 2))),
    (T4, TreePoint((0, 1, 2)), TreePoint((0, 1), Fraction(1, 4))),
    (T4, TreePoint((0,)), TreePoint((0, 1, 1), Fraction(3, 4))),
    (H2, HyperbolicPoint(0.7, 0.3), HyperbolicPoint(2.0, 4.0)),
    (H2, HyperbolicPoint(0.0, 0.0), HyperbolicPoint(1.5, 2.5)),
    (H2, HyperbolicPoint(3.0, 1.0), HyperbolicPoint(0.2, 5.9)),
]


class TestSegments:
    @pytest.mark.parametrize("space, p, q", SEGMENTS)
    def test_point_at_t_splits_the_segment(self, space, p, q):
        # min(t, d) from p and d - min(t, d) from q: exact on T4, within
        # 1e-12 of d elsewhere; past d the walk stays at q itself
        d = dist(space, p, q)
        seg = Ray(space, p, q)
        for t in [0, d / 7, d / 2, d * 9 / 10, d, d * 3 / 2, d + 1]:
            x = ray_point(seg, t)
            s = min(t, d)
            if space.kind == "tree":
                assert (dist(space, p, x), dist(space, x, q)) == (s, d - s)
            else:
                assert abs(dist(space, p, x) - s) <= 1e-12 * d
                assert abs(dist(space, x, q) - (d - s)) <= 1e-12 * d
            if t >= d:
                assert x is q


class TestSampling:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            sample_boundary(T4, 0, 1)

    def test_line_has_two_boundary_points(self):
        E1 = euclidean_space(1)
        assert sorted(p.direction for p in sample_boundary(E1, 2, 0)) == [(-1.0,), (1.0,)]
        with pytest.raises(ValueError, match="2 boundary points"):
            sample_boundary(E1, 3, 0)

    def test_determinism(self):
        assert sample_boundary(E2, 25, 9) == sample_boundary(E2, 25, 9)
        assert sample_boundary(T4, 25, 9) == sample_boundary(T4, 25, 9)

    def test_tree_sample_distinct_and_valid(self):
        pts = sample_boundary(T4, 100, 7)
        assert len(set(pts)) == 100
        for bp in pts:
            assert 0 <= bp.letter(0) <= 3
            for i in range(1, len(bp.preperiod) + 2 * len(bp.period)):
                assert 0 <= bp.letter(i) <= 2


def _reference_draw_boundary(space, rng):
    # the per-draw sampler: every draw builds its boundary point
    if space.kind == "euclidean":
        v = rng.normal(size=space.dim)
        nv = float(np.linalg.norm(v))
        if nv == 0.0:
            return None
        v = v / nv
        v = v / float(np.linalg.norm(v))
        return EuclideanBoundary(tuple(float(c) for c in v))
    if space.kind == "hyperbolic_plane":
        return HyperbolicBoundary(float(rng.uniform(0, 2 * math.pi)))
    k = space.valence
    pre_len = int(rng.geometric(0.4)) - 1
    per_len = int(rng.integers(1, 5))
    letters = []
    for i in range(pre_len + per_len):
        hi = k if i == 0 and pre_len > 0 else k - 1
        letters.append(int(rng.integers(0, hi)))
    return TreeBoundary(tuple(letters[:pre_len]), tuple(letters[pre_len:]))


def _reference_sample_boundary(space, n, seed):
    rng = substream(seed, f"boundary-{space.kind}")
    out, seen = [], set()
    while len(out) < n:
        bp = _reference_draw_boundary(space, rng)
        if bp is not None and bp not in seen:
            seen.add(bp)
            out.append(bp)
    return out, rng.bit_generator.state


class TestSamplerAgainstTheLoop:
    @pytest.mark.parametrize("space", [tree_space(3), T4, tree_space(5), E2, H2],
                             ids=["tree3", "tree4", "tree5", "E2", "H2"])
    @pytest.mark.parametrize("n", [1, 50, 1000])
    def test_sample_equals_the_per_draw_loop(self, space, n, monkeypatch):
        # skipping a repeated raw draw unbuilt leaves the sample, its order
        # and the generator's calls as they were
        made = []

        def recording(seed, name):
            made.append(substream(seed, name))
            return made[-1]

        monkeypatch.setattr(spaces, "substream", recording)
        for seed in range(5):
            want, state = _reference_sample_boundary(space, n, seed)
            got = sample_boundary(space, n, seed)
            assert got == want and made[-1].bit_generator.state == state
            assert [type(p) for p in got] == [type(p) for p in want]
            if space.kind == "tree":
                assert [(p.preperiod, p.period) for p in got] == [(p.preperiod, p.period)
                                                                  for p in want]
