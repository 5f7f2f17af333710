import itertools
import math
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visbound import covers, euclidean, spaces
from visbound.cli import main
from visbound.spaces import (
    EuclideanBoundary,
    EuclideanPoint,
    HyperbolicBoundary,
    HyperbolicPoint,
    IdenticalBoundaryPointsError,
    Ray,
    Space,
    SpaceMismatchError,
    TreeBoundary,
    TreePoint,
    _check_kind,
    boundary_to_line,
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

    # a letter draw takes one 32-bit half of a raw word
    def test_valence_range(self, tmp_path):
        for build in (lambda: tree_space(2 ** 32 + 1), lambda: Space("tree", valence=2 ** 32 + 1)):
            with pytest.raises(ValueError, match="2\\^32"):
                build()
        assert main(["metric", "--space", "tree4294967297", "--n", "5",
                     "--out", str(tmp_path)]) == 1
        pts = sample_boundary(tree_space(2 ** 32), 50, 0)
        assert len(set(pts)) == 50
        assert all(0 <= bp.letter(0) < 2 ** 32 for bp in pts)

    # the check sits in default_basepoint, which runs with a given basepoint too
    @pytest.mark.parametrize("k", [1, 2, 2 ** 32 + 1, 2 ** 33, 2 ** 64])
    def test_valence_out_of_range_rejected(self, k):
        with pytest.raises(ValueError, match=str(k)):
            tree_space(k)
        with pytest.raises(ValueError):
            tree_space(k, TreePoint(()))
        with pytest.raises(ValueError):
            spaces.space_of_id(f"tree{k}")

    @pytest.mark.parametrize("k", [3, 2 ** 32 - 1, 2 ** 32])
    def test_valence_in_range_accepted(self, k):
        space = tree_space(k)
        assert spaces.space_of_id(spaces.space_id(space)) == space
        pts = sample_boundary(space, 20, 7)
        assert all(0 <= bp.letter(0) < k for bp in pts)
        assert all(0 <= bp.letter(1) < k - 1 for bp in pts)

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

    # points of another dimension were measured on their common prefix:
    # this dist read 5.0, and the ray a 2-D point
    @pytest.mark.parametrize("other", [(3.0, 4.0, 12.0), (3.0,)])
    def test_dimension_mismatch_of_a_point(self, other):
        with pytest.raises(SpaceMismatchError, match="R\\^2"):
            dist(E2, EuclideanPoint((0.0, 0.0)), EuclideanPoint(other))
        with pytest.raises(SpaceMismatchError, match="R\\^2"):
            dist(E2, EuclideanPoint(other), EuclideanPoint((0.0, 0.0)))
        with pytest.raises(SpaceMismatchError, match="R\\^2"):
            Ray(E2, EuclideanPoint(other), EuclideanBoundary((1.0, 0.0)))

    @pytest.mark.parametrize("direction", [(0.0, 0.6, 0.8), (1.0,)])
    def test_dimension_mismatch_of_a_direction(self, direction):
        with pytest.raises(SpaceMismatchError, match="R\\^2"):
            ray_point(Ray(E2, EuclideanPoint((0.0, 0.0)), EuclideanBoundary(direction)), 1.0)
        with pytest.raises(SpaceMismatchError, match="R\\^2"):
            _check_kind(E2, EuclideanBoundary(direction))

    def test_basepoint_of_another_dimension_rejected(self):
        with pytest.raises(SpaceMismatchError, match="R\\^2"):
            euclidean_space(2, (0.0, 0.0, 0.0))
        assert euclidean_space(3, (0.0, 0.0, 0.0)).basepoint.coords == (0.0, 0.0, 0.0)

    # a tree point's letters were never checked: this dist read 1,
    # centers_near returned centers with the letter 9, the basepoint was
    # accepted, and a letter >= 256 failed inside bytes()
    @pytest.mark.parametrize("case", [
        lambda: dist(T4, TreePoint((9,)), TreePoint(())),
        lambda: covers.LatticeBallSystem(T4, 1).centers_near(TreePoint((9, 7))),
        lambda: tree_space(4, TreePoint((9,))),
        lambda: covers.LatticeBallSystem(T4, 1).centers_near(TreePoint((0, 256))),
    ], ids=["dist", "centers_near", "basepoint", "letter-256"])
    def test_illegal_tree_letters_rejected(self, case):
        with pytest.raises(ValueError, match="illegal tree word"):
            case()

    @pytest.mark.parametrize("word", [(3,), (3, 2), (0, 2, 2, 0), (1, -1), (0, 3), (4,)])
    def test_tree_letters_first_below_k_later_below_k_minus_1(self, word):
        legal = word[0] < 4 and min(word) >= 0 and max(word[1:], default=0) < 3
        if legal:
            assert dist(T4, TreePoint(word), TreePoint(())) == len(word)
        else:
            with pytest.raises(ValueError, match="illegal tree word"):
                dist(T4, TreePoint(word), TreePoint(()))

    # each was accepted, and `dist`, `eval_dA` and `eval_dbar` then read nan;
    # HyperbolicBoundary(inf) was stored as nan
    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("make", [
        lambda x: EuclideanPoint((x, 1.0)),
        lambda x: EuclideanPoint((0.0, x)),
        lambda x: EuclideanBoundary((x, 0.0)),
        lambda x: EuclideanBoundary((0.0, x)),
        lambda x: HyperbolicPoint(x, 0.0),
        lambda x: HyperbolicPoint(1.0, x),
        lambda x: HyperbolicBoundary(x),
        lambda x: euclidean_space(2, (x, 0.0)),
        lambda x: euclidean_space(1, (x,)),
        lambda x: hyperbolic_plane(HyperbolicPoint(x, 0.0)),
        lambda x: hyperbolic_plane(HyperbolicPoint(0.5, x)),
    ], ids=["euclidean-point-0", "euclidean-point-1", "direction-0", "direction-1",
            "hyperbolic-radius", "hyperbolic-angle", "hyperbolic-boundary",
            "euclidean2-basepoint", "euclidean1-basepoint", "hyperbolic-basepoint-radius",
            "hyperbolic-basepoint-angle"])
    def test_non_finite_points_rejected(self, make, x):
        with pytest.raises(ValueError, match="finite|unit vector"):
            make(x)

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

    @pytest.mark.parametrize("dim", [2, 3])
    def test_euclidean_equals_the_numpy_kernels(self, dim):
        # d * d summed left to right from 0, then sqrt: the operations of
        # `euclidean._inside` and of the R^n chord of `pair_kernel`.  A
        # `(a - b) ** 2` square goes through libm pow, and differed here in
        # 38 (R^2) and 30 (R^3) of these pairs (glibc 2.36)
        P, Q = np.random.default_rng(0).uniform(-4.0, 4.0, size=(2, 100_000, dim))
        sq = 0.0
        for i in range(dim):
            d = P[:, i] - Q[:, i]
            sq = sq + d * d
        want = np.sqrt(sq)
        E = euclidean_space(dim)
        got = np.array([dist(E, EuclideanPoint(tuple(p)), EuclideanPoint(tuple(q)))
                        for p, q in zip(P.tolist(), Q.tolist())])
        assert int((got != want).sum()) == 0
        assert not euclidean._inside(P, Q, got).any()
        assert euclidean._inside(P, Q, np.nextafter(got, np.inf)).all()

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("gap", [1e-200, 1e-160])
    def test_euclidean_tiny_gaps_against_the_exact_norm(self, dim, gap):
        # the squares of these differences underflow: dist, the ball test
        # and the chord rescale by the largest |difference| alike.  On an
        # axis the distance is the difference itself; elsewhere the
        # rescaled sum of squares rounds six times, within 2 ulps (1.73 at
        # worst over 18,000 such pairs)
        def exact_norm(diffs):
            s = sum(Fraction(d) ** 2 for d in diffs)
            return Fraction(math.isqrt(s.numerator * s.denominator << 4000),
                            s.denominator << 2000)

        E = euclidean_space(dim)
        Q = gap * np.random.default_rng(dim).uniform(-1.0, 1.0, size=(200, dim))
        Q[:dim] = gap * np.eye(dim)
        P = np.zeros_like(Q)
        got = np.array([dist(E, EuclideanPoint(tuple(p)), EuclideanPoint(tuple(q)))
                        for p, q in zip(P.tolist(), Q.tolist())])
        assert got[:dim].tolist() == [gap] * dim
        for d, q in zip(got.tolist(), Q.tolist()):
            want = exact_norm(q)
            assert abs(Fraction(d) - want) <= 2 * Fraction(math.ulp(float(want)))
        assert got.tolist() == euclidean._chord(P[:, i] - Q[:, i] for i in range(dim)).tolist()
        assert not euclidean._inside(P, Q, got).any()
        assert euclidean._inside(P, Q, np.nextafter(got, np.inf)).all()

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


class TestBoundaryLines:
    @pytest.mark.parametrize("space,bp,line", [
        (T4, TreeBoundary((1,), (0, 2)), "tree4 pre=1 per=0.2"),
        (E2, EuclideanBoundary((0.6, 0.8)), "euclidean2 dir=0.59999999999999998,0.80000000000000004"),
        (H2, HyperbolicBoundary(1.0), "hyperbolic_plane phi=1"),
    ])
    def test_each_space_writes_its_boundary_points(self, space, bp, line):
        # no experiment writes an H^2 boundary point
        assert boundary_to_line(space, bp) == line


class TestSampling:
    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            sample_boundary(T4, 0, 1)

    # n = 2.5 never equalled the sample's length, so the draw loop ran on
    @pytest.mark.parametrize("space", [T4, E2, H2], ids=["tree4", "E2", "H2"])
    @pytest.mark.parametrize("n", [2.5, 3.0, True, "3"])
    def test_non_int_sample_size_rejected(self, space, n):
        with pytest.raises(TypeError, match="sample size must be an int"):
            sample_boundary(space, n, 0)

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


def _reference_tree_draw(k, rng):
    # the per-draw generator calls behind a raw tree draw
    pre_len = int(rng.geometric(0.4)) - 1
    per_len = int(rng.integers(1, 5))
    letters = []
    for i in range(pre_len + per_len):
        hi = k if i == 0 and pre_len > 0 else k - 1
        letters.append(int(rng.integers(0, hi)))
    return pre_len, tuple(letters)


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
    pre_len, letters = _reference_tree_draw(space.valence, rng)
    return TreeBoundary(letters[:pre_len], letters[pre_len:])


def _reference_sample_boundary(space, n, seed):
    rng = substream(seed, f"boundary-{space.kind}")
    out, seen = [], set()
    while len(out) < n:
        bp = _reference_draw_boundary(space, rng)
        if bp is not None and bp not in seen:
            seen.add(bp)
            out.append(bp)
    return out


class TestSamplerAgainstTheLoop:
    @pytest.mark.parametrize("space", [tree_space(3), T4, tree_space(5), tree_space(7), E2,
                                       euclidean_space(3), H2],
                             ids=["tree3", "tree4", "tree5", "tree7", "E2", "E3", "H2"])
    @pytest.mark.parametrize("n", [1, 50, 1000])
    def test_sample_equals_the_per_draw_loop(self, space, n):
        # block draws, and skipping a repeated raw draw unbuilt, leave the
        # sample and its order as per-draw generator calls give them
        for seed in range(5):
            want = _reference_sample_boundary(space, n, seed)
            got = sample_boundary(space, n, seed)
            assert got == want
            assert [type(p) for p in got] == [type(p) for p in want]
            if space.kind == "tree":
                assert [(p.preperiod, p.period) for p in got] == [(p.preperiod, p.period)
                                                                  for p in want]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_direction_draws_equal_the_norm_loop(self, dim):
        # 10^4 raw directions, normalized twice by np.linalg.norm as the
        # per-draw loop does, bit for bit
        space = euclidean_space(dim)
        got = list(itertools.islice(spaces._euclidean_draws(space, substream(7, "dirs")), 10**4))
        rng = substream(7, "dirs")
        want = [_reference_draw_boundary(space, rng) for _ in range(10**4)]
        assert got == [p.direction for p in want]


_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _state_with_word(offset, word, seed):
    """A PCG64 state whose raw word at `offset` is `word`.  A word is
    rotr64(hi ^ lo, hi >> 58) of the stepped 128-bit state (hi == lo gives
    0), so pick hi and solve for lo; then step back offset + 1 times."""
    inc = substream(seed, "word").bit_generator.state["state"]["inc"]
    hi = int(substream(seed, "word").bit_generator.random_raw())
    r = hi >> 58
    lo = hi ^ ((word << r | word >> (64 - r)) & (1 << 64) - 1)
    state = (hi << 64) | lo
    for _ in range(offset + 1):
        state = (state - inc) * pow(_PCG64_MULT, -1, 1 << 128) % (1 << 128)
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def _generator(state):
    rng = np.random.default_rng()
    rng.bit_generator.state = state
    return rng


def _geometric_thresholds():
    # p, p + pq, ... for p = 0.4, summed as numpy's search sums them
    p = total = 0.4
    out = [total]
    while total < 1.0:
        p *= 0.6
        total += p
        out.append(total)
    return out


_VALENCES = [3, 4, 5, 7, 2 ** 32]


class TestRawTreeDraws:
    # the raw PCG64 words read by the rules of Generator.geometric and
    # Generator.integers give the values of the per-draw calls
    @staticmethod
    def assert_draws_match(k, state, count):
        got = itertools.islice(spaces._tree_draws(tree_space(k), _generator(state)), count)
        rng = _generator(state)
        assert list(got) == [_reference_tree_draw(k, rng) for _ in range(count)]

    @pytest.mark.parametrize("k", _VALENCES)
    def test_raw_draws_equal_the_generator_calls(self, k):
        for seed in range(20):
            self.assert_draws_match(k, substream(seed, "boundary-tree").bit_generator.state, 5000)

    @pytest.mark.parametrize("k", _VALENCES)
    @pytest.mark.parametrize("offset", range(6))
    def test_a_zero_word_reads_as_the_generator_reads_it(self, k, offset):
        # U = 0 for the geometric draw, a zero period draw and a 32-bit
        # letter draw of 0, which Lemire's rule rejects when 2^32 mod e > 0
        state = _state_with_word(offset, 0, k)
        assert _generator(state).bit_generator.random_raw(offset + 1)[-1] == 0
        self.assert_draws_match(k, state, 5000)

    @pytest.mark.parametrize("k", _VALENCES)
    @pytest.mark.parametrize("offset", [spaces._BLOCK - 1, spaces._BLOCK, spaces._BLOCK + 1])
    def test_a_zero_word_at_a_block_seam_reads_as_the_generator_reads_it(self, k, offset):
        # the zero word ends the first decoded block or starts the next, so
        # a rejected letter draw or a held high half straddles the seam
        state = _state_with_word(offset, 0, k)
        assert _generator(state).bit_generator.random_raw(offset + 1)[-1] == 0
        self.assert_draws_match(k, state, 5000)

    @pytest.mark.parametrize("j", range(4))
    def test_a_geometric_threshold_itself_is_not_passed(self, j):
        # U equal to the j-th threshold: numpy counts only the sums below U
        t = _geometric_thresholds()[j]
        state = _state_with_word(0, int(t * 2 ** 53) << 11, j)
        assert _generator(state).random() == t
        assert next(spaces._tree_draws(T4, _generator(state)))[0] == j
        self.assert_draws_match(4, state, 50)


class TestSeeds:
    def test_seeds_past_2_32_are_not_aliased(self):
        assert sample_boundary(T4, 20, 0) != sample_boundary(T4, 20, 2 ** 32)
        assert sample_boundary(E2, 20, 1) != sample_boundary(E2, 20, 2 ** 32 + 1)

    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 32 - 1])
    def test_seeds_below_2_32_keep_their_stream(self, seed):
        masked = np.random.default_rng([seed & 0xFFFFFFFF, zlib.crc32(b"boundary-tree")])
        assert (substream(seed, "boundary-tree").bit_generator.random_raw(64).tolist()
                == masked.bit_generator.random_raw(64).tolist())
