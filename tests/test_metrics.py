import itertools
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import elliprd, elliprf

from visbound import metrics
from visbound.metrics import (
    ConeNeighborhood,
    DivergentGromovProductError,
    MetricSpec,
    QuadratureNotConvergedError,
    SeparationNotReachedError,
    _bisect_dA,
    adaptive_simpson,
    cone_contains,
    eval_dA,
    eval_dbar,
    eval_dbar_extended,
    gromov_product,
    pair_blocks,
    pair_distance_matrix,
    pair_invariants,
    pair_kernel,
    pair_table,
    sample_metric,
    spec_dA,
    spec_dbar,
    with_basepoint,
)
from visbound.hyperbolic import _carlson_rf_rd, pole_dbar
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

from exact_tables import exact_table

T4 = tree_space(4)
E2 = euclidean_space(2)
H2 = hyperbolic_plane()


def branching_pair(n):
    a = TreeBoundary((), (0,))
    b = TreeBoundary((), (1,)) if n == 0 else TreeBoundary(tuple([0] * n) + (1,), (0,))
    return a, b


def circle_pair(theta):
    return (EuclideanBoundary((1.0, 0.0)),
            EuclideanBoundary((math.cos(theta), math.sin(theta))))


class TestSpecValidation:
    def test_dA_needs_positive_A(self):
        with pytest.raises(ValueError):
            MetricSpec("dA", A=0)

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            MetricSpec("dC")

    def test_tol_positive(self):
        with pytest.raises(ValueError):
            MetricSpec("dbar", tol=0)

    # A = inf gave an all-zero d_A table and A = nan a NaN one; with
    # tol = nan the adaptive Simpson recursion never met its tolerance
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0, -1])
    def test_dA_needs_finite_positive_A(self, bad):
        with pytest.raises(ValueError, match="finite A > 0"):
            MetricSpec("dA", A=bad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0, -1])
    @pytest.mark.parametrize("family,A", [("dA", 1), ("dbar", None)])
    def test_tol_finite_positive(self, bad, family, A):
        with pytest.raises(ValueError, match="tol must be finite"):
            MetricSpec(family, A=A, tol=bad)


    # a misspelled method took the closed form
    @pytest.mark.parametrize("evaluate,spec,method", [(eval_dA, spec_dA(1), "bisection"),
                                                      (eval_dbar, spec_dbar(), "quad")])
    def test_unknown_method_rejected(self, evaluate, spec, method):
        a, b = branching_pair(2)
        with pytest.raises(ValueError, match="method must be"):
            evaluate(T4, spec, a, b, method=method)


class TestDA:
    def test_tree_closed_form(self):
        for n in range(6):
            a, b = branching_pair(n)
            assert eval_dA(T4, spec_dA(1), a, b) == Fraction(1, 1) / (n + Fraction(1, 2))

    def test_identical_points_give_zero(self):
        a = TreeBoundary((), (0,))
        assert eval_dA(T4, spec_dA(1), a, a) == 0
        e = EuclideanBoundary((1.0, 0.0))
        assert eval_dA(E2, spec_dA(3), e, e) == 0.0

    def test_euclidean_chord_over_A(self):
        for theta in (0.3, 1.0, math.pi / 2, 3.0):
            x, y = circle_pair(theta)
            want = 2 * math.sin(theta / 2) / 2.5
            assert abs(eval_dA(E2, spec_dA(2.5), x, y) - want) < 1e-14

    def test_bisect_agrees_with_closed_forms(self):
        a, b = branching_pair(3)
        assert abs(float(eval_dA(T4, spec_dA(1), a, b))
                   - eval_dA(T4, spec_dA(1), a, b, method="bisect")) < 1e-10
        x, y = circle_pair(1.2)
        assert abs(eval_dA(E2, spec_dA(1), x, y)
                   - eval_dA(E2, spec_dA(1), x, y, method="bisect")) < 1e-9

    def test_hyperbolic_pole_closed_vs_bisect(self):
        u, v = HyperbolicBoundary(0.2), HyperbolicBoundary(2.1)
        closed = eval_dA(H2, spec_dA(1), u, v)
        assert abs(closed - eval_dA(H2, spec_dA(1), u, v, method="bisect")) < 1e-9

    def test_pole_bisect_at_the_closest_angles(self):
        # sin(dphi/2) rounds to 0; the separation reads log s from dphi
        u, v = HyperbolicBoundary(0.0), HyperbolicBoundary(5e-324)
        closed = eval_dA(H2, spec_dA(1), u, v)
        assert closed > 0.0
        assert abs(eval_dA(H2, spec_dA(1), u, v, method="bisect") - closed) <= 1e-9 * closed

    def test_bisect_raises_when_separation_never_reaches_A(self):
        with pytest.raises(SeparationNotReachedError):
            _bisect_dA(lambda t: 0.0, 1.0, 1e-10)
        # -5e-324 wraps to the angle 0, not to 2pi: one boundary point, one value
        u, v = HyperbolicBoundary(0.0), HyperbolicBoundary(-5e-324)
        assert u == v
        assert eval_dA(H2, spec_dA(1), u, v) == 0.0
        assert eval_dA(H2, spec_dA(1), u, v, method="bisect") == 0.0

    def test_time_to_separation_monotone_in_A(self):
        # a(A) <= a(A') for A <= A', i.e. 1/dA(A) <= 1/dA(A')
        for xi, eta in [branching_pair(2)]:
            a1 = 1 / eval_dA(T4, spec_dA(1), xi, eta)
            a2 = 1 / eval_dA(T4, spec_dA(2), xi, eta)
            assert a1 <= a2
        x, y = circle_pair(0.7)
        assert 1 / eval_dA(E2, spec_dA(1), x, y) <= 1 / eval_dA(E2, spec_dA(2), x, y)


class TestDbar:
    def test_tree_closed_form(self):
        for n in range(5):
            a, b = branching_pair(n)
            assert eval_dbar(T4, spec_dbar(), a, b) == 2.0 * math.exp(-n)

    def test_branch_zero_gives_two(self):
        a, b = branching_pair(0)
        assert eval_dbar(T4, spec_dbar(), a, b) == 2.0

    def test_euclidean_equals_chord(self):
        x, y = circle_pair(0.9)
        chord = 2 * math.sin(0.45)
        assert abs(eval_dbar(E2, spec_dbar(), x, y) - chord) < 1e-15
        assert abs(eval_dbar(E2, spec_dbar(), x, y, method="quadrature") - chord) < 1e-10

    def test_quadrature_agrees_on_tree(self):
        for n in range(5):
            a, b = branching_pair(n)
            q = eval_dbar(T4, spec_dbar(), a, b, method="quadrature")
            assert abs(q - 2.0 * math.exp(-n)) < 1e-10

    def test_pole_auto_reads_the_grid_kernel(self):
        pts = sample_boundary(H2, 30, 4) + [HyperbolicBoundary(1.0 + 1e-6),
                                           HyperbolicBoundary(1.0 + math.pi)]
        pts.insert(0, HyperbolicBoundary(1.0))
        D = pair_distance_matrix(H2, spec_dbar(), pts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                v = eval_dbar(H2, spec_dbar(), pts[i], pts[j])
                assert abs(v - D[i, j]) <= 1e-14 * D[i, j]

    def test_adaptive_simpson_known_integral(self):
        v = adaptive_simpson(lambda r: r * math.exp(-r), 0.0, 40.0, 1e-12)
        assert abs(v - (1.0 - 41.0 * math.exp(-40.0))) < 1e-11

    def test_adaptive_simpson_raises_at_the_depth_limit(self):
        # a jump at 1/3, never an end or a midpoint: the dyadic pieces on
        # either side integrate exactly, and the piece holding the jump
        # never meets tolerance 1e-300 within the depth limit
        jump = lambda r: 0.0 if r < 1 / 3 else 1.0
        with pytest.raises(QuadratureNotConvergedError,
                           match=r"on \[0\.333.*\] after 50 bisections.*> tolerance 8\.8.*e-316"):
            adaptive_simpson(jump, 0.0, 1.0, 1e-300)
        # the smooth integrand converges well before the limit
        adaptive_simpson(lambda r: r * math.exp(-r), 0.0, 40.0, 1e-12)


def pole_dbar_integral(dphi):
    with mpmath.workdps(20):
        return half_sine_dbar_integral(mpmath.sin(mpmath.mpf(dphi) / 2))


def half_sine_dbar_integral(s):
    """dbar of two rays at half-angle sine s: the integral of
    2s(1+y^2)/sqrt(4y^2 + s^2(1-y^2)^2) over [0, 1], by mpmath at 20
    digits: y = (s/2)e^u puts the bump near y = s/2 at u = 0, and the
    integrand is divided by s so that the quadrature's error target scales
    with the value.  Below u = -60 the integrand is 2 to within a relative
    e^-120, so that piece is 2y at y = (s/2)e^-60."""
    with mpmath.workdps(20):
        s = +s
        h = s / 2
        g = lambda y: 2 * (1 + y * y) / mpmath.sqrt(4 * y * y + s * s * (1 - y * y) ** 2) * y
        body = mpmath.quad(lambda u: g(h * mpmath.exp(u)), mpmath.linspace(-60, -mpmath.log(h), 16))
        return s * body + 2 * h * mpmath.exp(-60)


class TestPoleDbar:
    """The Carlson closed form of pole dbar against independent oracles."""

    def test_carlson_integrals_match_scipy(self):
        rng = np.random.default_rng(5)
        x, y, z = 10.0 ** rng.uniform(-200, 200, size=(3, 3000))
        rf, rd = _carlson_rf_rd(x, y, z)
        assert np.all(np.abs(rf / elliprf(x, y, z) - 1.0) <= 1e-15)
        assert np.all(np.abs(rd / elliprd(x, y, z) - 1.0) <= 1e-15)

    @pytest.mark.parametrize("dphi", [1e-300, 1e-100, 1e-20, 1e-8 * (1 - 1e-12), 1e-8, 1e-6,
                                      1e-4, 1e-2, 0.3, 1.0, 2.0, 3.0, math.pi])
    def test_matches_mpmath_integral(self, dphi):
        want = pole_dbar_integral(dphi)
        got = pole_dbar(np.array([dphi]))[0]
        assert abs(got - want) <= 1e-14 * want
        pts = [HyperbolicBoundary(0.0), HyperbolicBoundary(dphi)]
        assert eval_dbar(H2, spec_dbar(), *pts) == got

    def test_subnormal_angles_finite_positive_increasing(self):
        vals = pole_dbar(np.array([0.0, 5e-324, 1e-320, 1e-300]))
        assert vals[0] == 0.0
        assert np.all(np.isfinite(vals)) and np.all(np.diff(vals) > 0.0)

    def test_values_independent_of_the_batch(self):
        rng = np.random.default_rng(9)
        dphi = np.concatenate([rng.uniform(0.0, math.pi, 500), 10.0 ** rng.uniform(-320, 0, 300),
                               [0.0, math.pi, 1e-8, 1e-8 * (1 - 1e-16)]])
        whole = pole_dbar(dphi)
        perm = rng.permutation(len(dphi))
        assert np.array_equal(pole_dbar(dphi[perm]), whole[perm])
        assert np.array_equal(np.concatenate([pole_dbar(dphi[lo:lo + 7])
                                              for lo in range(0, len(dphi), 7)]), whole)
        assert np.array_equal(pole_dbar(dphi[::3]), whole[::3])
        assert all(pole_dbar(dphi[k:k + 1])[0] == whole[k] for k in range(0, len(dphi), 11))

    @pytest.mark.parametrize("dphi", [1e-6, 1e-3, 0.3, 1.0, 2.5, math.pi])
    def test_quadrature_agrees(self, dphi):
        spec = spec_dbar()
        pts = [HyperbolicBoundary(0.5), HyperbolicBoundary(0.5 + dphi)]
        quad = eval_dbar(H2, spec, *pts, method="quadrature")
        assert abs(quad - eval_dbar(H2, spec, *pts)) <= spec.tol


class TestDbarExtended:
    def test_interior_identity(self):
        p = TreePoint((0, 1))
        assert eval_dbar_extended(T4, spec_dbar(), p, p) == 0.0

    def test_basepoint_to_boundary(self):
        # frozen path from x0 stays at x0: d(r) = r, integral 1
        xi = TreeBoundary((), (0,))
        v = eval_dbar_extended(T4, spec_dbar(), TreePoint(()), xi)
        assert abs(v - 1.0) < 1e-10

    def test_point_on_ray_at_distance_s(self):
        # d(r) = max(0, r - s): integral e^{-s}
        xi = TreeBoundary((), (0,))
        for s in (1, 3):
            x = TreePoint(tuple([0] * s))
            v = eval_dbar_extended(T4, spec_dbar(), x, xi)
            assert abs(v - math.exp(-s)) < 1e-10

    def test_interior_lower_bound(self):
        # d̄(x, eta) >= e^{-d(x0,x)} for any boundary eta off the ray
        x = TreePoint((0, 0))
        for eta in sample_boundary(T4, 30, 5):
            v = eval_dbar_extended(T4, spec_dbar(), x, eta)
            assert v >= math.exp(-2.0) - 1e-10

    def test_boundary_pair_delegates(self):
        a, b = branching_pair(2)
        assert abs(eval_dbar_extended(T4, spec_dbar(), a, b)
                   - eval_dbar(T4, spec_dbar(), a, b)) < 1e-10


class TestGromovProduct:
    def test_tree_is_branch_time(self):
        a, b = branching_pair(3)
        assert gromov_product(T4, TreePoint(()), a, b) == 3

    def test_identical_is_infinite(self):
        a = TreeBoundary((), (0,))
        assert gromov_product(T4, TreePoint(()), a, a) == math.inf

    def test_hyperbolic_antipodal_is_zero(self):
        v = gromov_product(H2, HyperbolicPoint(0, 0),
                           HyperbolicBoundary(0.0), HyperbolicBoundary(math.pi))
        assert abs(v) < 1e-10

    def test_hyperbolic_matches_log_formula(self):
        # limit t - f(t)/2 -> -ln sin(dphi/2) for pole rays
        for dphi in (0.4, 1.0, 2.5):
            v = gromov_product(H2, HyperbolicPoint(0, 0),
                               HyperbolicBoundary(0.0), HyperbolicBoundary(dphi))
            assert abs(v + math.log(math.sin(dphi / 2))) < 1e-9

    def test_euclidean_divergence_signaled(self):
        x, y = circle_pair(1.0)
        with pytest.raises(DivergentGromovProductError):
            gromov_product(E2, EuclideanPoint((0.0, 0.0)), x, y)

    @staticmethod
    def _doubling_limit(space, xi, eta, tol=1e-10, max_doublings=60):
        """t - f(t)/2 at t = 2^j until Cauchy, with f(t) the distance of the
        two basepoint ray points; None if it never stabilizes."""
        rx, re = Ray(space, space.basepoint, xi), Ray(space, space.basepoint, eta)
        prev = None
        for j in range(max_doublings + 1):
            t = float(2 ** j)
            g = t - dist(space, ray_point(rx, t), ray_point(re, t)) / 2.0
            if prev is not None and abs(g - prev) < tol:
                return g
            prev = g
        return None

    @pytest.mark.parametrize("dphi", [1e-6, 1e-3, 0.4, 1.0, 2.5, math.pi - 1e-9, math.pi,
                                      2 * math.pi - 0.3])
    def test_pole_closed_form_matches_doubling_loop(self, dphi):
        xi, eta = HyperbolicBoundary(0.5), HyperbolicBoundary(0.5 + dphi)
        want = self._doubling_limit(H2, xi, eta)
        got = gromov_product(H2, H2.basepoint, xi, eta)
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want))

    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.0, 4.1])
    def test_euclidean_closed_form_matches_doubling_loop(self, theta):
        xi = EuclideanBoundary((math.cos(theta), math.sin(theta)))
        antipode = EuclideanBoundary((math.cos(theta + math.pi), math.sin(theta + math.pi)))
        want = self._doubling_limit(E2, xi, antipode)
        assert abs(gromov_product(E2, E2.basepoint, xi, antipode) - want) <= 1e-10
        near = EuclideanBoundary((math.cos(theta + 3.0), math.sin(theta + 3.0)))
        assert self._doubling_limit(E2, xi, near) is None
        with pytest.raises(DivergentGromovProductError):
            gromov_product(E2, E2.basepoint, xi, near)

    def test_pole_closest_angles_match_mpmath(self):
        # sin(dphi/2) rounds to 0 at the smallest subnormal gap; log s is
        # read from dphi, so the Gromov product and d_A stay finite
        xi, eta = HyperbolicBoundary(0.0), HyperbolicBoundary(5e-324)
        with mpmath.workprec(200):
            s = mpmath.sin(mpmath.mpf(eta.angle) / 2)
            want_product = float(-mpmath.log(s))
            want_dA = float(1 / mpmath.asinh(mpmath.sinh(mpmath.mpf(1) / 2) / s))
        product = gromov_product(H2, H2.basepoint, xi, eta)
        assert abs(product - want_product) <= 1e-14 * want_product
        dA = eval_dA(H2, spec_dA(1), xi, eta)
        assert abs(dA - want_dA) <= 1e-14 * want_dA


class TestRebasedTree:
    def test_branch_from_other_vertex(self):
        # from vertex "1", rays to 000... and 011... split one step out
        origin = TreePoint((1,))
        xi = TreeBoundary((), (0,))
        eta = TreeBoundary((0, 1), (1,))
        assert pair_invariants(T4, [xi, eta], [0], [1], origin).item(0) == 2

    def test_da_with_moved_basepoint(self):
        origin = TreePoint((0,))
        spec = MetricSpec("dA", A=1, basepoint=origin)
        xi = TreeBoundary((), (1,))
        eta = TreeBoundary((), (2,))
        # both rays leave through the root, one step from the new basepoint
        assert eval_dA(T4, spec, xi, eta) == Fraction(1, 1) / (1 + Fraction(1, 2))

    def test_with_basepoint_helper(self):
        spec = with_basepoint(spec_dA(1), TreePoint((2,)))
        assert spec.basepoint == TreePoint((2,))


class TestConeTopology:
    def test_own_endpoint_always_inside(self):
        xi = TreeBoundary((), (0,))
        ray = Ray(T4, TreePoint(()), xi)
        for r, eps in [(1, 0.1), (5, 0.01), (2, 3)]:
            assert cone_contains(T4, ConeNeighborhood(ray, r, eps), xi)

    def test_tree_shared_projection(self):
        ray = Ray(T4, TreePoint(()), TreeBoundary((), (0,)))
        z = TreeBoundary((0, 0, 1), (1,))
        assert cone_contains(T4, ConeNeighborhood(ray, 1, Fraction(1, 100)), z)

    def test_euclidean_outside(self):
        ray = Ray(E2, EuclideanPoint((0.0, 0.0)), EuclideanBoundary((1.0, 0.0)))
        assert not cone_contains(E2, ConeNeighborhood(ray, 1, 0.5),
                                 EuclideanPoint((10.0, 10.0)))

    def test_interior_point_inside_ball_excluded(self):
        ray = Ray(E2, EuclideanPoint((0.0, 0.0)), EuclideanBoundary((1.0, 0.0)))
        assert not cone_contains(E2, ConeNeighborhood(ray, 5, 1.0),
                                 EuclideanPoint((1.0, 0.0)))

    def test_metric_convergence_implies_cone_membership(self):
        # shrinking cylinders around xi converge in both metrics
        xi = TreeBoundary((), (0,))
        ray = Ray(T4, TreePoint(()), xi)
        nbhd = ConeNeighborhood(ray, 4, Fraction(1, 10))
        prev_da, prev_db = math.inf, math.inf
        for n in (1, 3, 5, 8):
            zn = TreeBoundary(tuple([0] * n) + (1,), (0,))
            da = eval_dA(T4, spec_dA(1), xi, zn)
            db = eval_dbar(T4, spec_dbar(), xi, zn)
            assert da < prev_da and db < prev_db
            prev_da, prev_db = da, db
            if n >= 5:
                assert cone_contains(T4, nbhd, zn)


class TestPairMatrix:
    def test_matches_pointwise_euclidean(self):
        pts = sample_boundary(E2, 40, 8)
        D = pair_distance_matrix(E2, spec_dA(1), pts)
        rng = substream(8, "check")
        for _ in range(50):
            i, j = rng.integers(0, 40, size=2)
            want = float(eval_dA(E2, spec_dA(1), pts[int(i)], pts[int(j)]))
            assert abs(D[i, j] - want) < 1e-12

    def test_matches_pointwise_tree_with_basepoint(self):
        pts = sample_boundary(T4, 30, 8)
        spec = MetricSpec("dA", A=1, basepoint=TreePoint((0,)))
        D = pair_distance_matrix(T4, spec, pts)
        for i in range(0, 30, 7):
            for j in range(i + 1, 30, 5):
                assert abs(D[i, j] - float(eval_dA(T4, spec, pts[i], pts[j]))) < 1e-15

    def test_hyperbolic_dbar_batch_vs_adaptive(self):
        pts = sample_boundary(H2, 12, 8)
        D = pair_distance_matrix(H2, spec_dbar(), pts)
        for i in range(0, 12, 3):
            for j in range(i + 1, 12, 2):
                slow = eval_dbar(H2, spec_dbar(), pts[i], pts[j], method="quadrature")
                assert abs(D[i, j] - slow) < 1e-8


def unblocked_table(space, spec, points):
    """The pair table as one `pair_invariants` call over np.triu_indices,
    mapped and mirrored."""
    n = len(points)
    I, J = np.triu_indices(n, k=1)
    values = metrics._closed_form(space, spec,
                                  pair_invariants(space, points, I, J, spec.base(space)))
    D = np.zeros((n, n), dtype=values.dtype)
    D[I, J] = D[J, I] = values
    return D


OFF_POLE = HyperbolicPoint(1.3, 2.0)
BLOCK_CASES = {
    "tree4-dA": (T4, spec_dA(1), False),
    "tree4-dA-exact": (T4, spec_dA(0.7), True),
    "tree4-dA-exact-v": (T4, with_basepoint(spec_dA(1), TreePoint((2, 0, 1))), True),
    "tree4-dbar": (T4, spec_dbar(), False),
    "euclidean2-dA": (E2, spec_dA(1), False),
    "euclidean2-dbar": (E2, spec_dbar(), False),
    "euclidean3-dA": (euclidean_space(3), spec_dA(0.7), False),
    "h2-pole-dA": (H2, spec_dA(1), False),
    "h2-pole-dbar": (H2, spec_dbar(), False),
    "h2-off-dA": (H2, with_basepoint(spec_dA(0.7), OFF_POLE), False),
    "h2-off-dbar": (H2, with_basepoint(spec_dbar(), OFF_POLE), False),
}


def exact_block_table(space, spec, points):
    """The exact tree d_A table as `quasisym.ratio_pool` builds it: a
    branch-time table filled by `pair_table`, -1 on its diagonal, through
    the exact closed form, read back as `Fraction`s."""
    B = pair_table(len(points), pair_kernel(space, points, spec.base(space)), diagonal=-1)
    D = metrics._closed_form(space, spec, B, exact=True)
    assert D.num.shape == D.den.shape == B.shape
    assert {type(x) for x in D.num.ravel()} | {type(x) for x in D.den.ravel()} <= {int}
    return [list(map(Fraction, a, b)) for a, b in zip(D.num.tolist(), D.den.tolist())]


class TestBlockFill:
    """`pair_distance_matrix` fills its table in blocks of at most
    `_PAIR_CHUNK` pairs, and so does the branch-time table of an exact tree
    d_A table; the table must not depend on the blocks."""

    @pytest.mark.parametrize("case", sorted(BLOCK_CASES))
    def test_equals_the_unblocked_table(self, case, monkeypatch):
        space, spec, exact = BLOCK_CASES[case]
        points = sample_boundary(space, 129, 7)
        # 129 points give 8256 pairs, one full block of 8192 and a partial
        # one; blocks of 7 split rows at 6 and 23 points
        for chunk, sizes in ((metrics._PAIR_CHUNK, (0, 1, 2, 129)), (7, (2, 3, 6, 23))):
            monkeypatch.setattr(metrics, "_PAIR_CHUNK", chunk)
            for n in sizes:
                if exact:
                    D = exact_block_table(space, spec, points[:n])
                    assert D == exact_table(space, spec, points[:n]).tolist()
                    continue
                D = pair_distance_matrix(space, spec, points[:n])
                want = unblocked_table(space, spec, points[:n])
                assert D.dtype == want.dtype and D.shape == want.shape
                assert D.tobytes() == want.tobytes()

    @pytest.mark.parametrize("size", [1, 7, 8192])
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 129])
    def test_pair_walk_is_the_upper_triangle_in_order(self, n, size):
        # the walk behind `pair_table` and pairs.csv: blocks of `size`
        # pairs, the last one partial, and one empty block when n < 2
        blocks = list(pair_blocks(n, size))
        total = n * (n - 1) // 2
        assert [len(I) for I, _ in blocks] == [len(J) for _, J in blocks] == \
            [min(size, total - lo) for lo in range(0, max(total, 1), size)]
        I, J = np.triu_indices(n, k=1)
        assert np.concatenate([I for I, _ in blocks]).tolist() == I.tolist()
        assert np.concatenate([J for _, J in blocks]).tolist() == J.tolist()

    def test_errors_raise_from_any_block(self, monkeypatch):
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", 7)
        points = sample_boundary(T4, 20, 7)
        with pytest.raises(IdenticalBoundaryPointsError):
            pair_distance_matrix(T4, spec_dA(1), points + [points[3]])
        with pytest.raises(ValueError, match="illegal tree word"):
            pair_distance_matrix(T4, spec_dA(1), points + [TreeBoundary((1, 3), (0,))])

    @pytest.mark.parametrize("space, spec", [(E2, spec_dA(1)), (H2, spec_dbar())],
                             ids=["euclidean2-dA", "h2-dbar"])
    def test_scratch_is_bounded(self, space, spec):
        # an all-pairs fill peaks at 58.6 MB (euclidean2 dA) and 353 MB
        # (H^2 dbar) for this 19.5 MB table
        points = sample_boundary(space, 1600, 0)
        tracemalloc.start()
        try:
            D = pair_distance_matrix(space, spec, points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < D.nbytes + 4 * 2**20


MISMATCH_SPACES = {"tree4": T4, "euclidean2": E2, "euclidean3": euclidean_space(3), "h2": H2}
# each entry of the metric layer, on two distinct points
METRIC_ENTRIES = {
    "pair_kernel": lambda space, pts: pair_kernel(space, pts),
    "pair_invariants": lambda space, pts: pair_invariants(space, pts, [0], [1]),
    "pair_distance_matrix": lambda space, pts: pair_distance_matrix(space, spec_dbar(), pts),
    "eval_dA": lambda space, pts: eval_dA(space, spec_dA(1), *pts),
    "eval_dA-bisect": lambda space, pts: eval_dA(space, spec_dA(1), *pts, method="bisect"),
    "eval_dbar": lambda space, pts: eval_dbar(space, spec_dbar(), *pts),
    "eval_dbar-quadrature": lambda space, pts: eval_dbar(space, spec_dbar(), *pts,
                                                         method="quadrature"),
    "gromov_product": lambda space, pts: gromov_product(space, space.basepoint, *pts),
}


class TestSpaceMismatch:
    """Points of another space are rejected where the metric layer takes
    them in.  Tree points on H^2 raised AttributeError (no `angle`), and
    3-vectors on R^2 numpy's reshape error."""

    @pytest.mark.parametrize("space, other", [(a, b) for a in MISMATCH_SPACES
                                              for b in MISMATCH_SPACES if a != b])
    def test_points_of_another_space_rejected(self, space, other):
        space, pts = MISMATCH_SPACES[space], sample_boundary(MISMATCH_SPACES[other], 2, 1)
        for call in METRIC_ENTRIES.values():
            with pytest.raises(SpaceMismatchError):
                call(space, pts)

    def test_direction_of_another_dimension_rejected(self):
        pts = sample_boundary(E2, 5, 1) + [EuclideanBoundary((0.0, 0.6, 0.8))]
        with pytest.raises(SpaceMismatchError, match="R\\^2"):
            pair_distance_matrix(E2, spec_dA(1), pts)
        for call in METRIC_ENTRIES.values():
            with pytest.raises(SpaceMismatchError):
                call(E2, pts[-2:])

    def test_sample_of_another_dimension_rejected(self):
        # every direction 3-D: no (n, 2) reshape takes the (n, 3) array
        pts = sample_boundary(euclidean_space(3), 6, 1)
        with pytest.raises(SpaceMismatchError, match="R\\^2"):
            pair_distance_matrix(E2, spec_dA(1), pts)
        for call in METRIC_ENTRIES.values():
            with pytest.raises(SpaceMismatchError):
                call(E2, pts[:2])

    def test_empty_sample(self):
        none = np.zeros(0, dtype=np.intp)
        assert pair_kernel(E2, [])(none, none).shape == (0,)
        assert pair_distance_matrix(E2, spec_dA(1), []).shape == (0, 0)

    @pytest.mark.parametrize("space, other", [("tree4", "h2"), ("h2", "tree4"),
                                              ("euclidean2", "tree4")])
    def test_origin_of_another_space_rejected(self, space, other):
        space = MISMATCH_SPACES[space]
        with pytest.raises(SpaceMismatchError):
            pair_kernel(space, sample_boundary(space, 3, 1), MISMATCH_SPACES[other].basepoint)


def ray_branch_reference(space, origin, xi, eta):
    """Branch time from `origin` read off the rays themselves: past the
    split time t, b = t - d(ray_xi(t), ray_eta(t)) / 2."""
    t = Fraction(len(origin.word)) + branch_time(space, xi, eta) + 2
    f = dist(space, ray_point(Ray(space, origin, xi), t), ray_point(Ray(space, origin, eta), t))
    return t - f / 2


def kernel_origins(points):
    """Vertices at depths 0-5: the root, prefixes of sample words (running
    past their preperiods), and prefixes that leave the word partway."""
    out = [TreePoint(())]
    for xi in points[:4]:
        for depth in range(1, 6):
            w = xi.prefix(depth)
            out.append(TreePoint(w))
            if depth >= 2:
                out.append(TreePoint(w[:-1] + ((w[-1] + 1) % 3,)))
    return out


def assert_kernel_matches_reference(space, points, origin):
    """pair_invariants against the ray reference: over the upper triangle,
    over the same pairs shuffled and in both orders, and one pair at a
    time."""
    n = len(points)
    I, J = np.triu_indices(n, k=1)
    want = [ray_branch_reference(space, origin, points[i], points[j])
            for i, j in zip(I.tolist(), J.tolist())]
    assert pair_invariants(space, points, I, J, origin).tolist() == want
    perm = np.random.default_rng(n).permutation(len(I))
    got = pair_invariants(space, points, np.concatenate([J[perm], I[perm]]),
                          np.concatenate([I[perm], J[perm]]), origin)
    assert got.tolist() == [want[k] for k in perm] * 2
    for (i, j), b in zip(zip(I.tolist(), J.tolist()), want):
        assert pair_invariants(space, [points[i], points[j]], [0], [1], origin).item(0) == b


@st.composite
def tree_words(draw, k):
    """A valid boundary word of T_k: first letter in 0..k-1, later letters
    (the whole period included) in 0..k-2."""
    pre_len = draw(st.integers(0, 4))
    per = tuple(draw(st.lists(st.integers(0, k - 2), min_size=1, max_size=4)))
    rest = draw(st.lists(st.integers(0, k - 2), min_size=max(pre_len - 1, 0),
                         max_size=max(pre_len - 1, 0)))
    pre = ((draw(st.integers(0, k - 1)),) + tuple(rest)) if pre_len else ()
    return TreeBoundary(pre, per)


class TestBranchKernel:
    def test_table_and_scalar_match_ray_reference(self):
        pts = sample_boundary(T4, 25, 11)
        for origin in kernel_origins(pts):
            assert_kernel_matches_reference(T4, pts, origin)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_words_and_origins(self, data):
        k = data.draw(st.sampled_from([3, 4, 5]))
        space = tree_space(k)
        words = data.draw(st.lists(tree_words(k), min_size=2, max_size=8))
        points = list(dict.fromkeys(words))
        depth = data.draw(st.integers(0, 5))
        origin = TreePoint(tuple(data.draw(tree_words(k)).prefix(depth)))
        assert_kernel_matches_reference(space, points, origin)

    def test_split_after_the_longest_period(self):
        # (01)^inf and (010)^inf agree on 3 letters: the unrolled length must
        # reach past the longest period, up to the lcm of the two
        pts = [TreeBoundary((), (0, 1)), TreeBoundary((), (0, 1, 0)),
               TreeBoundary((2,), (0, 1)), TreeBoundary((2,), (0, 1, 0))]
        assert pair_invariants(T4, pts, [0, 2], [1, 3]).tolist() == [3, 4]
        assert_kernel_matches_reference(T4, pts, TreePoint((2, 0, 1)))

    def test_repeated_point_raises(self):
        a, b = branching_pair(2)
        with pytest.raises(IdenticalBoundaryPointsError):
            pair_invariants(T4, [a, b, a], *np.triu_indices(3, k=1))
        with pytest.raises(IdenticalBoundaryPointsError):
            pair_invariants(T4, [a, b], [0, 1], [1, 1], TreePoint((0, 1)))
        with pytest.raises(IdenticalBoundaryPointsError):
            pair_invariants(T4, [a, a], [0], [1], TreePoint((0, 1)))

    @pytest.mark.parametrize("word", [TreeBoundary((), (3,)), TreeBoundary((4,), (0,)),
                                      TreeBoundary((1, 3), (0,)), TreeBoundary((), (0, -1))])
    def test_illegal_word_raises(self, word):
        # TreeBoundary((), (3,)) once got d_1 = 2 on T4 without complaint, and
        # beside TreeBoundary((), (0,)) its unrolled words once stopped at the
        # legal first letter
        for other in (TreeBoundary((0,), (1,)), TreeBoundary((), (0,))):
            pts = [other, word]
            with pytest.raises(ValueError, match="illegal tree word"):
                pair_invariants(T4, pts, [0], [1])
            with pytest.raises(ValueError, match="illegal tree word"):
                pair_distance_matrix(T4, spec_dA(1), pts)
            with pytest.raises(ValueError, match="illegal tree word"):
                eval_dA(T4, spec_dA(1), *pts, method="bisect")
            with pytest.raises(ValueError, match="illegal tree word"):
                eval_dbar(T4, spec_dbar(), *pts, method="quadrature")

    @pytest.mark.parametrize("spec", [spec_dA(1), spec_dA(2), spec_dA(0.7), spec_dbar()],
                             ids=["dA1", "dA2", "dA0.7", "dbar"])
    @pytest.mark.parametrize("origin", [TreePoint(()), TreePoint((2, 0, 1))], ids=["root", "v"])
    def test_pair_matrix_equals_per_pair_loop(self, spec, origin):
        spec = with_basepoint(spec, origin)
        pts = sample_boundary(T4, 40, 5)
        want = np.zeros((40, 40))
        for i in range(40):
            for j in range(i + 1, 40):
                b = float(ray_branch_reference(T4, origin, pts[i], pts[j]))
                if spec.family == "dA":
                    want[i, j] = 1.0 / (b + float(spec.A) / 2.0)
                else:
                    want[i, j] = 2.0 * math.exp(-b)
                want[j, i] = want[i, j]
        assert np.array_equal(pair_distance_matrix(T4, spec, pts), want)


def nearby_directions(dim, gaps, seed):
    """Unit directions of R^dim in clusters of three, about `gap` apart."""
    rng = np.random.default_rng(seed)
    out = []
    for gap in gaps:
        base = rng.normal(size=dim)
        step = rng.normal(size=dim)
        for m in range(3):
            v = base + m * gap * np.linalg.norm(base) * step / np.linalg.norm(step)
            out.append(EuclideanBoundary(tuple(v / np.linalg.norm(v))))
    return out


class TestOneKernel:
    """Scalar evaluators and tables read one invariant kernel and one map."""

    @pytest.mark.parametrize("space, origin, points", [
        (T4, TreePoint(()), sample_boundary(T4, 30, 2)),
        (T4, TreePoint((2, 0, 1)), sample_boundary(T4, 30, 2)),
        (H2, H2.basepoint, sample_boundary(H2, 30, 2) + [HyperbolicBoundary(1.0 + 1e-6),
                                                         HyperbolicBoundary(1.0)]),
        (H2, HyperbolicPoint(1.3, 0.7), sample_boundary(H2, 30, 2)
         + [HyperbolicBoundary(1.0 + 1e-6), HyperbolicBoundary(1.0)]),
        (E2, E2.basepoint, sample_boundary(E2, 20, 2) + nearby_directions(2, (1e-6, 1e-3), 3)
         + [EuclideanBoundary((0.6, 0.8)), EuclideanBoundary((-0.6, -0.8))]),
    ], ids=["tree-root", "tree-vertex", "pole", "off-pole", "plane"])
    def test_scalar_evaluators_equal_table_entries(self, space, origin, points):
        specs = [with_basepoint(s, origin) for s in (spec_dA(1), spec_dA(0.7), spec_dbar())]
        tables = [exact_table(space, s, points) for s in specs]
        I, J = np.triu_indices(len(points), k=1)
        inv = pair_invariants(space, points, I, J, origin)
        for i, j, b in zip(I.tolist(), J.tolist(), inv.tolist()):
            xi, eta = points[i], points[j]
            for s, D in zip(specs, tables):
                evaluate = eval_dA if s.family == "dA" else eval_dbar
                assert evaluate(space, s, xi, eta) == D[i, j]
            if space is T4:
                assert gromov_product(space, origin, xi, eta) == b
            elif space is H2:
                angle, log_sine, *_ = b
                assert gromov_product(space, origin, xi, eta) == -log_sine
                if origin.r == 0.0:
                    gap = abs(xi.angle - eta.angle) % (2 * math.pi)
                    assert angle == min(gap, 2 * math.pi - gap)
                    assert log_sine == np.log(np.sin(angle / 2))
            elif abs(1.0 - b / 2.0) < 1e-10:
                assert gromov_product(space, origin, xi, eta) == 2.0 - b
            else:
                with pytest.raises(DivergentGromovProductError):
                    gromov_product(space, origin, xi, eta)
        assert isinstance(eval_dA(space, specs[0], points[0], points[1]),
                          Fraction if space is T4 else float)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_chord_of_nearby_directions_matches_mpmath(self, dim):
        space = euclidean_space(dim)
        pts = nearby_directions(dim, (1e-6, 1e-5, 1e-4, 1e-3), dim)
        D = pair_distance_matrix(space, spec_dbar(), pts)
        mpmath.mp.prec = 200
        for i, j in itertools.combinations(range(len(pts)), 2):
            want = float(mpmath.sqrt(sum((mpmath.mpf(a) - mpmath.mpf(b)) ** 2
                                         for a, b in zip(pts[i].direction, pts[j].direction))))
            assert abs(D[i, j] - want) <= 1e-14 * want

    @pytest.mark.parametrize("A", [0.5, 1, 4])
    @pytest.mark.parametrize("gap", [1e-320, 1e-310, 2e-308, 1e-300])
    def test_pole_dA_of_nearby_angles_matches_mpmath(self, A, gap):
        # sinh(A/2)/s overflows for the smallest gaps; d_A must stay positive
        pts = [HyperbolicBoundary(0.0), HyperbolicBoundary(gap)]
        mpmath.mp.prec = 200
        s = mpmath.sin(mpmath.mpf(pts[1].angle) / 2)
        want = float(1 / mpmath.asinh(mpmath.sinh(mpmath.mpf(A) / 2) / s))
        got = eval_dA(H2, spec_dA(A), *pts)
        assert abs(got - want) <= 1e-14 * want
        assert pair_distance_matrix(H2, spec_dA(A), pts)[0, 1] == got


def mapped_half_sine(origin, a, b):
    """|g(e^{ia}) - g(e^{ib})| / 2 for the Moebius map g(z) = (z - z0)/(1 -
    conj(z0) z) that moves `origin` to the pole, with each point mapped on
    its own in mpmath: 1300 bits cover the cancellation of gaps down to
    5e-324, and 3r more the e^r magnification next to the basepoint."""
    with mpmath.workprec(1300 + int(3 * origin.r)):
        z0 = mpmath.tanh(mpmath.mpf(origin.r) / 2) * mpmath.expj(origin.phi)
        g = lambda phi: (mpmath.expj(phi) - z0) / (1 - mpmath.conj(z0) * mpmath.expj(phi))
        return abs(g(mpmath.mpf(a)) - g(mpmath.mpf(b))) / 2


def ray_oracle(origin, xi, eta, A):
    """(d_A, dbar, Gromov product) of a pair from the two rays themselves:
    f(t) = d(ray_xi(t), ray_eta(t)) from `ray_point` and `dist`, d_A = 1/a
    with f(a) = A by brentq, dbar by scipy's quad on [0, 40] (f(t) <= 2t, so
    the rest is below 1e-15), and the product as t - f(t)/2 at t = 15."""
    rx, re = Ray(H2, origin, xi), Ray(H2, origin, eta)
    f = lambda t: dist(H2, ray_point(rx, t), ray_point(re, t))
    hi = 1.0
    while f(hi) < A:
        hi *= 2.0
    a = brentq(lambda t: f(t) - A, 0.0, hi, xtol=1e-300, rtol=1e-15)
    dbar = quad(lambda t: f(t) * math.exp(-t), 0.0, 40.0, epsabs=0.0, epsrel=1e-13, limit=500)[0]
    return 1.0 / a, dbar, 15.0 - f(15.0) / 2.0


NEAR_SIDE_FAR = pytest.mark.parametrize("phi0", [0.0, 1.5, math.pi], ids=["near", "side", "far"])


class TestOffPole:
    """H^2 from basepoints off the pole: the chord-scaled angle against a
    high-precision Moebius map and against the rays themselves.  The pairs
    sit at angles 0 and gap (the only place a float angle can hold a gap
    below 1e-16), and the basepoint direction phi0 puts them next to the
    basepoint (chord scale up to e^r), beside it, or opposite (down to e^-r)."""

    GAPS = [5e-324, 1e-320, 1e-300, 1e-100, 1e-20, 1e-8, 1e-4, 0.3, 1.0, 2.0, 3.0, math.pi]
    DBAR_GAPS = [5e-324, 1e-300, 1e-8, 1.0, math.pi]

    @NEAR_SIDE_FAR
    @pytest.mark.parametrize("r", [1.3, 4.0, 20.0, 40.0])
    def test_matches_mpmath(self, r, phi0):
        origin = HyperbolicPoint(r, phi0)
        specs = with_basepoint(spec_dA(1), origin), with_basepoint(spec_dbar(), origin)
        for gap in self.GAPS:
            xi, eta = HyperbolicBoundary(0.0), HyperbolicBoundary(gap)
            s = mapped_half_sine(origin, xi.angle, eta.angle)
            with mpmath.workprec(200):
                want_product = float(-mpmath.log(s))
                want_dA = float(1 / mpmath.asinh(mpmath.sinh(mpmath.mpf(1) / 2) / s))
            assert abs(eval_dA(H2, specs[0], xi, eta) - want_dA) <= 1e-14 * want_dA
            # a product near 0 is -log of a sine that rounds to 1, as at the pole
            product = gromov_product(H2, origin, xi, eta)
            assert abs(product - want_product) <= 1e-14 * max(want_product, 1.0)
            if gap in self.DBAR_GAPS:
                want = float(half_sine_dbar_integral(s))
                got = eval_dbar(H2, specs[1], xi, eta)
                if s >= np.finfo(float).tiny:
                    assert abs(got - want) <= 1e-14 * want
                else:
                    # a subnormal s' is read from the scaled sine, not from the
                    # subnormal angle: the rounding of a normal result plus two
                    # units of the last subnormal place
                    assert abs(got - want) <= 1e-15 * want + 2.0 ** -1073

    @pytest.mark.parametrize("origin", [HyperbolicPoint(1.3, 0.7), HyperbolicPoint(2.5, 4.0)])
    def test_matches_ray_geometry(self, origin):
        pts = sample_boundary(H2, 10, 3)
        specs = with_basepoint(spec_dA(1), origin), with_basepoint(spec_dbar(), origin)
        for xi, eta in itertools.combinations(pts, 2):
            want_dA, want_dbar, want_product = ray_oracle(origin, xi, eta, 1.0)
            assert abs(eval_dA(H2, specs[0], xi, eta) - want_dA) <= 1e-12 * want_dA
            assert abs(eval_dbar(H2, specs[1], xi, eta) - want_dbar) <= 1e-10 * want_dbar
            assert abs(gromov_product(H2, origin, xi, eta) - want_product) <= 1e-7

    @pytest.mark.parametrize("origin", [HyperbolicPoint(1.3, 0.7), HyperbolicPoint(3.0, 2.0)])
    def test_reference_kernels_agree(self, origin):
        pts = sample_boundary(H2, 6, 4) + [HyperbolicBoundary(1.0), HyperbolicBoundary(1.0 + 1e-6)]
        da, db = with_basepoint(spec_dA(1), origin), with_basepoint(spec_dbar(), origin)
        for xi, eta in itertools.combinations(pts, 2):
            closed = eval_dA(H2, da, xi, eta)
            assert abs(eval_dA(H2, da, xi, eta, method="bisect") - closed) <= da.tol * closed
            closed = eval_dbar(H2, db, xi, eta)
            assert abs(eval_dbar(H2, db, xi, eta, method="quadrature") - closed) <= db.tol

    @NEAR_SIDE_FAR
    def test_closest_gaps_finite_and_increasing(self, phi0):
        origin = HyperbolicPoint(1.3, phi0)
        spec = with_basepoint(spec_dA(1), origin)
        u = HyperbolicBoundary(0.0)
        closest, next_ = HyperbolicBoundary(5e-324), HyperbolicBoundary(1e-320)
        dA = [eval_dA(H2, spec, u, v) for v in (closest, next_)]
        assert all(math.isfinite(d) for d in dA) and 0.0 < dA[0] < dA[1]
        assert all(math.isfinite(gromov_product(H2, origin, u, v)) for v in (closest, next_))

    @pytest.mark.parametrize("r", [1e-300, 1e-8, 0.5, 5.0, 40.0, 200.0, 354.0])
    def test_every_distinct_pair_finite_and_positive(self, r):
        for phi0 in (0.0, 2.0, 4.0):
            origin = HyperbolicPoint(r, phi0)
            pts = sample_boundary(H2, 30, 6) + [HyperbolicBoundary(phi0), HyperbolicBoundary(phi0 + 1e-6),
                                                HyperbolicBoundary(phi0 + math.pi),
                                                HyperbolicBoundary(phi0 + math.pi + 1e-6)]
            for spec in (spec_dA(1), spec_dA(0.7), spec_dbar()):
                D = pair_distance_matrix(H2, with_basepoint(spec, origin), pts)
                off = ~np.eye(len(pts), dtype=bool)
                assert np.all(np.isfinite(D)) and np.all(D[off] > 0.0)
            for xi, eta in itertools.combinations(pts[-6:], 2):
                assert 0.0 <= gromov_product(H2, origin, xi, eta) < math.inf

    @pytest.mark.parametrize("r", [355.0, 1e6, math.inf, math.nan])
    def test_far_basepoints_raise(self, r):
        origin = HyperbolicPoint(r, 0.3)
        pts = [HyperbolicBoundary(0.0), HyperbolicBoundary(1.0)]
        with pytest.raises(ValueError, match="too large"):
            pair_distance_matrix(H2, with_basepoint(spec_dbar(), origin), pts)
        with pytest.raises(ValueError, match="too large"):
            gromov_product(H2, origin, *pts)


# (space, spec, whether the sample has a boundary order) of each route of
# `sample_metric`
SAMPLE_METRICS = {
    "T4-root": (tree_space(4), spec_dbar(), True),
    "T3-dA-0.7": (tree_space(3), spec_dA(0.7), True),
    "T4-at-120": (tree_space(4, TreePoint((1, 2, 0))), spec_dA(1), False),
    "R2": (euclidean_space(2), spec_dA(1.5), True),
    "R2-at-(0.3,-1.7)": (euclidean_space(2, (0.3, -1.7)), spec_dbar(), True),
    "R3": (euclidean_space(3), spec_dbar(), False),
    "H2": (hyperbolic_plane(), spec_dbar(), True),
    "H2-dA": (hyperbolic_plane(), spec_dA(0.8), True),
    "H2-at-(1.3,0.4)": (hyperbolic_plane(HyperbolicPoint(1.3, 0.4)), spec_dbar(), True),
    "H2-at-(4,5)": (hyperbolic_plane(HyperbolicPoint(4.0, 5.0)), spec_dA(1), True),
}


class TestSampleMetric:
    @pytest.mark.parametrize("name", sorted(SAMPLE_METRICS))
    def test_dist_is_the_table_bit_for_bit(self, name):
        space, spec, _ = SAMPLE_METRICS[name]
        points = sample_boundary(space, 70, 5)
        D = pair_distance_matrix(space, spec, points)
        metric = sample_metric(space, spec, points)
        I, J = np.indices(D.shape).reshape(2, -1)
        got = metric.dist(I, J)
        assert got.dtype == np.float64 and np.array_equal(got, D[I, J])
        assert np.array_equal(metric.dist(I[::-1], J[::-1]), D[I[::-1], J[::-1]])
        rows = [3, 0, 69, 3]
        assert np.array_equal(metric.rows(rows), D[rows])
        # only a metric without an order holds its table
        assert (metric.table is None) == (metric.order is not None)

    @pytest.mark.parametrize("name", sorted(SAMPLE_METRICS))
    def test_balls_are_runs_of_the_order(self, name):
        space, spec, ordered = SAMPLE_METRICS[name]
        points = sample_boundary(space, 120, 6)
        metric = sample_metric(space, spec, points)
        assert metric.n == 120
        if not ordered:
            assert metric.order is None and metric.turn is None
            return
        assert sorted(metric.order.tolist()) == list(range(120))
        assert (metric.turn is None) == (space.kind == "tree")
        D = pair_distance_matrix(space, spec, points)
        rank = np.argsort(metric.order)
        for c in range(0, 120, 7):
            for r in np.unique(D[c])[1::9]:
                inside = np.sort(rank[D[c] < r])
                gaps = int((np.diff(inside) > 1).sum())
                # a run: on a line no gap, on the circle one at most
                if metric.turn is None:
                    assert gaps == 0
                else:
                    assert gaps + (inside[0] + 120 - inside[-1] > 1) <= 1

    def test_tree_order_is_the_order_of_the_words(self):
        points = sample_boundary(tree_space(4), 200, 7)
        metric = sample_metric(tree_space(4), spec_dbar(), points)
        words = [points[i].prefix(40) for i in metric.order.tolist()]
        assert words == sorted(words)

    @pytest.mark.parametrize("name", ["R2", "H2", "H2-at-(1.3,0.4)", "H2-at-(4,5)"])
    def test_turn_is_the_angle_the_metric_sees(self, name):
        space, spec, _ = SAMPLE_METRICS[name]
        points = sample_boundary(space, 150, 8)
        metric = sample_metric(space, spec, points)
        # along the cyclic order the turn goes once around the circle
        t = metric.turn[metric.order]
        assert np.all((0 <= t) & (t < 2 * math.pi))
        assert math.isclose(np.sum(np.diff(np.r_[t, t[0]]) % (2 * math.pi)), 2 * math.pi)
        I, J = np.triu_indices(150, 1)
        inv = pair_invariants(space, points, I, J, spec.base(space))
        angle = inv["angle"] if space.kind == "hyperbolic_plane" else 2 * np.arcsin(inv / 2)
        gap = np.abs(metric.turn[I] - metric.turn[J])
        assert np.allclose(np.minimum(gap, 2 * math.pi - gap), angle, rtol=0, atol=1e-7)
