"""End-to-end acceptance suite.

Each test checks one headline claim at its stated tolerance and prints a
single PASS line (pytest -s shows them; a failure prints FAIL before the
assertion fires).  Sample sizes follow the claims: 1e5 triples for the
metric axioms, 1e4 for oracle agreement and control functions.
"""

import math
from fractions import Fraction

import numpy as np

from visbound.covers import (
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
from visbound.metrics import (
    ConeNeighborhood,
    MetricSpec,
    cone_contains,
    eval_dA,
    eval_dbar,
    eval_dbar_extended,
    pair_distance_matrix,
    pair_invariants,
    sample_metric,
    spec_dA,
    spec_dbar,
)
from visbound.quasisym import (
    eta_change_A,
    eta_change_basepoint,
    power_law_fit,
    Envelope,
    ratio_pool,
    uniformly_perfect_check,
    verify_control,
)
from visbound.spaces import (
    EuclideanBoundary,
    HyperbolicBoundary,
    Ray,
    TreeBoundary,
    TreePoint,
    euclidean_space,
    hyperbolic_plane,
    ray_point,
    sample_boundary,
    substream,
    tree_space,
)
from visbound.visual import nonqs_witness, nonvisual_witness_dA, visual_fit

from exact_tables import exact_table

T4 = tree_space(4)
E2 = euclidean_space(2)
H2 = hyperbolic_plane()

SEED = 20240811


def _report(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, text


def _distinct_pairs(points, n, rng):
    out = []
    m = len(points)
    while len(out) < n:
        i, j = rng.integers(0, m, size=2)
        if points[int(i)] != points[int(j)]:
            out.append((int(i), int(j)))
    return out


def test_01_tree_dbar_is_visual_with_constant_two():
    pts = sample_boundary(T4, 200, SEED)
    rng = substream(SEED, "acc1")
    pairs = _distinct_pairs(pts, 1000, rng)
    fit = visual_fit(T4, spec_dbar(), math.e, pts, pairs)
    ok = fit.k1 == 2.0 and fit.k2 == 2.0 and abs(fit.k1 - 2) <= 1e-9
    _report(1, ok, f"dbar visual fit a=e on 1000 pairs: k1={fit.k1}, k2={fit.k2}")


def test_02_tree_dA_not_visual():
    rows = nonvisual_witness_dA(T4, 1, range(1, 31), a=math.e)
    mono = all(a.growth < b.growth for a, b in zip(rows, rows[1:]))
    ok = mono and rows[-1].growth >= 1e10
    _report(2, ok, f"d_1 growth column strictly increasing, final={rows[-1].growth:.3g}")


def test_03_identity_d1_to_dbar_not_quasisymmetric():
    rows = nonqs_witness(T4, range(1, 26), delta=1.0)
    req_mono = all(a.required_c < b.required_c for a, b in zip(rows, rows[1:]))
    # the best-fit residual over growing witness prefixes must also grow
    residuals = []
    for top in (5, 10, 15, 20, 25):
        env = Envelope([(float(r.t), r.rho, (0, 1, 2)) for r in rows[:top]])
        residuals.append(power_law_fit(env).max_residual)
    res_mono = all(a < b for a, b in zip(residuals, residuals[1:]))
    ok = req_mono and res_mono and rows[-1].required_c > 1e6
    _report(3, ok, f"required c at delta=1 reaches {rows[-1].required_c:.3g}, "
                   f"fit residual grows to {residuals[-1]:.3g}")


def test_04_tree_d1_uniformly_perfect():
    centers = sample_boundary(T4, 100, SEED)
    rng = substream(SEED, "acc4")
    radii = sorted({Fraction(int(k), 64) for k in rng.integers(1, 128, size=40)})[:10]
    rep = uniformly_perfect_check(T4, centers, radii)
    ok = rep.ok and rep.vacuous == 0 and rep.cases == len(centers) * len(radii) == 1000
    _report(4, ok, f"constructive annulus witnesses for {rep.cases} (center, radius) "
                   f"cases, failures={len(rep.failures)}")


def test_05_change_of_A_control():
    eta = eta_change_A(1, 2)
    rep_t = verify_control(ratio_pool(T4, spec_dA(1), spec_dA(2), 10000, SEED), eta, 10000, SEED)
    rep_e = verify_control(ratio_pool(E2, spec_dA(1), spec_dA(2), 10000, SEED), eta, 10000, SEED)
    ok = rep_t.violations == 0 and rep_e.violations == 0
    _report(5, ok, f"linear(2) control: tree violations={rep_t.violations}, "
                   f"circle violations={rep_e.violations}")


def test_06_change_of_basepoint_control():
    moved4 = MetricSpec("dA", A=4, basepoint=TreePoint((0,)))
    rep4 = verify_control(ratio_pool(T4, MetricSpec("dA", A=4), moved4, 10000, SEED),
                          eta_change_basepoint(4, 1), 10000, SEED)
    moved1 = MetricSpec("dA", A=1, basepoint=TreePoint((0,)))
    rep1 = verify_control(ratio_pool(T4, MetricSpec("dA", A=1), moved1, 10000, SEED),
                          eta_change_basepoint(1, 1), 10000, SEED)
    ok = (rep4.violations == 0 and rep1.violations == 0
          and eta_change_basepoint(4, 1).slope == 4
          and eta_change_basepoint(1, 1).slope == 729)
    _report(6, ok, f"basepoint move D=1: linear(4) violations={rep4.violations}, "
                   f"chained linear(729) violations={rep1.violations}")


def test_07_pushout_pipeline():
    lams = [Fraction(1, 2 ** k) for k in range(1, 7)]
    lines = []
    ok = True
    for space in (T4, E2):
        system = LatticeBallSystem(space, 2)
        sample = sample_boundary(space, 500, SEED)
        metric = sample_metric(space, MetricSpec("dA", A=1), sample)
        order_v = orbit_ball_order(space, 2)
        for lam in lams:
            cover = boundary_pushout_cover(space, system, lam, 1, sample)
            st = cover_stats(cover, metric)
            good = (st.order <= order_v
                    and st.lebesgue >= float(lam) * (1 - 1e-9)
                    and st.mesh <= 8 * float(lam) * (1 + 1e-9))
            ok = ok and good
            lines.append(f"{space.kind}@{float(lam):g}:{'ok' if good else 'BAD'}")
    _report(7, ok, "pushout bounds (order/lebesgue/mesh) " + " ".join(lines))


def test_08_pushin_pipeline():
    schedule = ScaleSchedule(R=2, K=5, c=1.0)
    sample = sample_boundary(T4, 120, SEED)
    covers = {k: colored_boundary_cover(T4, schedule.lam(k), sample)
              for k in range(1, 6)}
    interior = sample_ray_points(sample, 14, 2000, SEED)
    cover, claims = annular_pushin_cover(T4, schedule, covers, sample, interior)
    ok = (claims["color_disjoint"] and claims["per_point_decay"]
          and claims["mesh_ok"] and claims["covers_ground"]
          and claims["order"] <= 2)
    _report(8, ok, f"tube cover claims: disjoint={claims['color_disjoint']}, "
                   f"mesh={claims['tube_mesh']:g}<= {claims['mesh_bound']:g}, "
                   f"order={claims['order']}")


def _triangle_violations_float(D, n_triples, rng, tol):
    n = D.shape[0]
    I = rng.integers(0, n, size=n_triples)
    J = rng.integers(0, n, size=n_triples)
    K = rng.integers(0, n, size=n_triples)
    return int(np.sum(D[I, K] > D[I, J] + D[J, K] + tol))


def _tree_exact_tables(points, A):
    dA = exact_table(T4, spec_dA(A), points).tolist()
    db = pair_distance_matrix(T4, spec_dbar(), points).tolist()
    return dA, db


def test_09_metric_axioms_and_ray_convexity():
    rng = substream(SEED, "acc9")
    viol = 0
    # exact tree check on 1e5 triples for both metrics
    pts_t = sample_boundary(T4, 300, SEED)
    dA_t, db_t = _tree_exact_tables(pts_t, 1)
    n = len(pts_t)
    I = rng.integers(0, n, size=100000)
    J = rng.integers(0, n, size=100000)
    K = rng.integers(0, n, size=100000)
    for i, j, k in zip(I, J, K):
        if dA_t[i][k] > dA_t[i][j] + dA_t[j][k]:
            viol += 1
        if db_t[i][k] > db_t[i][j] + db_t[j][k] + 0.0:
            viol += 1
    # float spaces at 1e-9
    for space in (E2, H2):
        pts = sample_boundary(space, 300, SEED)
        for spec in (MetricSpec("dA", A=1), MetricSpec("dbar")):
            D = pair_distance_matrix(space, spec, pts)
            viol += _triangle_violations_float(D, 100000, rng, 1e-9)
    # ray separation convexity: f(s) <= (s/t) f(t) for s <= t
    conv_viol = 0
    for space in (T4, E2, H2):
        pts = sample_boundary(space, 40, SEED + 1)
        pairs = _distinct_pairs(pts, 200, substream(SEED, f"acc9p-{space.kind}"))
        for i, j in pairs:
            f = space.separation(pair_invariants(space, [pts[i], pts[j]], [0], [1]))
            for _ in range(50):
                t = float(rng.uniform(0.5, 30.0))
                s = float(rng.uniform(0.0, 1.0)) * t
                if f(s) > (s / t) * f(t) + 1e-10:
                    conv_viol += 1
    ok = viol == 0 and conv_viol == 0
    _report(9, ok, f"triangle violations={viol} (1e5 triples x 2 metrics x 3 spaces), "
                   f"ray-convexity violations={conv_viol} (1e4 samples/space)")


def test_10_oracle_equivalence():
    rng = substream(SEED, "acc10")
    pts = sample_boundary(T4, 200, SEED)
    pairs = _distinct_pairs(pts, 10000, rng)
    worst_dA = worst_db = 0.0
    for xi, eta in ((pts[i], pts[j]) for i, j in pairs):
        closed = float(eval_dA(T4, spec_dA(1), xi, eta))
        worst_dA = max(worst_dA, abs(closed - eval_dA(T4, spec_dA(1), xi, eta, method="bisect")))
        closed_b = eval_dbar(T4, spec_dbar(), xi, eta)
        worst_db = max(worst_db, abs(closed_b - eval_dbar(T4, spec_dbar(), xi, eta, method="quadrature")))
    worst_e = 0.0
    for theta in np.linspace(1e-3, math.pi, 1000):
        x = EuclideanBoundary((1.0, 0.0))
        y = EuclideanBoundary((math.cos(theta), math.sin(theta)))
        closed = 2 * math.sin(theta / 2)
        worst_e = max(worst_e, abs(closed - eval_dA(E2, spec_dA(1), x, y, method="bisect")))
        worst_e = max(worst_e, abs(closed - eval_dbar(E2, spec_dbar(), x, y, method="quadrature")))
    ok = worst_dA <= 1e-10 and worst_db <= 1e-10 and worst_e <= 1e-9
    _report(10, ok, f"max |closed - generic|: tree dA {worst_dA:.2e}, "
                    f"tree dbar {worst_db:.2e}, circle {worst_e:.2e}")


def test_11_ell_dim_stability():
    pts_t = sample_boundary(T4, 600, SEED)
    scales_t = [4 * math.exp(-k) for k in range(1, 9)]
    rows_t, est_t = ell_dim_estimate(sample_metric(T4, spec_dbar(), pts_t), scales_t, 4.0, SEED)
    pts_c = sample_boundary(E2, 1500, SEED)
    scales_c = [2.0 ** -k for k in range(1, 7)]
    rows_c, est_c = ell_dim_estimate(sample_metric(E2, MetricSpec("dA", A=1), pts_c), scales_c,
                                     4.0, SEED)
    orders_t = [r.order for r in rows_t]
    orders_c = [r.order for r in rows_c]
    ok = orders_t == [1] * 8 and est_t == 0 and orders_c == [2] * 6 and est_c == 1
    _report(11, ok, f"net-ball orders: tree {orders_t} (estimate {est_t}), "
                    f"circle {orders_c} (estimate {est_c})")


def test_12_dbar_extends_to_closure_with_cone_topology():
    # xi and boundary points z_m -> xi: branching at m on T4, at angle 2^-m on
    # R^2 and H^2 (on H^2 from below, across the seam at angle 0)
    cases = [
        (T4, TreeBoundary((), (0,)), [TreeBoundary((0,) * m + (1,), (0,)) for m in range(1, 11)]),
        (E2, EuclideanBoundary((1.0, 0.0)),
         [EuclideanBoundary((math.cos(2.0 ** -m), math.sin(2.0 ** -m))) for m in range(1, 17)]),
        (H2, HyperbolicBoundary(0.0), [HyperbolicBoundary(-2.0 ** -m) for m in range(1, 17)]),
    ]
    spec = spec_dbar()
    ok = True
    lines = []
    for space, xi, zs in cases:
        ray = Ray(space, space.basepoint, xi)
        # x at distance n on the ray to xi: the two paths part at time n
        err = max(abs(eval_dbar_extended(space, spec, ray_point(ray, n), xi) - math.exp(-n))
                  for n in (1, 3, 6))
        d = [eval_dbar(space, spec, xi, z) for z in zs]
        nbhd = ConeNeighborhood(ray, 4, 0.1)
        near = [z for z, dz in zip(zs, d) if dz < 5e-3]
        good = (err <= spec.tol and all(a > b for a, b in zip(d, d[1:]))
                and len(near) >= 3 and all(cone_contains(space, nbhd, z) for z in near)
                and not cone_contains(space, nbhd, zs[0]))
        ok = ok and good
        lines.append(f"{space.kind}: |dbar(x_n, xi) - e^-n| <= {err:.1e}, "
                     f"{len(near)} in U(ray, 4, 0.1)")
    _report(12, ok, "dbar on X u dX and the cone topology: " + "; ".join(lines))
