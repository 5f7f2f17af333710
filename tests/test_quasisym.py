import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from visbound import quasisym
from visbound.metrics import MetricSpec, eval_dA, spec_dA, spec_dbar
from visbound.quasisym import (
    ControlReport,
    Envelope,
    PerfectnessReport,
    eta_change_A,
    eta_change_basepoint,
    linear_control,
    power_law_fit,
    qs_envelope,
    ratio_pool,
    uniformly_perfect_check,
    verify_control,
)
from visbound.spaces import (
    TreeBoundary,
    TreePoint,
    distinct_rows,
    euclidean_space,
    hyperbolic_plane,
    sample_boundary,
    substream,
    tree_space,
)
from visbound.tree import Tree

from exact_tables import exact_table

T4 = tree_space(4)
E2 = euclidean_space(2)
H2 = hyperbolic_plane()


class TestControlFunctions:
    def test_linear_needs_positive_slope(self):
        with pytest.raises(ValueError):
            linear_control(0)


class TestEtaFormulas:
    def test_change_A(self):
        assert eta_change_A(1, 2).slope == 2
        assert eta_change_A(3, 3).slope == 1
        # role swap: the inverse of a linear control is linear with the same slope
        assert eta_change_A(1, 2).slope == eta_change_A(2, 4).slope

    def test_change_A_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            eta_change_A(0, 1)

    def test_change_basepoint_direct(self):
        assert eta_change_basepoint(4, 1).slope == 4      # (4/2)^2
        assert eta_change_basepoint(1, 0).slope == 1

    def test_change_basepoint_chained(self):
        # D >= A/2 forces 3 steps of slope 9 each
        assert eta_change_basepoint(1, 1).slope == 729

    def test_chained_steps_below_half_A(self):
        eta = eta_change_basepoint(Fraction(1), Fraction(5, 2))
        n = math.ceil(Fraction(5, 2) / (Fraction(49, 100)))
        step = Fraction(5, 2) / n
        assert 2 * step < 1
        assert eta.slope == (1 / (1 - 2 * step)) ** (2 * n)


class TestVerifyControl:
    def test_identity_zero_violations(self):
        pool = ratio_pool(T4, spec_dA(1), spec_dA(1), 2000, 1)
        rep = verify_control(pool, linear_control(Fraction(1)), 2000, 1)
        assert rep.violations == 0
        assert rep.worst_margin <= 1

    def test_change_A_tree_exact(self):
        pool = ratio_pool(T4, spec_dA(1), spec_dA(2), 3000, 2)
        rep = verify_control(pool, eta_change_A(1, 2), 3000, 2)
        assert rep.violations == 0 and rep.discarded == 0

    def test_change_A_circle(self):
        pool = ratio_pool(E2, spec_dA(1), spec_dA(2), 3000, 2)
        rep = verify_control(pool, eta_change_A(1, 2), 3000, 2)
        assert rep.violations == 0

    def test_violations_reported_for_too_small_eta(self):
        # d_1 -> d_2 needs slope 2; slope 1.2 must fail somewhere
        pool = ratio_pool(T4, spec_dA(1), spec_dA(2), 4000, 3)
        rep = verify_control(pool, linear_control(Fraction(6, 5)), 4000, 3)
        assert rep.violations > 0
        assert rep.witnesses
        assert rep.worst_margin > 1

    def test_basepoint_change_tree(self):
        moved = MetricSpec("dA", A=4, basepoint=TreePoint((0,)))
        pool = ratio_pool(T4, MetricSpec("dA", A=4), moved, 3000, 4)
        rep = verify_control(pool, eta_change_basepoint(4, 1), 3000, 4)
        assert rep.violations == 0

    def test_report_serializes(self):
        pool = ratio_pool(T4, spec_dA(1), spec_dA(1), 100, 5)
        rep = verify_control(pool, linear_control(Fraction(1)), 100, 5)
        d = rep.to_dict()
        assert set(d) == {"violations", "worst_margin", "discarded", "checked", "seed"}


class TestEnvelope:
    def test_deterministic(self):
        e1 = qs_envelope(ratio_pool(T4, spec_dA(1), spec_dbar(), 500, 11), 500, 11)
        e2 = qs_envelope(ratio_pool(T4, spec_dA(1), spec_dbar(), 500, 11), 500, 11)
        assert e1.entries == e2.entries

    def test_identity_envelope_on_diagonal(self):
        env = qs_envelope(ratio_pool(E2, spec_dA(1), spec_dA(1), 500, 6), 500, 6)
        assert all(abs(t - r) < 1e-12 for t, r, _ in env.entries)

    def test_change_A_envelope_below_line(self):
        env = qs_envelope(ratio_pool(T4, spec_dA(1), spec_dA(2), 2000, 7), 2000, 7)
        assert all(r <= 2 * t * (1 + 1e-12) for t, r, _ in env.entries)


# ---------------------------------------------------------------------------
# the array kernels against reference copies of the per-triple loops they
# replaced; the reference tables come from `_reference_table`, the kernels'
# float tables from `quasisym.pair_distance_matrix` and their exact tree d_A
# tables from `Tree.closed_form` over a branch-time table, so a test patches
# all three


def _reference_table(space, spec, pool):
    """Exact tree d_A in `Fraction`s, one pair at a time, and any other
    metric's float table from `quasisym.pair_distance_matrix`."""
    return exact_table(space, spec, pool, quasisym.pair_distance_matrix)


def _reference_sample_triples(n_points, n_triples, rng):
    out = []
    while len(out) < n_triples:
        need = n_triples - len(out)
        raw = rng.integers(0, n_points, size=(need + need // 2 + 4, 3))
        for i, j, k in raw:
            if i != j and j != k and i != k:
                out.append((int(i), int(j), int(k)))
                if len(out) == n_triples:
                    break
    return out


def _reference_ratio_triples(space, spec1, spec2, n_triples, seed, stream):
    rng = substream(seed, stream)
    pool = sample_boundary(space, quasisym._pool_size(n_triples), seed)
    d1, d2 = _reference_table(space, spec1, pool), _reference_table(space, spec2, pool)
    triples = _reference_sample_triples(len(pool), n_triples, rng)
    kept = []
    for (i, j, k) in triples:
        a1, b1 = d1[i, k], d1[j, k]
        a2, b2 = d2[i, k], d2[j, k]
        if a1 == 0 or b1 == 0 or a2 == 0 or b2 == 0:
            continue
        kept.append(((i, j, k), a1 / b1, a2 / b2))
    return kept, len(triples) - len(kept)


def _reference_verify_control(space, spec1, spec2, eta, n_triples, seed):
    exact = (space.kind == "tree" and spec1.family == "dA" and spec2.family == "dA"
             and isinstance(eta.slope, (int, Fraction)))
    tol_rel = 0 if exact else 1e-8
    kept, discarded = _reference_ratio_triples(space, spec1, spec2, n_triples, seed,
                                               "verify-control")
    violations = 0
    worst = 0.0
    witnesses = []
    for (i, j, k), t, rho in kept:
        bound = eta(t)
        margin = float(rho) / float(bound) if bound > 0 else math.inf
        worst = max(worst, margin)
        if rho > bound * (1 + tol_rel):
            violations += 1
            if len(witnesses) < 10:
                witnesses.append((i, j, k, float(t), float(rho), float(bound)))
    return ControlReport(violations=violations, worst_margin=worst,
                         discarded=discarded, checked=len(kept),
                         seed=seed, witnesses=witnesses)


def _reference_qs_envelope(space, spec1, spec2, n_triples, seed):
    kept, discarded = _reference_ratio_triples(space, spec1, spec2, n_triples, seed, "qs-envelope")
    return Envelope(entries=[(float(t), float(rho), ijk) for ijk, t, rho in kept],
                    discarded=discarded)


def _zeroed_tables(table):
    """A table builder with the symmetric pairs i + j = 0 mod 5 set to 0 (in
    an exact table, their numerators), so that every triple reading one of
    them is discarded; a 1-D result, a block of a table, is left as it is."""
    def zeroed(*args, **kwargs):
        D = table(*args, **kwargs)
        values = D.num if isinstance(D, quasisym._Rationals) else D
        if values.ndim == 2:
            I, J = np.indices(values.shape)
            values[((I + J) % 5 == 0) & (I != J)] = 0
        return D
    return zeroed


class TestTripleKernels:
    @pytest.mark.parametrize("n_points,n_triples", [(3, 0), (3, 1), (3, 50), (4, 7), (16, 500),
                                                    (400, 10000)])
    def test_sampled_triples_and_rng_state_equal_the_loop(self, n_points, n_triples):
        rng, ref = substream(9, "triples"), substream(9, "triples")
        got = distinct_rows(n_points, n_triples, 3, rng)
        assert got.dtype == np.int64 and got.shape == (n_triples, 3)
        want = _reference_sample_triples(n_points, n_triples, ref)
        assert [tuple(row) for row in got.tolist()] == want
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("space,spec1,spec2,slope", [
        (T4, spec_dA(1), spec_dA(2), Fraction(2)),
        (T4, spec_dA(1), spec_dA(2), Fraction(6, 5)),
        (T4, spec_dA(0.7), spec_dA(1.3), Fraction(1.3) / Fraction(0.7)),
        (T4, spec_dA(0.7), spec_dA(1.3), Fraction(1)),
        (T4, spec_dA(1), spec_dA(2), 1.5),
        (T4, spec_dA(1), spec_dbar(), Fraction(1)),
        (T4, spec_dbar(), spec_dA(1), 1.0),
        (E2, spec_dA(1), spec_dbar(), 1.0),
        (E2, spec_dA(1), spec_dbar(), 0.9),
        (H2, spec_dA(1), spec_dbar(), 1.0),
        (T4, MetricSpec("dA", A=4), MetricSpec("dA", A=4, basepoint=TreePoint((0,))),
         Fraction(4)),
        (T4, MetricSpec("dA", A=4), MetricSpec("dA", A=4, basepoint=TreePoint((0, 1))),
         Fraction(3, 2)),
    ], ids=["T4-dA1-dA2-exact", "T4-dA1-dA2-slope6-5", "T4-dA0.7-dA1.3", "T4-dA0.7-dA1.3-slope1",
            "T4-float-slope-1.5", "T4-dA-dbar", "T4-dbar-dA", "E2-dA-dbar", "E2-slope-0.9",
            "H2-dA-dbar", "T4-vertex-basepoint", "T4-vertex-basepoint-slope3-2"])
    def test_reports_and_envelopes_equal_the_loop(self, space, spec1, spec2, slope):
        eta = linear_control(slope)
        got = verify_control(ratio_pool(space, spec1, spec2, 600, 3), eta, 600, 3)
        want = _reference_verify_control(space, spec1, spec2, eta, 600, 3)
        assert got == want and repr(got) == repr(want)
        env = qs_envelope(ratio_pool(space, spec1, spec2, 600, 3), 600, 3)
        ref = _reference_qs_envelope(space, spec1, spec2, 600, 3)
        assert env.discarded == ref.discarded and repr(env.entries) == repr(ref.entries)

    @pytest.mark.parametrize("space,spec1,spec2,slope", [
        (T4, spec_dA(1), spec_dA(2), Fraction(6, 5)),
        (T4, spec_dA(1), spec_dbar(), 1.5),
        (E2, spec_dA(1), spec_dbar(), 0.9),
    ], ids=["T4-exact", "T4-dA-dbar", "E2"])
    def test_discarded_triples_equal_the_loop(self, space, spec1, spec2, slope, monkeypatch):
        monkeypatch.setattr(quasisym, "pair_distance_matrix",
                            _zeroed_tables(quasisym.pair_distance_matrix))
        monkeypatch.setattr(Tree, "closed_form", _zeroed_tables(Tree.closed_form))
        monkeypatch.setitem(globals(), "_reference_table", _zeroed_tables(_reference_table))
        eta = linear_control(slope)
        got = verify_control(ratio_pool(space, spec1, spec2, 600, 4), eta, 600, 4)
        want = _reference_verify_control(space, spec1, spec2, eta, 600, 4)
        assert got.discarded > 0 and repr(got) == repr(want)
        env = qs_envelope(ratio_pool(space, spec1, spec2, 600, 4), 600, 4)
        ref = _reference_qs_envelope(space, spec1, spec2, 600, 4)
        assert env.discarded > 0 and env.discarded == ref.discarded
        assert repr(env.entries) == repr(ref.entries)


class _BoundedRng:
    """A generator that fails after `limit` draws, so that a draw loop which
    can never finish fails the test instead of running on."""

    def __init__(self, limit=100):
        self.rng, self.left = substream(9, "bounded"), limit

    def integers(self, *args, **kwargs):
        self.left -= 1
        if self.left < 0:
            raise RuntimeError("draw loop did not finish")
        return self.rng.integers(*args, **kwargs)


@pytest.mark.parametrize("n_points", [0, 1, 2])
def test_too_few_points_for_a_triple_rejected(n_points):
    # the block loop found no valid row and never returned
    assert distinct_rows(n_points, 0, 3, _BoundedRng()).shape == (0, 3)
    with pytest.raises(ValueError, match=f"from {n_points} points"):
        distinct_rows(n_points, 1, 3, _BoundedRng())


class TestExactRatioKernel:
    """The integer kernel of the exact tree ratios: numerator and denominator
    arrays of Python ints in place of one `Fraction` per triple."""

    @pytest.mark.parametrize("slope", [Fraction(0.3) / Fraction(0.1), 0.3 / 0.1,
                                       Fraction(2), 2.5],
                             ids=["fraction-slope", "float-slope", "violated-2", "violated-2.5"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_wide_denominators_equal_the_loop(self, slope, seed):
        # Fraction(0.1) and Fraction(0.3) have 55- and 54-bit denominators,
        # so the cross products pass 2^63
        spec1, spec2 = spec_dA(0.1), spec_dA(0.3)
        eta = linear_control(slope)
        got = verify_control(ratio_pool(T4, spec1, spec2, 800, seed), eta, 800, seed)
        want = _reference_verify_control(T4, spec1, spec2, eta, 800, seed)
        assert got == want and repr(got) == repr(want)
        env = qs_envelope(ratio_pool(T4, spec1, spec2, 800, seed), 800, seed)
        ref = _reference_qs_envelope(T4, spec1, spec2, 800, seed)
        assert env.discarded == ref.discarded and repr(env.entries) == repr(ref.entries)

    def test_tight_slope_equals_the_loop(self):
        # the largest sampled rho/t as the slope: met with equality at its
        # triple, and violated there by a slope one part in 10^40 smaller
        spec1, spec2 = spec_dA(0.1), spec_dA(0.3)
        kept, _ = _reference_ratio_triples(T4, spec1, spec2, 800, 3, "verify-control")
        tight = max(rho / t for _, t, rho in kept)
        for slope, violated in [(tight, False), (tight * (1 - Fraction(1, 10 ** 40)), True)]:
            eta = linear_control(slope)
            got = verify_control(ratio_pool(T4, spec1, spec2, 800, 3), eta, 800, 3)
            assert (got.violations > 0) == violated
            assert repr(got) == repr(_reference_verify_control(T4, spec1, spec2, eta, 800, 3))

    @pytest.mark.parametrize("slope", [1e308, Fraction(1e308)], ids=["float", "fraction"])
    def test_infinite_thresholds_equal_the_loop(self, slope):
        # dbar ratios up to about e^20 times 1e308 overflow, so an exact
        # rho meets an infinite threshold, which `Fraction` compares as 0.0
        eta = linear_control(slope)
        with np.errstate(over="ignore"):
            got = verify_control(ratio_pool(T4, spec_dbar(), spec_dA(1), 600, 3), eta, 600, 3)
            want = _reference_verify_control(T4, spec_dbar(), spec_dA(1), eta, 600, 3)
        assert repr(got) == repr(want)

    def test_wide_denominators_pass_int64(self):
        d1, d2 = ratio_pool(T4, spec_dA(0.1), spec_dA(0.3), 800, 0)
        assert max(d1.den.ravel()) * max(d2.den.ravel()) > 2 ** 63

    @pytest.mark.parametrize("space,spec1,spec2,slope", [
        (T4, spec_dA(1), spec_dA(2), Fraction(2)),
        (T4, spec_dA(1), spec_dbar(), 1.5),
        (H2, spec_dA(1), spec_dbar(), 1.0),
    ], ids=["T4-exact", "T4-dA-dbar", "H2"])
    def test_one_pool_serves_both_streams(self, space, spec1, spec2, slope):
        # `compare` reads one pool with both streams, the envelope first;
        # reading a pool leaves it as drawn
        pool = ratio_pool(space, spec1, spec2, 600, 2)
        eta = linear_control(slope)
        env = qs_envelope(pool, 600, 2)
        got = verify_control(pool, eta, 600, 2)
        assert repr(got) == repr(_reference_verify_control(space, spec1, spec2, eta, 600, 2))
        ref = _reference_qs_envelope(space, spec1, spec2, 600, 2)
        assert repr(env.entries) == repr(ref.entries)
        assert qs_envelope(pool, 600, 2).entries == env.entries

    @pytest.mark.parametrize("rho", [Fraction(1, 3), Fraction(2, 7) ** 9, Fraction(10 ** 30 + 1, 3),
                                     Fraction(0.1), Fraction(5, 4)])
    def test_exceeds_floats_one_ulp_either_side(self, rho):
        # rho against the float nearest it and the floats one ulp below and
        # above, as `Fraction` compares them; Fraction(0.1) and 5/4 are
        # floats themselves, so the nearest float ties with them
        near = float(rho)
        xs = [near, math.nextafter(near, 0.0), math.nextafter(near, math.inf),
              math.inf, -math.inf, math.nan]
        rhos = quasisym._Rationals(np.array([rho.numerator] * len(xs), dtype=object),
                                   np.array([rho.denominator] * len(xs), dtype=object))
        got = quasisym._exceeds(rhos, np.array(xs))
        assert got.dtype == bool
        assert got.tolist() == [rho > x for x in xs]
        assert got[1] and not got[2]

    def test_exceeds_decides_what_rounding_would_tie(self):
        # 1/3 rounds to the float below it; rho = that float plus a quarter
        # ulp ties with it after rounding but exceeds it exactly
        x = 1 / 3
        ulp = Fraction(math.nextafter(x, 1.0)) - Fraction(x)
        rho = Fraction(x) + ulp / 4
        assert float(rho) == x
        rhos = quasisym._Rationals(np.array([rho.numerator, rho.numerator], dtype=object),
                                   np.array([rho.denominator, rho.denominator], dtype=object))
        got = quasisym._exceeds(rhos, np.array([x, math.nextafter(x, 1.0)]))
        assert got.tolist() == [True, False]


class TestExactTables:
    @pytest.mark.parametrize("A", [1, 2, 0.7])
    @pytest.mark.parametrize("basepoint", [None, TreePoint((2, 0))], ids=["root", "vertex"])
    def test_tables_equal_the_fraction_tables(self, A, basepoint):
        # looked up per branch time, the tables hold the reduced integer
        # ratios of the `Fraction` tables, 0/1 on the diagonal
        spec1, spec2 = MetricSpec("dA", A=A, basepoint=basepoint), spec_dA(1.3)
        pool = sample_boundary(T4, quasisym._pool_size(2000), 5)
        for got, spec in zip(ratio_pool(T4, spec1, spec2, 2000, 5), (spec1, spec2)):
            num, den = quasisym._AS_RATIO(exact_table(T4, spec, pool))
            assert got.num.dtype == got.den.dtype == object
            assert got.num.tolist() == num.tolist() and got.den.tolist() == den.tolist()
            assert {type(x) for x in got.num.ravel()} | {type(x) for x in got.den.ravel()} == {int}
            assert got.num.diagonal().tolist() == [0] * len(pool)
            assert got.den.diagonal().tolist() == [1] * len(pool)

    @pytest.mark.parametrize("spec2,kernels", [
        (spec_dA(2), 1), (spec_dbar(), 1), (MetricSpec("dA", A=2, basepoint=TreePoint((1,))), 2),
    ], ids=["dA-same-base", "dbar", "dA-other-base"])
    def test_one_branch_table_per_basepoint(self, monkeypatch, spec2, kernels):
        # two d_A tables at one basepoint read one branch-time table; a
        # dbar table is a float `pair_distance_matrix` of its own
        calls, pair_kernel = [], quasisym.pair_kernel

        def counted(*args):
            calls.append(args)
            return pair_kernel(*args)

        monkeypatch.setattr(quasisym, "pair_kernel", counted)
        ratio_pool(T4, spec_dA(1), spec2, 600, 1)
        assert len(calls) == kernels


class TestPowerLawFit:
    def test_diagonal(self):
        entries = [(t, t, (0, 1, 2)) for t in (0.1, 0.5, 1.0, 3.0, 10.0)]
        fit = power_law_fit(Envelope(entries))
        assert fit.c == 1.0 and fit.delta == 1.0 and fit.max_residual < 1e-12

    def test_linear_relation(self):
        entries = [(t, 5.0 * t, (0, 1, 2)) for t in (0.01, 0.2, 1.0, 7.0, 50.0)]
        fit = power_law_fit(Envelope(entries))
        assert abs(fit.c - 5.0) < 1e-9 and fit.delta == 1.0

    def test_witness_family_residual_grows(self):
        # a small delta hides any finite witness family behind t^{1/delta},
        # but the best fit degrades: the residual grows without bound
        prev = 0.0
        for top in (5, 10, 15, 20, 25):
            entries = [(2 * n + 1.0, math.exp(n), (0, 1, 2)) for n in range(1, top + 1)]
            fit = power_law_fit(Envelope(entries))
            assert fit.max_residual > prev
            prev = fit.max_residual
        assert prev > 10.0

    def test_empty_envelope_rejected(self):
        with pytest.raises(ValueError):
            power_law_fit(Envelope([]))

    @given(st.lists(st.tuples(st.floats(1e-6, 1e6), st.floats(1e-6, 1e6)), min_size=1, max_size=40))
    def test_equals_the_loop_form(self, pairs):
        fit = power_law_fit(Envelope([(t, r, (0, 1, 2)) for t, r in pairs]))
        assert (fit.c, fit.max_residual, fit.delta) == _loop_fit(pairs)

    @pytest.mark.parametrize("block_bytes", [1, 8 * 700, 8 * 3 * 700 + 8, 1 << 17])
    def test_blocks_of_deltas_equal_the_loop_form(self, block_bytes, monkeypatch):
        # one delta a row, one per block, seven and a part, all 96 at once:
        # real envelopes, with t on both sides of 1 and t = 1 itself
        monkeypatch.setattr(quasisym, "_FIT_BLOCK_BYTES", block_bytes)
        for spec2 in (spec_dA(2), spec_dbar()):
            pool = ratio_pool(T4, spec_dA(1), spec2, 700, 3)
            entries = qs_envelope(pool, 700, 3).entries + [(1.0, 2.0, (0, 1, 2))]
            assert min(t for t, _, _ in entries) < 1.0 < max(t for t, _, _ in entries)
            fit = power_law_fit(Envelope(entries))
            assert (fit.c, fit.max_residual, fit.delta) == _loop_fit([(t, r) for t, r, _ in entries])


def _loop_fit(pairs):
    """(c, residual, delta) of the fit by a per-pair loop over the IEEE
    operations of one delta's row."""
    log_pairs = [(math.log(t), math.log(r)) for t, r in pairs]
    best = None
    for step in range(96, 0, -1):
        delta = step / 96
        need = max(lr - max(lt * delta, lt / delta) for lt, lr in log_pairs)
        c = max(1.0, math.exp(need))
        resid = max(abs(math.log(c) + max(lt * delta, lt / delta) - lr) for lt, lr in log_pairs)
        if best is None or (c, resid) < best[:2]:
            best = (c, resid, delta)
    return best


class TestUniformPerfectness:
    def test_tree_constructive_witnesses(self):
        centers = sample_boundary(T4, 40, 3)
        radii = [Fraction(1, 2), Fraction(1, 7), Fraction(3, 2), Fraction(1, 100)]
        rep = uniformly_perfect_check(T4, centers, radii)
        assert rep.ok and rep.vacuous == 0
        for center, r, w, d in rep.witnesses:
            assert r / 4 <= Fraction(*d) < r

    def test_explicit_half_radius_witness(self):
        center = TreeBoundary((), (0,))
        rep = uniformly_perfect_check(T4, [center], [Fraction(1, 2)])
        (c, r, w, d) = rep.witnesses[0]
        assert d == (2, 5)        # branch at ceil(1/r) = 2

    def test_radius_beyond_diameter_vacuous(self):
        center = TreeBoundary((), (0,))
        rep = uniformly_perfect_check(T4, [center], [Fraction(3)])
        assert rep.vacuous == 1 and rep.ok

    def test_witness_distance_is_measured(self, monkeypatch):
        # a witness that branches off at the root is d_1 = 2 from its
        # center, outside every annulus r/4 <= d < r with r < 2
        def root_branch(space, center, r):
            return TreeBoundary((), ((center.letter(0) + 1) % (space.valence - 1),))

        monkeypatch.setattr(quasisym, "_tree_annulus_witness", root_branch)
        centers = sample_boundary(T4, 10, 3)
        rep = uniformly_perfect_check(T4, centers, [Fraction(1, 2), Fraction(1, 7)])
        assert len(rep.failures) == 20 and not rep.witnesses
        assert all(d == (2, 1) for _, _, d in rep.failures)

    @pytest.mark.parametrize("b", [2, 3, 8, 61])
    def test_annulus_edges_are_decided_exactly(self, monkeypatch, b):
        # witnesses branching at b lie at d = 2/(2b + 1): that is r/4 at
        # r = 8/(2b + 1), inside the annulus, and r itself at r = 2/(2b + 1),
        # outside it
        def branch_at_b(space, center, r):
            return TreeBoundary(center.prefix(b), (int(center.letter(b) == 0),))

        monkeypatch.setattr(quasisym, "_tree_annulus_witness", branch_at_b)
        centers = sample_boundary(T4, 10, 5)
        radii = [Fraction(8, 2 * b + 1), Fraction(2, 2 * b + 1)]
        rep = uniformly_perfect_check(T4, centers, radii)
        d = Fraction(2, 2 * b + 1)
        want = PerfectnessReport(cases=20, vacuous=0, failures=[], witnesses=[])
        for center in centers:
            for r in radii:
                w = branch_at_b(T4, center, r)
                assert eval_dA(T4, spec_dA(1), center, w) == d
                # the report gives each distance as its reduced integer ratio
                if r / 4 <= d < r:
                    want.witnesses.append((center, r, w, d.as_integer_ratio()))
                else:
                    want.failures.append((center, r, d.as_integer_ratio()))
        assert rep == want
        assert [r for _, r, _, _ in rep.witnesses] == [radii[0]] * 10
        assert [r for _, r, _ in rep.failures] == [radii[1]] * 10

    def test_small_radius_memory(self):
        # a witness for radius r agrees with its center for ceil(1/r) letters,
        # so r = 1/2000 unrolls every word to about 2000 letters: as int64
        # rows built from Python tuples, the word table peaks at 31.8 MB
        centers = sample_boundary(T4, 50, 3)
        radii = [Fraction(k, 64) for k in range(1, 127, 7)] + [Fraction(1, 2000)]
        tracemalloc.start()
        try:
            rep = uniformly_perfect_check(T4, centers, radii)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        # the same report as one exact d_1 per case
        want = PerfectnessReport(cases=50 * 19, vacuous=0, failures=[], witnesses=[])
        for center in centers:
            for r in radii:
                w = quasisym._tree_annulus_witness(T4, center, r)
                d = eval_dA(T4, spec_dA(1), center, w)
                if r / 4 <= d < r:
                    want.witnesses.append((center, r, w, d.as_integer_ratio()))
                else:
                    want.failures.append((center, r, d.as_integer_ratio()))
        assert rep == want and rep.ok

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError):
            uniformly_perfect_check(E2, sample_boundary(E2, 10, 4), [0.5])

    # r = 0 raised ZeroDivisionError, r = -1/4 IndexError, r = inf
    # OverflowError and r = nan the ValueError of `Fraction(nan)`
    @pytest.mark.parametrize("r", [Fraction(0), Fraction(-1, 4), math.inf, math.nan])
    def test_nonpositive_radius_rejected(self, r):
        with pytest.raises(ValueError, match="radius must be positive"):
            uniformly_perfect_check(T4, sample_boundary(T4, 3, 1), [Fraction(1, 2), r])
