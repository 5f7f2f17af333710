import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from visbound import quasisym
from visbound.metrics import MetricSpec, spec_dA, spec_dbar
from visbound.quasisym import (
    Envelope,
    eta_change_A,
    eta_change_basepoint,
    linear_control,
    power_law_fit,
    qs_envelope,
    uniformly_perfect_check,
    verify_control,
)
from visbound.spaces import (
    TreeBoundary,
    TreePoint,
    euclidean_space,
    sample_boundary,
    tree_space,
)

T4 = tree_space(4)
E2 = euclidean_space(2)


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
        rep = verify_control(T4, spec_dA(1), spec_dA(1), linear_control(Fraction(1)), 2000, 1)
        assert rep.violations == 0
        assert rep.worst_margin <= 1

    def test_change_A_tree_exact(self):
        rep = verify_control(T4, spec_dA(1), spec_dA(2), eta_change_A(1, 2), 3000, 2)
        assert rep.violations == 0 and rep.discarded == 0

    def test_change_A_circle(self):
        rep = verify_control(E2, spec_dA(1), spec_dA(2), eta_change_A(1, 2), 3000, 2)
        assert rep.violations == 0

    def test_violations_reported_for_too_small_eta(self):
        # d_1 -> d_2 needs slope 2; slope 1.2 must fail somewhere
        rep = verify_control(T4, spec_dA(1), spec_dA(2), linear_control(Fraction(6, 5)),
                             4000, 3)
        assert rep.violations > 0
        assert rep.witnesses
        assert rep.worst_margin > 1

    def test_basepoint_change_tree(self):
        moved = MetricSpec("dA", A=4, basepoint=TreePoint((0,)))
        rep = verify_control(T4, MetricSpec("dA", A=4), moved,
                             eta_change_basepoint(4, 1), 3000, 4)
        assert rep.violations == 0

    def test_report_serializes(self):
        rep = verify_control(T4, spec_dA(1), spec_dA(1), linear_control(Fraction(1)), 100, 5)
        d = rep.to_dict()
        assert set(d) == {"violations", "worst_margin", "discarded", "checked", "seed"}


class TestEnvelope:
    def test_deterministic(self):
        e1 = qs_envelope(T4, spec_dA(1), spec_dbar(), 500, 11)
        e2 = qs_envelope(T4, spec_dA(1), spec_dbar(), 500, 11)
        assert e1.entries == e2.entries

    def test_identity_envelope_on_diagonal(self):
        env = qs_envelope(E2, spec_dA(1), spec_dA(1), 500, 6)
        assert all(abs(t - r) < 1e-12 for t, r, _ in env.entries)

    def test_change_A_envelope_below_line(self):
        env = qs_envelope(T4, spec_dA(1), spec_dA(2), 2000, 7)
        assert all(r <= 2 * t * (1 + 1e-12) for t, r, _ in env.entries)


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
        # reference: a per-pair loop over the IEEE operations of the numpy rows
        log_pairs = [(math.log(t), math.log(r)) for t, r in pairs]
        best = None
        for step in range(96, 0, -1):
            delta = step / 96
            need = max(lr - max(lt * delta, lt / delta) for lt, lr in log_pairs)
            c = max(1.0, math.exp(need))
            resid = max(abs(math.log(c) + max(lt * delta, lt / delta) - lr)
                        for lt, lr in log_pairs)
            if best is None or (c, resid) < best[:2]:
                best = (c, resid, delta)
        fit = power_law_fit(Envelope([(t, r, (0, 1, 2)) for t, r in pairs]))
        assert (fit.c, fit.max_residual, fit.delta) == best


class TestUniformPerfectness:
    def test_tree_constructive_witnesses(self):
        centers = sample_boundary(T4, 40, 3)
        radii = [Fraction(1, 2), Fraction(1, 7), Fraction(3, 2), Fraction(1, 100)]
        rep = uniformly_perfect_check(T4, centers, radii)
        assert rep.ok and rep.vacuous == 0
        for center, r, w, d in rep.witnesses:
            assert r / 4 <= d < r

    def test_explicit_half_radius_witness(self):
        center = TreeBoundary((), (0,))
        rep = uniformly_perfect_check(T4, [center], [Fraction(1, 2)])
        (c, r, w, d) = rep.witnesses[0]
        assert d == Fraction(2, 5)        # branch at ceil(1/r) = 2

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
        assert all(d == 2 for _, _, d in rep.failures)

    def test_non_tree_rejected(self):
        with pytest.raises(ValueError):
            uniformly_perfect_check(E2, sample_boundary(E2, 10, 4), [0.5])
