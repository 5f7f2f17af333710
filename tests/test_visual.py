import math
from fractions import Fraction

import pytest

from visbound.metrics import MetricSpec, spec_dbar
from visbound.spaces import (
    TreeBoundary,
    euclidean_space,
    hyperbolic_plane,
    sample_boundary,
    tree_space,
)
from visbound.visual import (
    FITS,
    UNBOUNDED,
    nonqs_witness,
    nonvisual_witness_dA,
    visual_fit,
)

T4 = tree_space(4)
H2 = hyperbolic_plane()


def sample_pairs(space, n, seed):
    pts = sample_boundary(space, 2 * n, seed)
    return list(zip(pts[:n], pts[n:]))


class TestVisualFit:
    def test_tree_dbar_exactly_two(self):
        fit = visual_fit(T4, spec_dbar(), math.e, sample_pairs(T4, 200, 3))
        assert fit.k1 == 2.0 and fit.k2 == 2.0
        assert fit.verdict == FITS

    def test_single_branch_zero_pair(self):
        pair = (TreeBoundary((), (0,)), TreeBoundary((), (1,)))
        fit = visual_fit(T4, spec_dbar(), math.e, [pair])
        assert fit.k1 == fit.k2 == 2.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            visual_fit(T4, spec_dbar(), 1.0, sample_pairs(T4, 2, 1))
        with pytest.raises(ValueError):
            visual_fit(T4, spec_dbar(), math.e, [])

    def test_nested_families_flag_unbounded(self):
        spec = MetricSpec("dA", A=1)
        fams = []
        for top in (5, 10, 20, 30):
            fams.append([(TreeBoundary((), (0,)),
                          TreeBoundary(tuple([0] * n) + (1,), (0,)))
                         for n in range(1, top + 1)])
        fit = visual_fit(T4, spec, math.e, fams[0], nested_families=fams)
        assert fit.verdict == UNBOUNDED

    def test_hyperbolic_dbar_band(self):
        # constants stay in a bounded band over products in [0, 10];
        # recorded as empirical support only, so the band is generous
        from visbound.metrics import gromov_product
        pairs = [(x, y) for x, y in sample_pairs(H2, 150, 5)
                 if gromov_product(H2, H2.basepoint, x, y) <= 10.0]
        assert pairs
        fit = visual_fit(H2, spec_dbar(), math.e, pairs)
        assert fit.verdict == FITS
        assert 0.1 < fit.k1 <= fit.k2 < 20.0


class TestNonVisualWitness:
    def test_formula_instances(self):
        rows = nonvisual_witness_dA(T4, 1, range(0, 3))
        assert rows[0].branch == 0 and rows[0].dA == 2      # degenerate n=0
        assert rows[1].branch == 1 and rows[1].dA == Fraction(2, 3)

    def test_growth_strictly_increasing(self):
        rows = nonvisual_witness_dA(T4, 1, range(1, 31))
        assert all(a.growth < b.growth for a, b in zip(rows, rows[1:]))
        assert rows[-1].growth >= 1e10

    def test_branch_uses_ceiling(self):
        rows = nonvisual_witness_dA(T4, Fraction(3, 2), [4])
        assert rows[0].branch == math.ceil(4 - Fraction(3, 4))

    def test_tree_only(self):
        with pytest.raises(ValueError):
            nonvisual_witness_dA(euclidean_space(2), 1, [1])


class TestNonQSWitness:
    def test_formula_instances(self):
        rows = nonqs_witness(T4, [0, 1])
        assert rows[0].t == 1 and rows[0].rho == 1.0
        assert rows[1].t == 3 and abs(rows[1].rho - math.e) < 1e-12

    def test_required_c_monotone_and_large(self):
        rows = nonqs_witness(T4, range(1, 26))
        assert all(a.required_c < b.required_c for a, b in zip(rows, rows[1:]))
        assert rows[-1].required_c > 1e6

    def test_delta_one_value(self):
        rows = nonqs_witness(T4, [20], delta=1.0)
        assert abs(rows[0].required_c - math.exp(20) / 41) < 1e-6 * math.exp(20) / 41

    def test_delta_validated(self):
        with pytest.raises(ValueError):
            nonqs_witness(T4, [1], delta=2.0)
