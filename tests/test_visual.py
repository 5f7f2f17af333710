import math
from fractions import Fraction

import numpy as np
import pytest

from visbound import metrics, quasisym, visual
from visbound.metrics import pair_kernel, spec_dbar
from visbound.quasisym import uniformly_perfect_check
from visbound.spaces import (
    TreeBoundary,
    euclidean_space,
    hyperbolic_plane,
    sample_boundary,
    tree_space,
)
from visbound.visual import (
    FITS,
    nonqs_witness,
    nonvisual_witness_dA,
    visual_fit,
)

T4 = tree_space(4)
H2 = hyperbolic_plane()


def sample_pairs(space, n, seed):
    # 2n points and the index pairs (k, n + k)
    pts = sample_boundary(space, 2 * n, seed)
    return pts, np.stack([np.arange(n), np.arange(n, 2 * n)], axis=1)


class TestVisualFit:
    def test_tree_dbar_exactly_two(self):
        fit = visual_fit(T4, spec_dbar(), math.e, *sample_pairs(T4, 200, 3))
        assert fit.k1 == 2.0 and fit.k2 == 2.0
        assert fit.verdict == FITS

    def test_single_branch_zero_pair(self):
        pair = [TreeBoundary((), (0,)), TreeBoundary((), (1,))]
        fit = visual_fit(T4, spec_dbar(), math.e, pair, [(0, 1)])
        assert fit.k1 == fit.k2 == 2.0

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            visual_fit(T4, spec_dbar(), 1.0, *sample_pairs(T4, 2, 1))
        with pytest.raises(ValueError):
            visual_fit(T4, spec_dbar(), math.e, sample_boundary(T4, 2, 1), [])

    def test_hyperbolic_dbar_band(self):
        # constants stay in a bounded band over products in [0, 10];
        # recorded as empirical support only, so the band is generous
        from visbound.metrics import gromov_product
        pts, pairs = sample_pairs(H2, 150, 5)
        pairs = [(i, j) for i, j in pairs.tolist()
                 if gromov_product(H2, H2.basepoint, pts[i], pts[j]) <= 10.0]
        assert pairs
        fit = visual_fit(H2, spec_dbar(), math.e, pts, pairs)
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

    def test_branch_is_measured(self):
        # at A = 3 and n = 0 the row said branch -1 for rays branching at 0
        rows = nonvisual_witness_dA(T4, 3, range(0, 3))
        assert [r.branch for r in rows] == [r.product for r in rows] == [0, 0, 1]
        assert rows[0].dA == Fraction(2, 3)

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


@pytest.mark.parametrize("family", [
    lambda: uniformly_perfect_check(T4, sample_boundary(T4, 50, 1),
                                    [Fraction(r, 64) for r in range(1, 127, 6)]),
    lambda: nonvisual_witness_dA(T4, 1, range(1, 31)),
    lambda: nonqs_witness(T4, range(1, 26)),
], ids=["perfectness", "nonvisual", "nonqs"])
def test_each_tree_check_is_one_kernel_call(family, monkeypatch):
    prepared, called = [], []

    def spy(*args, **kwargs):
        prepared.append(args)
        kernel = pair_kernel(*args, **kwargs)
        return lambda I, J: called.append(len(I)) or kernel(I, J)

    for module in (metrics, visual, quasisym):
        monkeypatch.setattr(module, "pair_kernel", spy)
    family()
    assert len(prepared) == len(called) == 1
