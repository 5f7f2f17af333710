"""Properties that hold on every model space: the metric axioms of both
families from random basepoints, the sample metric equal to the table, the
canonical space names, and each tree rule raising the same error at every
entry point."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from visbound.cli import ConfigError, main, parse_space
from visbound.covers import LatticeBallSystem, boundary_pushout_cover, colored_boundary_cover
from visbound.metrics import (eval_dA, eval_dbar, gromov_product, pair_distance_matrix,
                              pair_kernel, sample_metric, spec_dA, spec_dbar)
from visbound.spaces import (EuclideanBoundary, HyperbolicBoundary, HyperbolicPoint, Ray, Space,
                             TreeBoundary, TreePoint, _check_kind, branch_time, dist,
                             euclidean_space, hyperbolic_plane, ray_point, space_id, tree_space)

# the triangle inequality d(i, k) <= d(i, j) + d(j, k) is checked with a
# slack of this many ulps of the largest of the three sides: each side is
# one rounded closed form of one pair invariant
TRIANGLE_ULPS = 4


@st.composite
def tree_samples(draw):
    """(space, points): T_k from a non-root vertex, and distinct boundary
    words of legal letters."""
    k = draw(st.integers(3, 6))

    def word(min_size, max_size, first=True):
        letters = draw(st.lists(st.integers(0, k - 2), min_size=min_size, max_size=max_size))
        if first and letters:
            letters[0] = draw(st.integers(0, k - 1))
        return tuple(letters)
    base = TreePoint(word(1, 4))
    points = {TreeBoundary(pre, word(1, 3, first=False))
              for pre in (word(0, 5) for _ in range(draw(st.integers(3, 10))))}
    return tree_space(k, base), sorted(points, key=lambda p: (p.preperiod, p.period))


@st.composite
def euclidean_samples(draw):
    """(space, points): R^n, n = 2..4, from a shifted basepoint, and
    distinct unit directions."""
    n = draw(st.integers(2, 4))
    coord = st.floats(-5, 5, allow_nan=False)
    base = tuple(draw(st.lists(coord, min_size=n, max_size=n)))
    directions = set()
    for v in draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=3, max_size=10)):
        norm = math.sqrt(sum(c * c for c in v))
        if norm > 1e-3:
            directions.add(tuple(c / norm for c in v))
    return euclidean_space(n, base), sorted(map(EuclideanBoundary, directions),
                                            key=lambda p: p.direction)


@st.composite
def hyperbolic_samples(draw):
    """(space, points): H^2 from a basepoint off the pole, and distinct
    boundary angles."""
    base = HyperbolicPoint(draw(st.floats(1e-3, 6)), draw(st.floats(0, 2 * math.pi)))
    angles = draw(st.lists(st.floats(0, 2 * math.pi, exclude_max=True), min_size=3,
                           max_size=10, unique=True))
    return hyperbolic_plane(base), [HyperbolicBoundary(a) for a in angles]


SAMPLES = [tree_samples(), euclidean_samples(), hyperbolic_samples()]
SPECS = [spec_dA(1), spec_dA(0.7), spec_dbar()]


def _distinct(points) -> list:
    """The points, each once (canonical words and wrapped angles can meet)."""
    return list(dict.fromkeys(points))


@pytest.mark.parametrize("spec", SPECS, ids=["dA1", "dA0.7", "dbar"])
@pytest.mark.parametrize("samples", SAMPLES, ids=["tree", "euclidean", "hyperbolic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_metric_axioms(samples, spec, data):
    space, points = data.draw(samples)
    points = _distinct(points)
    D = pair_distance_matrix(space, spec, points)
    n = len(points)
    off = ~np.eye(n, dtype=bool)
    assert (np.diag(D) == 0).all() and (D[off] > 0).all()
    assert np.array_equal(D, D.T)
    i, j, k = np.meshgrid(*[np.arange(n)] * 3, indexing="ij")
    longest = np.maximum(np.maximum(D[i, k], D[i, j]), D[j, k])
    excess = D[i, k] - (D[i, j] + D[j, k])
    assert (excess <= TRIANGLE_ULPS * np.finfo(float).eps * longest).all()


@pytest.mark.parametrize("spec", SPECS, ids=["dA1", "dA0.7", "dbar"])
@pytest.mark.parametrize("samples", SAMPLES, ids=["tree", "euclidean", "hyperbolic"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_sample_metric_is_the_table_bit_for_bit(samples, spec, data):
    space, points = data.draw(samples)
    points = _distinct(points)
    D = pair_distance_matrix(space, spec, points)
    I, J = (a.ravel() for a in np.indices(D.shape))
    got = sample_metric(space, spec, points).dist(I, J)
    assert got.dtype == D.dtype and got.tobytes() == D[I, J].tobytes()


@pytest.mark.parametrize("name", ["tree3", "tree4", "tree10", "tree256", "tree1000",
                                  "euclidean1", "euclidean2", "euclidean12", "hyperbolic_plane"])
def test_space_names_round_trip(name):
    assert space_id(parse_space(name)) == name


def test_space_of_a_kind_is_its_class():
    # Space(kind, ...) builds the class of the kind, which holds its kernels
    assert Space("tree", valence=4) == tree_space(4)
    assert type(Space("euclidean", dim=2)) is type(euclidean_space(2))
    assert type(Space("hyperbolic_plane")) is type(hyperbolic_plane())
    with pytest.raises(ValueError, match="unknown space kind"):
        Space("lobachevsky")


REJECTED_NAMES = ["tree04", "tree 4", "tree4 ", "tree+4", "euclidean 2", "tree1_0",
                  "euclidean02", "tree-4", " tree4", "tree", "euclidean", "tree٤",
                  "hyperbolic_plane2", "hyperbolic_plane ", "lobachevsky"]


@pytest.mark.parametrize("name", REJECTED_NAMES)
def test_non_canonical_space_names_rejected(name, tmp_path):
    with pytest.raises(ConfigError):
        parse_space(name)
    assert main(["metric", "--space", name, "--n", "5", "--out", str(tmp_path)]) == 1


A, B = TreeBoundary((0,), (1,)), TreeBoundary((2,), (0, 1))
ROOT = TreePoint(())
BAD_POINT = TreePoint((1, 3))          # a later letter >= k - 1 on T4
BAD_WORD = TreeBoundary((1,), (3,))    # a period letter >= k - 1 on T4
EDGE = TreePoint((0,), Fraction(1, 2))
T4 = tree_space(4)

ILLEGAL_WORD = {
    "dist": lambda: dist(T4, BAD_POINT, ROOT),
    "basepoint": lambda: tree_space(4, BAD_POINT),
    "ray-origin": lambda: Ray(T4, BAD_POINT, A),
    "ray-target": lambda: Ray(T4, ROOT, BAD_WORD),
    "segment-target": lambda: Ray(T4, ROOT, BAD_POINT),
    "centers_near": lambda: LatticeBallSystem(T4, 1).centers_near(BAD_POINT),
    "_check_kind": lambda: _check_kind(T4, BAD_WORD),
    "branch_time": lambda: branch_time(T4, A, BAD_WORD),
    "pair_kernel": lambda: pair_kernel(T4, [A, BAD_WORD]),
    "pair_kernel-origin": lambda: pair_kernel(T4, [A, B], BAD_POINT),
    "pair_distance_matrix": lambda: pair_distance_matrix(T4, spec_dA(1), [A, BAD_WORD]),
    "sample_metric": lambda: sample_metric(T4, spec_dbar(), [A, BAD_WORD]),
    "eval_dA": lambda: eval_dA(T4, spec_dA(1), A, BAD_WORD),
    "eval_dA-bisect": lambda: eval_dA(T4, spec_dA(1), A, BAD_WORD, method="bisect"),
    "eval_dbar-quadrature": lambda: eval_dbar(T4, spec_dbar(), A, BAD_WORD,
                                              method="quadrature"),
    "gromov_product": lambda: gromov_product(T4, ROOT, A, BAD_WORD),
    "gromov_product-origin": lambda: gromov_product(T4, BAD_POINT, A, B),
    "pushout": lambda: boundary_pushout_cover(T4, LatticeBallSystem(T4, 2), 0.5, 1,
                                              [A, BAD_WORD]),
    "colored_cover": lambda: colored_boundary_cover(T4, 0.5, [A, BAD_WORD]),
}
OFF_VERTEX = {
    "basepoint": lambda: tree_space(4, EDGE),
    "ray": lambda: Ray(T4, EDGE, A),
    "segment": lambda: ray_point(Ray(T4, EDGE, ROOT), 0.25),
    "pair_kernel": lambda: pair_kernel(T4, [A, B], EDGE),
    "sample_metric": lambda: sample_metric(T4, spec_dA(1, basepoint=EDGE), [A, B]),
    "eval_dA": lambda: eval_dA(T4, spec_dA(1, basepoint=EDGE), A, B),
    "eval_dbar-quadrature": lambda: eval_dbar(T4, spec_dbar(basepoint=EDGE), A, B,
                                              method="quadrature"),
    "gromov_product": lambda: gromov_product(T4, EDGE, A, B),
}


@pytest.mark.parametrize("rule, case", [("illegal tree word", c) for c in ILLEGAL_WORD.values()]
                         + [("vertex origins", c) for c in OFF_VERTEX.values()],
                         ids=[f"word-{k}" for k in ILLEGAL_WORD]
                         + [f"vertex-{k}" for k in OFF_VERTEX])
def test_each_tree_rule_raises_alike_at_every_entry(rule, case):
    # one letter rule and one vertex rule, stated once on the tree: each
    # entry raises a plain ValueError with its text
    with pytest.raises(ValueError, match=rule) as raised:
        case()
    assert type(raised.value) is ValueError


@pytest.mark.parametrize("k", [4, 300])
@pytest.mark.parametrize("word", [((), (3,)), ((), (2, 1)), ((3,), (0,)), ((4,), (0,)),
                                  ((0, 3), (1,)), ((-1,), (0,)), ((), (0, 256)), ((), (65536,)),
                                  ((299,), (298,)), ((), (299,))])
def test_pair_kernel_letter_check_agrees_with_the_rule(k, word):
    # the pair kernel reads the letters from the unrolled words, narrowed
    # to a byte or two only after the check: a period letter at position 0
    # is a later letter, and no letter wraps into range
    space, xi = tree_space(k), TreeBoundary(*word)
    try:
        space.check(xi)
    except ValueError:
        with pytest.raises(ValueError, match="illegal tree word"):
            pair_kernel(space, [TreeBoundary((0,), (1,)), xi])
    else:
        assert pair_kernel(space, [TreeBoundary((0,), (1,)), xi])(np.array([0]),
                                                                 np.array([1])) >= 0
