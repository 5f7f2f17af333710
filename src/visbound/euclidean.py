"""Euclidean space R^n and its kernels: distances and rays, the chord of
two directions and the closed forms in it, the lattice ball system, and
the arc covers of the circle.  Distances are summed in one order
(`_chord`), so the points, the pair kernel and the ball test round alike."""

import functools
import math
from fractions import Fraction

import numpy as np

from .covers import Cover, tuple_parts
from .metrics import DA, DivergentGromovProductError, _wrapped_gap
from .spaces import (EUCLIDEAN, MODELS, EuclideanBoundary, EuclideanPoint, Space,
                     SpaceMismatchError, _euclidean_draws)

_SQRT_TINY = math.sqrt(np.finfo(float).tiny)


def _root_sum(diffs) -> np.ndarray:
    """sqrt of d * d summed left to right from 0 over the arrays d."""
    sq = 0.0
    for d in diffs:
        sq = sq + d * d
    return np.sqrt(sq)


def _chord(diffs) -> np.ndarray:
    """sqrt of d * d summed left to right from 0 over the coordinate
    differences d, given a column at a time (gathering rows instead made an
    R^2 table 2-3x slower); below sqrt(tiny), where a square may have
    underflowed, m |d / m|, m the largest |d|, which stays positive.  The
    IEEE operations of `Euclidean.dist`."""
    diffs = list(diffs)
    chord = _root_sum(diffs)
    low = chord < _SQRT_TINY
    if low.any():
        d = np.abs([np.broadcast_to(x, chord.shape)[low] for x in diffs])
        m = d.max(axis=0)
        chord[low] = m * _root_sum(d / np.where(m > 0, m, 1.0))
    return chord


def _inside(P, C, rad: float) -> np.ndarray:
    """dist(P, C) < rad elementwise over broadcast rows of coordinates, by
    `_chord` and a strict comparison."""
    return _chord(P[..., i] - C[..., i] for i in range(P.shape[-1])) < rad


def _angles(V: np.ndarray) -> np.ndarray:
    """The angle in [0, 2 pi) of each direction of R^2."""
    return np.arctan2(V[:, 1], V[:, 0]) % (2 * math.pi)


@functools.lru_cache(maxsize=64)
def stencil(radius: float, dim: int) -> np.ndarray:
    """Lattice offsets o, in lexicographic order, whose ball of the given
    radius around floor(p) + o can hold a point p of R^dim: the gap between
    o and the unit cube [0, 1]^n is shorter than radius + 1e-9.  A center
    off the stencil is farther from p than that, beyond any rounding of
    `dist`.  For radius + 1e-9 = p/q, a squared gap s is shorter iff
    s q^2 < p^2, that is s <= (p^2 - 1) // q^2."""
    p, q = (Fraction(radius) + Fraction(1, 10 ** 9)).as_integer_ratio()
    reach = -(-p // q)
    # every offset in [-reach, reach + 1]^n, in lexicographic order
    o = np.indices((2 * reach + 2,) * dim).reshape(dim, -1).T - reach
    gap = np.maximum(np.maximum(-o, o - 1), 0)
    return o[(gap * gap).sum(axis=1) <= (p * p - 1) // (q * q)]


class Euclidean(Space):
    """R^n, n = dim, whose boundary is the sphere of unit directions."""

    parameter = "dim"
    point, boundary = EuclideanPoint, EuclideanBoundary
    keys, of_key = _euclidean_draws, EuclideanBoundary

    def default_basepoint(self) -> EuclideanPoint:
        if self.dim < 1:
            raise ValueError("euclidean dimension must be >= 1")
        return EuclideanPoint((0.0,) * self.dim)

    def check(self, o) -> None:
        """n coordinates or components; raises SpaceMismatchError."""
        if self.dim != len(o.coords if isinstance(o, EuclideanPoint) else o.direction):
            raise SpaceMismatchError(f"{type(o).__name__} of another dimension does not belong "
                                     f"to R^{self.dim}")

    def check_orbit(self) -> None:
        """The integer lattice is an orbit in every dimension."""

    def boundary_size(self) -> float:
        return 2 if self.dim == 1 else math.inf

    def boundary_text(self, bp: EuclideanBoundary) -> str:
        return "dir=" + ",".join(f"{c:.17g}" for c in bp.direction)

    def dist(self, p: EuclideanPoint, q: EuclideanPoint) -> float:
        # `_chord` of one pair in Python floats (`sum` of floats compensates
        # from Python 3.12 on)
        diffs = [a - b for a, b in zip(p.coords, q.coords)]
        sq = 0.0
        for d in diffs:
            sq += d * d
        chord = math.sqrt(sq)
        m = max(map(abs, diffs)) if chord < _SQRT_TINY else 0.0
        if m > 0.0:
            sq = 0.0
            for d in diffs:
                sq += (abs(d) / m) * (abs(d) / m)
            chord = m * math.sqrt(sq)
        return chord

    def walk(self, p: EuclideanPoint, z, t, d) -> EuclideanPoint:
        """p + s v: (t, direction) on a ray (d None), (t/d, q - p) on a segment."""
        if d is None:
            s, v = float(t), z.direction
        else:
            s, v = float(t) / d, [b - a for a, b in zip(p.coords, z.coords)]
        return EuclideanPoint(tuple(a + s * c for a, c in zip(p.coords, v)))

    def _directions(self, boundary_sample: list) -> np.ndarray:
        """The (n, dim) array of the directions; raises SpaceMismatchError
        when one has another dimension (a ragged list, or n rows of
        another width, which no reshape to (n, dim) takes)."""
        try:
            return np.array([xi.direction for xi in boundary_sample],
                            dtype=float).reshape(len(boundary_sample), self.dim)
        except ValueError:
            raise SpaceMismatchError(f"a direction of another dimension does not belong "
                                     f"to R^{self.dim}") from None

    def prepare(self, points: list, origin: EuclideanPoint) -> tuple:
        """The chords |xi - eta| of the directions, from any basepoint; on R^2
        ordered by the angle, the turn, and no order in other dimensions."""
        V = self._directions(points)

        def kernel(I, J):
            return _chord(col[I] - col[J] for col in V.T)
        if self.dim != 2:
            return kernel, None

        def order():
            turn = _angles(V)
            return np.argsort(turn, kind="stable"), turn
        return kernel, order

    def closed_form(self, spec, chord: np.ndarray, exact: bool = False) -> np.ndarray:
        """d_A = chord/A and dbar = chord."""
        return chord / float(spec.A) if spec.family == DA else chord

    def gromov(self, chord: np.ndarray) -> np.ndarray:
        """2 - chord when |1 - chord/2| < 1e-10; t - f(t)/2 = t(1 - chord/2)
        diverges for any other pair, which raises DivergentGromovProductError."""
        if (np.abs(1.0 - chord / 2.0) >= 1e-10).any():
            raise DivergentGromovProductError(
                "t - f(t)/2 diverges for non-antipodal Euclidean directions: finite Gromov "
                "products need a tree or hyperbolic_plane")
        return 2.0 - chord

    def separation(self, chord: np.ndarray):
        b = chord.item(0)
        return lambda t: t * b

    def incidences(self, system, points) -> tuple:
        """Around the integer lattice: the points are the rows of an (m, n)
        float array, and the keys int64 rows."""
        P = np.asarray(points, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.dim:
            raise SpaceMismatchError(f"points of shape {P.shape} are not rows of R^{self.dim}")
        base = np.floor(P)
        offsets = stencil(float(system.radius), self.dim)
        hit = _inside(P[:, None, :], base[:, None, :] + offsets, float(system.radius))
        point_of, offset = np.nonzero(hit)
        rows = base.astype(np.int64)[point_of] + offsets[offset]
        # one stable sort of the key rows, first coordinate first, keeps the
        # point order of the incidences within each ball
        by_set = np.lexsort(rows.T[::-1])
        rows = rows[by_set]
        start = np.ones(len(rows), dtype=bool)
        start[1:] = (rows[1:] != rows[:-1]).any(axis=1)
        return rows[start], np.cumsum(start) - 1, point_of[by_set]

    def centers_near(self, system, p: EuclideanPoint) -> list:
        keys = self.incidences(system, np.array([p.coords], dtype=float))[0]
        return [EuclideanPoint(tuple(map(float, key))) for key in keys.tolist()]

    def orbit_order(self, system, resolution: int) -> int:
        """The largest count on a grid of resolution^n points of the unit
        cube, a block of offsets at a time (temporaries of ~2^12 entries)."""
        dim = self.dim
        axis = np.arange(resolution) / resolution
        grid = np.stack(np.meshgrid(*[axis] * dim, indexing="ij"), axis=-1)
        counts = np.zeros(grid.shape[:-1], dtype=np.int64)
        offsets = stencil(float(system.radius), dim).reshape((-1,) + (1,) * dim + (dim,))
        step = -(-(1 << 12) // counts.size)
        for lo in range(0, len(offsets), step):
            counts += _inside(grid, offsets[lo:lo + step], float(system.radius)).sum(axis=0)
        return int(counts.max())

    def pushout_points(self, lam, boundary_sample: list) -> np.ndarray:
        """basepoint + (1.0 / lam) V."""
        return (np.array(self.basepoint.coords)
                + (1.0 / float(lam)) * self._directions(boundary_sample))

    center_parts = staticmethod(tuple_parts)

    def colored_cover(self, lam, boundary_sample: list) -> Cover:
        """On the circle: two alternating colors of overlapping arcs, of
        diameter <= ~5 lam, same-color arcs a chordal gap >= lam/2 apart;
        raises ValueError when lam is too coarse for four arcs."""
        if self.dim != 2:
            return super().colored_cover(lam, boundary_sample)
        lamf = float(lam)
        theta = 4.0 * math.asin(min(1.0, lamf / 4.0))
        N = 2 * int(math.floor(math.pi / theta))
        if lamf >= 4.0 * math.sin(math.pi / 8) or N < 4:
            raise ValueError(f"scale {lamf:g} is too coarse for four arcs of the circle")
        spacing = 2 * math.pi / N
        half = 0.75 * spacing
        phi = _angles(self._directions(boundary_sample))
        mids = np.arange(N) * spacing
        set_of, point_of = np.nonzero(_wrapped_gap(phi, mids[:, None]) <= half)
        arcs = np.arange(N)
        return Cover(len(phi), set_of, point_of, [j % 2 for j in range(N)],
                     ("arc j=", (tuple(map(str, range(N))), arcs),
                      " center=", (tuple(f"{c:.6f}" for c in mids.tolist()), arcs),
                      f" half={half:.6f}"))


MODELS[EUCLIDEAN] = Euclidean
