"""The regular tree T_k with unit edge lengths and its kernels: exact
distances and rays, branch times and the closed forms in them, the vertex
ball system and the cylinder covers, whose words are `bytes`."""

import itertools
import math
from fractions import Fraction

import numpy as np

from .covers import Cover, tuple_parts
from .metrics import _PAIR_CHUNK, DBAR, _Rationals
from .spaces import (MODELS, TREE, IdenticalBoundaryPointsError, Space, TreeBoundary, TreePoint,
                     _canonical_word, _tree_draws)

# unrolled words stay within this many bytes per block, as int64 letters
# while they are built and as narrow letters while they are scanned
_WORD_BLOCK_BYTES = 64 * _PAIR_CHUNK
# the one-letter words
_LETTERS = [bytes((a,)) for a in range(256)]


def _meet(p: TreePoint, z) -> Fraction:
    """Depth at which the root paths to p and to z, a point or a boundary
    point of T_k, part."""
    wp = p.word
    wz, depth_z = (z.prefix(len(wp)), math.inf) if isinstance(z, TreeBoundary) else (z.word, z.depth)
    j = 0
    m = min(len(wp), len(wz))
    while j < m and wp[j] == wz[j]:
        j += 1
    if j < len(wp) and j < len(wz):
        return Fraction(j)
    return min(p.depth, depth_z)


def _at_depth(word: tuple, d: Fraction) -> TreePoint:
    """Point at depth d on the root path spelled by `word` (len >= ceil(d))."""
    n = math.ceil(d)
    return TreePoint(tuple(word[:n]), d - n + 1 if d < n else Fraction(0))


def _illegal_word(o, k: int) -> ValueError:
    return ValueError(f"illegal tree word {o}: first letter must be < {k}, "
                      f"later letters < {k - 1}")


def _words(k: int, points: list, v: tuple) -> np.ndarray:
    """The boundary words unrolled, a block of rows at a time, to a length
    L >= 1 at which any two distinct words differ and which holds the
    vertex word v, as narrow letters.  Raises ValueError on a word that
    breaks the letter rule of `Tree.check`; L covers each word's
    preperiod and a whole period, so every letter is checked."""
    periods = {len(p.period) for p in points}
    L = max(1, len(v), max((len(p.preperiod) for p in points), default=0)
            + max((math.lcm(a, b) for a in periods for b in periods), default=0))
    W = np.empty((len(points), L), dtype=np.min_scalar_type(k))
    rows = max(1, _WORD_BLOCK_BYTES // (8 * (L + 1)))
    cols = np.arange(L)
    for lo in range(0, len(points), rows):
        block = points[lo:lo + rows]
        P = np.array([len(p.preperiod) for p in block])[:, None]
        Q = np.array([len(p.period) for p in block])[:, None]
        # each word's preperiod and period letters, read at column j from
        # j itself, then P + (j - P) mod Q
        letters = np.array(list(itertools.chain.from_iterable(p.preperiod + p.period
                                                              for p in block)))
        start = np.cumsum(P + Q) - (P + Q).ravel()
        U = letters[start[:, None] + np.where(cols < P, cols, P + (cols - P) % Q)]
        # a first letter that is a period letter is also a later one
        bad = (U.min(axis=1) < 0) | (U[:, 1:].max(axis=1, initial=0) >= k - 1) \
            | (U[:, 0] >= np.where(P[:, 0] > 0, k, k - 1))
        if bad.any():
            raise _illegal_word(block[int(bad.argmax())], k)
        W[lo:lo + rows] = U
    return W


def _lookup(value, B: np.ndarray, dtype=float, after=()) -> np.ndarray:
    """The array that branch times B index: value(b) for b = 0..max(B), one
    call per branch time, then the entries `after` (an entry -1 reads the last)."""
    return np.array([value(b) for b in range(int(B.max(initial=0)) + 1)] + list(after), dtype)


def _rank_words(words: list) -> tuple:
    """(keys, codes): the distinct words in increasing order, and the index
    in keys of each word, as int64 (`bytes` sort as tuples do)."""
    keys = sorted(set(words))
    rank = {w: i for i, w in enumerate(keys)}
    return keys, np.fromiter(map(rank.__getitem__, words), dtype=np.int64, count=len(words))


def _levels(head: bytes, levels: int, k: int) -> list:
    """Words of the first `levels` levels of the subtree of T_k at the
    non-root vertex `head`."""
    if levels <= 0:
        return []
    out, level, letters = [], [head], _LETTERS[:k - 1]
    for _ in range(levels - 1):
        out += level
        level = [w + a for w in level for a in letters]
    return out + level


def _ball(k: int, w: bytes, levels, budget: int) -> list:
    """Vertex words within open distance 2R of the vertex w (levels None)
    or of a point on the edge into w, by integer depth budgets: walk up
    the ancestors of the point while they are inside (i steps up iff
    i < budget), and take from each the levels of its other branches
    that stay inside; the far end w of an edge has `levels` inside."""
    if levels is None:
        up, skip, out = w, None, []
    else:
        up, skip = w[:-1], w[-1]
        out = _levels(w, levels, k)
    for i in range(min(budget, len(up) + 1)):
        a = up[:len(up) - i]
        out.append(a)
        for c in range(k if not a else k - 1):
            if c != skip:
                out += _levels(a + _LETTERS[c], budget - i - 1, k)
        skip = a[-1] if a else None
    return out


class Tree(Space):
    """T_k, k = valence, rooted at the empty word; rays leave from vertices."""

    parameter = "valence"
    point, boundary = TreePoint, TreeBoundary
    exact_zero = Fraction(0)
    of_key = TreeBoundary._of_canonical

    def default_basepoint(self) -> TreePoint:
        """The root; 3 <= k <= 2^32, so that a letter draw takes 32 bits
        (`spaces._tree_draws`)."""
        if not 3 <= self.valence <= 1 << 32:
            raise ValueError(f"tree valence must be in [3, 2^32], got {self.valence}")
        return TreePoint(())

    def check(self, o) -> None:
        """The letter rule, on a point's word or a boundary word with its
        period read twice (each period letter also at a later position):
        the first letter is below k, each later one below k - 1."""
        word = o.word if isinstance(o, TreePoint) else o.preperiod + 2 * o.period
        k = self.valence
        if word and not (0 <= min(word) and word[0] < k and max(word[1:], default=0) < k - 1):
            raise _illegal_word(o, k)

    def check_origin(self, p: TreePoint) -> None:
        if not p.is_vertex:
            raise ValueError("tree rays are only supported from vertex origins")

    def check_orbit(self) -> None:
        """Words of the ball system and the covers hold a letter per byte."""
        if self.valence > 256:
            raise ValueError(f"tree valence {self.valence} > 256: a word letter must fit in a byte")

    def keys(self, rng):
        """The canonical words of the raw draws of `_tree_draws`, a raw draw
        seen before skipped uncanonicalized: its word is already a key."""
        drawn = set()
        for raw in _tree_draws(self, rng):
            if raw not in drawn:
                drawn.add(raw)
                pre_len, letters = raw
                yield _canonical_word(letters[:pre_len], letters[pre_len:])

    def boundary_text(self, bp: TreeBoundary) -> str:
        return f"pre={'.'.join(map(str, bp.preperiod))} per={'.'.join(map(str, bp.period))}"

    def dist(self, p: TreePoint, q: TreePoint) -> Fraction:
        return p.depth + q.depth - 2 * _meet(p, q)

    def walk(self, p: TreePoint, z, t, d) -> TreePoint:
        """Back up p's word to the meet with z, then down z's."""
        t = t if isinstance(t, Fraction) else Fraction(t)
        m = _meet(p, z)
        up = p.depth - m
        if t <= up:
            return _at_depth(p.word, p.depth - t)
        s = m + (t - up)
        return _at_depth(z.prefix(math.ceil(s)) if d is None else z.word, s)

    def prepare(self, points: list, origin: TreePoint) -> tuple:
        """The branch times (int64) of the rays from the vertex `origin`,
        raising IdenticalBoundaryPointsError on a repeated point, and
        ValueError on a word with an illegal letter (`_words`).  From the
        root, the first mismatches of the unrolled words (`_words`), in
        blocks of at most _PAIR_CHUNK pairs and _WORD_BLOCK_BYTES letters,
        ordered by word, a line; a vertex v adds |v| - lcp(v, xi) -
        lcp(v, eta), and has no order."""
        v = origin.word
        W = _words(self.valence, points, v)
        lcp = order = None
        if v:
            neq = W[:, :len(v)] != np.array(v)
            lcp = np.where(neq.any(axis=1), neq.argmax(axis=1), len(v))
        else:
            order = lambda: (np.lexsort(W.T[::-1]), None)
        step = max(1, min(_PAIR_CHUNK, _WORD_BLOCK_BYTES // (W.itemsize * W.shape[1])))

        def branch_times(I, J):
            out = np.empty(len(I), dtype=np.int64)
            for lo in range(0, len(I), step):
                neq = W[I[lo:lo + step]] != W[J[lo:lo + step]]
                first = neq.argmax(axis=1)
                if not neq[np.arange(len(first)), first].all():
                    raise IdenticalBoundaryPointsError(
                        "identical boundary points - branch time infinite")
                out[lo:lo + len(first)] = first
            if lcp is not None:
                out += len(v) - lcp[I] - lcp[J]
            return out
        return branch_times, order

    def closed_form(self, spec, B: np.ndarray, exact: bool = False):
        """d_A = 1/(b + A/2) and dbar = 2e^{-b}, once per branch time by
        IEEE division and `math.exp`; with `exact`, d_A as `_Rationals` of
        the `Fraction`s 1/(b + A/2), a branch time -1 (a diagonal) as 0/1."""
        if spec.family == DBAR:
            return _lookup(lambda b: 2.0 * math.exp(-b), B)[B]
        if not exact:
            half = float(spec.A) / 2.0
            return _lookup(lambda b: 1 / (b + half), B)[B]
        half = Fraction(spec.A) / 2
        num, den = _lookup(lambda b: (1 / (b + half)).as_integer_ratio(), B, object, [(0, 1)]).T
        return _Rationals(num[B], den[B])

    def gromov(self, B: np.ndarray) -> np.ndarray:
        return B

    def separation(self, B: np.ndarray):
        b = B.item(0)
        return lambda t: 2.0 * max(0.0, t - b)

    def visual_values(self, spec, la: float, B: np.ndarray) -> np.ndarray:
        """In single-exponent forms, so that a = e gives dbar the constant 2
        exactly."""
        if spec.family == DBAR:
            value = lambda b: 2.0 * math.exp(b * (la - 1.0))
        else:
            value = lambda b: math.exp(b * la) / (b + float(spec.A) / 2.0)
        return _lookup(value, B)[B]

    def incidences(self, system, points) -> tuple:
        """Around every vertex, of points (word, (num, den)) at offset
        num/den along the edge into the word, whose `_ball` budgets are
        exact ceilings, taken once per distinct offset."""
        rad, budgets, balls = Fraction(system.radius), {}, []
        for word, ratio in points:
            if ratio not in budgets:
                o = Fraction(*ratio)
                budgets[ratio] = ((math.ceil(rad + o) - 1, math.ceil(rad - o))
                                  if o else (None, math.ceil(rad)))
            balls.append(_ball(self.valence, word, *budgets[ratio]))
        keys, set_of = _rank_words(list(itertools.chain.from_iterable(balls)))
        point_of = np.repeat(np.arange(len(balls)), [len(b) for b in balls])
        # the incidences come in point order, which a stable sort keeps
        # within each ball
        by_set = np.argsort(set_of, kind="stable")
        return keys, set_of[by_set], point_of[by_set]

    def centers_near(self, system, p: TreePoint) -> list:
        keys = self.incidences(system, [(bytes(p.word), p.offset.as_integer_ratio())])[0]
        return [TreePoint(tuple(key)) for key in keys]

    def orbit_order(self, system, resolution: int) -> int:
        """The count at 16 offsets along one deep edge, as on any edge."""
        deep = bytes([0] + [1, 0] * (int(system.radius) + 2))
        edge = [(deep, (num, 16)) for num in range(16)]
        return int(np.bincount(self.incidences(system, edge)[2]).max())

    def pushout_points(self, lam, boundary_sample: list) -> list:
        """At t = 1/Fraction(lam) = whole + off, a ray leaving the word of the
        basepoint v at depth m <= |v| - ceil(t) is at depth |v| - t on v, at
        offset 1 - off (0 for off = 0), else at depth 2m - |v| + t on its
        own word, at offset off."""
        whole, off = divmod(1 / Fraction(lam), 1)
        top = self.basepoint.word
        rise = len(top) - whole - (off > 0)
        upper = (bytes(top[:len(top) - whole]), (1 - off if off else off).as_integer_ratio())
        down = off.as_integer_ratio()
        points = []
        for xi in boundary_sample:
            m = next((j for j, (a, b) in enumerate(zip(top, xi.prefix(len(top)))) if a != b),
                     len(top))
            points.append(upper if m <= rise else (bytes(xi.prefix(2 * m - rise)), down))
        return points

    @staticmethod
    def center_parts(words: list) -> tuple:
        """`tuple_parts` of the vertex words, a letter per byte, NUL-padded."""
        lens = np.fromiter(map(len, words), dtype=np.int32, count=len(words))
        width = max(1, int(lens.max(initial=0)))
        letters = np.array(words, dtype=f"S{width}").view(np.uint8).reshape(len(words), width)
        return tuple_parts(letters, lens)

    def colored_cover(self, lam, boundary_sample: list) -> Cover:
        """One color of disjoint cylinders of d_1 diameter below lam."""
        self.check_orbit()
        depth = max(1, math.ceil(math.log(4.0 / float(lam)) - 1e-9))
        keys, cylinder = _rank_words([bytes(xi.prefix(depth)) for xi in boundary_sample])
        point_of = np.argsort(cylinder, kind="stable")
        return Cover(len(cylinder), cylinder[point_of], point_of, (0,) * len(keys),
                     (f"cylinder depth={depth} word=(", *self.center_parts(keys)))


MODELS[TREE] = Tree
