"""Command-line driver: reproducible experiments over the model spaces,
emitting CSV/JSON artifacts plus a manifest with config hash and verdicts.

Exit status: 0 = all asserted bounds passed, 2 = a bound was violated,
1 = usage or configuration error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .covers import (LatticeBallSystem, ScaleRow, ScaleSchedule, annular_pushin_cover,
                     boundary_pushout_cover, colored_boundary_cover, cover_stats,
                     ell_dim_estimate, orbit_ball_order, sample_ray_points)
from .metrics import (_PAIR_CHUNK, DA, DBAR, MetricSpec, pair_blocks, pair_distance_matrix,
                      sample_metric)
from .quasisym import (linear_control, power_law_fit, qs_envelope, ratio_pool,
                       uniformly_perfect_check, verify_control)
from .spaces import (Space, boundary_to_line, distinct_rows, sample_boundary, space_id, space_of_id,
                     substream, tree_space)
from .visual import nonqs_witness, nonvisual_witness_dA, visual_fit

class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    experiment: str = ""
    space: str = "tree4"
    metric: str = DBAR
    A: float = 1.0
    metric2: str = ""
    A2: float = 2.0
    a: float = math.e
    seed: int = 0
    n: int = 200
    n_triples: int = 10000
    scales: list = field(default_factory=lambda: [0.5, 0.25, 0.125, 0.0625, 0.03125, 0.015625])
    R: float = 2.0
    K: int = 5
    c: float = 1.0
    window: float = 14.0
    out: str = "out"
    # not a field: every run evaluates its metrics at the kernels' default
    # tolerance, which oracle checks of the outputs read here
    tol = MetricSpec.tol

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        bad = set(d) - known
        if bad:
            raise ConfigError(f"unknown config field(s): {sorted(bad)}")
        return cls(**d)

    def validate(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if any(isinstance(x, float) and not math.isfinite(x)
                   for x in (value if isinstance(value, list) else [value])):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.experiment not in RUNNERS:
            raise ConfigError(f"experiment must be one of {tuple(RUNNERS)}, got {self.experiment!r}")
        if self.metric not in (DA, DBAR):
            raise ConfigError(f"metric must be dA or dbar, got {self.metric!r}")
        if self.metric2 and self.metric2 not in (DA, DBAR):
            raise ConfigError(f"metric2 must be dA or dbar, got {self.metric2!r}")
        if self.A <= 0 or self.A2 <= 0:
            raise ConfigError("A and A2 must be positive")
        if self.a <= 1:
            raise ConfigError(f"a must exceed 1, got {self.a!r}")
        for name in ("seed", "n", "n_triples", "K"):
            if type(getattr(self, name)) is not int:
                raise ConfigError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed!r}")
        if self.n < 1 or self.n_triples < 1:
            raise ConfigError("sample sizes must be >= 1")
        if not self.scales:
            raise ConfigError("scales must not be empty")
        if any(s <= 0 for s in self.scales):
            raise ConfigError("scales must be positive")
        if self.R <= 0 or self.K < 0 or self.c < 1:
            raise ConfigError("need R > 0, K >= 0, c >= 1")
        if self.window < 0.125:
            raise ConfigError(f"window must be at least 1/8, the dyadic radius step, "
                              f"got {self.window!r}")
        if self.experiment == "cover-pushout" and self.R <= self.A:
            raise ConfigError("pushout requires R > A")
        if self.experiment == "cover-pushin":
            if self.R != int(self.R):
                raise ConfigError("pushin uses integer R (scale ladder alignment)")
            # the interior radii are the eighths below the window, and the
            # tubes and the base ball hold the radii below (K+2)R
            if int(8 * self.window) > 8 * (self.K + 2) * self.R:
                raise ConfigError(f"window must be below (K+2)R + 1/8 = "
                                  f"{(self.K + 2) * self.R + 0.125:g}, so that no radius drawn "
                                  f"reaches (K+2)R, got {self.window!r}")


def parse_space(name: str) -> Space:
    """The space that `space_id` names `name`; any other name raises
    ConfigError."""
    space = space_of_id(name)
    if space is None:
        raise ConfigError(f"unknown space {name!r} (euclideanN, treeK, hyperbolic_plane; "
                          f"N and K in decimal digits without a leading zero)")
    return space


def _spec(cfg: RunConfig, which: int = 1) -> MetricSpec:
    fam, A = (cfg.metric, cfg.A) if which == 1 else (cfg.metric2 or cfg.metric, cfg.A2)
    return MetricSpec(fam, A=A if fam == DA else None)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv(header: list, rows: list) -> bytes:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# CSV lines as word arrays: `%.17g` of float64 arrays in numpy integers
#
# A positive x whose `%.17g` text is fixed-point has a decimal exponent E in
# [-4, 16] and 17 significant digits D = round(x 10^p), p = 16 - E, half to
# even.  10^p is exact for p <= 22, and Dekker's two-product (T. J. Dekker,
# Numer. Math. 18, 1971) splits x 10^p exactly into hi + lo, hi its float64
# rounding: where hi >= 2^53, hi is an even integer and D = hi + rint(lo).
# E starts as floor(log10 x); where D falls outside [10^16, 10^17), D is
# recomputed at the corrected E.  Every other value (0, -0, negatives,
# subnormals, inf, nan, exponent notation) is formatted by `'%.17g' % x`.
#
# The text is the integer part, a "." unless no fraction digit is left, and
# the fraction: the digits "00" D from byte 3 + E on (from byte 0 after
# "0.0" at E = -4), without trailing zeros.  17 digits tell every double
# apart, so rounding x to them never reaches an integer it is not: the
# integer part is floor(x), and no fraction digit is left exactly where x
# is an integer.  "00" D shares its five words with the byte after the
# value, its separator or NUL: "00dd", three words of four digits, and
# "ddd" with that byte.

_SPLIT = 134217729.0                             # 2^27 + 1, Veltkamp's splitter
_E16, _E17 = 10**16, 10**17


def _split(a):
    """(hi, lo), a = hi + lo, each of at most 26 significant bits."""
    c = a * _SPLIT
    hi = c - (c - a)
    return hi, a - hi


# 10^(16 - E) for E = -5..16, and its halves
_P10 = np.array([float(10**(21 - e)) for e in range(22)])
_P10_HI, _P10_LO = _split(_P10)


def _scaled(x, E):
    """round(x 10^(16 - E)) half to even, as int64, for E in [-5, 16]:
    exact where x 10^(16 - E) >= 2^53, and below 10^16 elsewhere."""
    e = E + 5
    y, yh, yl = np.take(_P10, e), np.take(_P10_HI, e), np.take(_P10_LO, e)
    hi = x * y
    xh, xl = _split(x)
    lo = xl * yl - (((hi - xh * yh) - xl * yh) - xh * yl)
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _decimal(x):
    """(D, E, fast, xs) for a float64 array: where `fast`, `'%.17g' % x`
    is fixed-point with exponent E in [-4, 16] and 17 significant digits
    D, and xs is x; elsewhere D is 10^16, E is 0 and xs is 1."""
    # 17 digits tell every double apart, so no x below the double 1e-4
    # rounds up to the exponent -4, and none below 1e17 to 17
    fast = (x >= 1e-4) & (x < 1e17)
    xs = x if fast.all() else np.where(fast, x, 1.0)
    # x >= 1e-4 keeps floor(log10 x) >= -5
    E = np.minimum(np.floor(np.log10(xs)).astype(np.int64), 16)
    D = _scaled(xs, E)
    # log10 one off next to a power of ten, or a carry into the next decade
    redo = np.flatnonzero((D - _E16).view(np.uint64) >= _E17 - _E16)
    if redo.size:
        E[redo] += np.where(D[redo] >= _E17, 1, -1)
        e = E[redo].clip(-5, 16)
        D[redo] = _scaled(xs[redo], e)
        ok = (e == E[redo]) & (D[redo] >= _E16) & (D[redo] < _E17)
        if not ok.all():
            fast[redo] = ok
            return np.where(fast, D, _E16), np.where(fast, E, 0), fast, np.where(fast, xs, 1.0)
    return D, E, fast, xs


def _digit_words():
    """The ASCII of 0..9999 as one word each, in memory order, three times:
    leading zeros NUL, as they are, and trailing zeros NUL (0 all NUL in
    the first and the last)."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1).T.copy()   # most significant first
    nonzero = digits != 0
    lead = np.logical_or.accumulate(nonzero, axis=1)
    trail = np.logical_or.accumulate(nonzero[:, ::-1], axis=1)[:, ::-1]
    text = digits + np.uint8(48)
    return np.concatenate([text * lead, text, text * trail]).view(np.uint32).ravel()


def _point_words():
    """The words "ddd." of 0..999 four times: leading zeros NUL (but the
    units digit), as they are, and the same two with the point NUL; then
    "0.0"."""
    digits = np.indices((10,) * 3, np.uint8).reshape(3, -1).T.copy()
    lead = np.logical_or.accumulate(digits != 0, axis=1)
    lead[:, 2] = True
    text = digits + np.uint8(48)
    point = np.full((1000, 1), ord("."), np.uint8)
    return np.concatenate([np.hstack([text * lead, point]), np.hstack([text, point]),
                           np.hstack([text * lead, 0 * point]), np.hstack([text, 0 * point]),
                           np.frombuffer(b"\x000.0", np.uint8)[None]]).view(np.uint32).ravel()


_DIGITS, _POINT = _digit_words(), _point_words()
# the last digit word: three digits, trailing zeros NUL, and a NUL byte
_LAST = _DIGITS[2 * 10**4::10]
# _FRACTION[w, E + 4]: the bytes of digit word w that hold the fraction at E,
# or the byte after it, 0xff each
_FRACTION = ((np.arange(20).reshape(5, 1, 4) >= 3 + np.arange(-4, 17).reshape(1, 21, 1))
             * np.uint8(255)).view(np.uint32)[..., 0]


class _FloatParts:
    """The `%.17g` text of a float64 array and a one-byte `separator`, as
    words: `int_words` for the integer part and its point, right-aligned,
    then the five digit words of "00" D and the separator from `first` on;
    the rows in `slow` get the texts `'%.17g'` writes, and the separator,
    from the field's first byte."""

    def __init__(self, x, separator: str):
        D, self.E, fast, xs = _decimal(x)
        whole = np.floor(xs)
        self.whole = whole.astype(np.int64)
        self.pointless = whole == xs             # no fraction digit is left
        self.separator = np.frombuffer(separator.encode("ascii").rjust(4, b"\0"), np.uint32)
        self.slow = np.flatnonzero(~fast)
        self.texts = ["%.17g" % v + separator for v in x[self.slow].tolist()]
        lo, hi = int(self.E.min()), int(self.E.max())
        # the words of the longest text of `%`; the integer part widens for it
        need = -(-max(map(len, self.texts), default=0) // 4)
        self.int_words = max((max(hi, 0) + 5) // 4, need - 5)
        # digit words before `first` hold no fraction byte of any value, and
        # those past `masked` hold no integer digit
        self.first = min(max(3 + lo, 0) // 4, 5 + self.int_words - need)
        self.masked = (2 + hi) // 4
        self.words = self.int_words + 5 - self.first
        # the groups of the digit words
        top = D // 10**7
        low = D - top * 10**7
        lead = top // 10**8
        mid = top - lead * 10**8
        g1, g3 = mid // 10**4, low // 1000
        self.groups = [lead, g1, mid - g1 * 10**4, g3, low - g3 * 1000]

    def put(self, words, at: int):
        """Write the text into the word columns of `words` from `at`; once,
        as it reuses the parts' arrays."""
        col = at + self.int_words - 1
        rest = idx = self.whole
        if self.int_words > 1:
            rest, idx = np.divmod(rest, 1000)
            idx += 1000 * (rest > 0)
        np.add(idx, 2000, out=idx, where=self.pointless)
        np.copyto(idx, 4000, where=self.E == -4)
        words[:, col] = np.take(_POINT, idx)
        for c in range(col - 1, at - 1, -1):
            rest, g = np.divmod(rest, 10**4)
            words[:, c] = np.take(_DIGITS, g + 10**4 * (rest > 0))
        base = col + 1 - self.first               # the column of digit word 0
        last = self.groups[4]
        words[:, base + 4] = np.take(_LAST | self.separator, last)
        # trailing zeros NUL: a word's where every digit after it is 0
        zero = last == 0
        for w in range(3, self.first - 1, -1):
            g = self.groups[w]
            if zero.any():
                g, zero = g + 10**4 * zero, zero & (g == 0)
            words[:, base + w] = np.take(_DIGITS[10**4:], g)
        for w in range(self.first, self.masked + 1):
            words[:, base + w] &= np.take(_FRACTION[w], self.E + 4)
        if self.slow.size:
            lens = np.array([len(t) for t in self.texts])
            within = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
            value = words.view(np.uint8)[:, 4 * at:4 * (at + self.words)]
            value[self.slow] = 0
            value[np.repeat(self.slow, lens), within] = np.frombuffer("".join(self.texts).encode(),
                                                                      np.uint8)


def _text_rows(fields: list, buf: bytearray) -> bytes:
    """CSV lines, one per row, each the concatenation of `fields`: (a
    float64 array, a one-byte separator) for its `%.17g` text and the
    separator, or (a word table such as `_word_table`'s, and an int array
    of its rows, one per line, or one row of them per line, whose texts
    follow each other).  Each field takes whole 4-byte words of the word
    buffer `buf`, resized to the lines and padded with NUL, and the lines
    are its bytes with every NUL dropped (no field holds one).  A writer
    passes one buffer to each of its calls."""
    # formatted before the word buffer exists, and dropped once placed, so
    # that their scratch arrays and it are not held at once
    floats = {pos: _FloatParts(*f) for pos, f in enumerate(fields) if isinstance(f[1], str)}
    k = len(fields[0][0] if 0 in floats else fields[0][1])
    starts = [0]
    for pos, f in enumerate(fields):
        starts.append(starts[-1] + (floats[pos].words if pos in floats else
                                    f[0].shape[1] * math.prod(f[1].shape[1:])))
    size = 4 * k * starts[-1]
    if len(buf) > size:
        del buf[size:]
    else:
        buf.extend(bytes(size - len(buf)))
    words = np.frombuffer(buf, np.uint32).reshape(k, starts[-1])
    for pos, (f, at, end) in enumerate(zip(fields, starts, starts[1:])):
        if pos in floats:
            floats.pop(pos).put(words, at)
        else:
            # each row of the table as one item, which numpy copies whole
            text, idx = f
            row = f"V{4 * text.shape[1]}"
            words.view(np.uint8)[:, 4 * at:4 * end].view(row)[:] = \
                np.take(np.ascontiguousarray(text).view(row)[:, 0], idx).reshape(k, -1)
    del words                                    # a bytearray with views cannot resize
    return bytes(buf.translate(None, b"\0"))


# lines per block of pairs.csv
_LINES = 1 << 12


def _stats_csv(rows: list) -> bytes:
    """stats.csv of `ScaleRow`s, one line per scale."""
    return _csv(["lambda", "order", "mesh", "lebesgue", "bound_mesh", "bound_lebesgue", "pass"],
                [(r.lam, r.order, r.mesh, r.lebesgue, r.bound_mesh, r.bound_lebesgue,
                  int(r.passed)) for r in rows])


def _pairs_csv(D: np.ndarray, family_a: str):
    """The upper triangle of D as pairs.csv rows ``i,j,family_a,D[i,j]``,
    yielded in blocks of at most `_LINES` lines.  The bytes equal `_csv`
    over the same rows (no field here needs quoting)."""
    yield b"i,j,metric_family,A_or_blank,value\n"
    rows = _word_table([f"{i}," for i in range(len(D))])
    cols = _word_table([f"{i},{family_a}," for i in range(len(D))])
    buf = bytearray()
    for i, j in pair_blocks(len(D), _LINES):
        if len(i):                               # the one block when n < 2 is empty
            values = np.take(D, i * len(D) + j).astype(np.float64, copy=False)
            yield _text_rows([(rows, i), (cols, j), (values, "\n")], buf)


def _envelope_csv(entries: list) -> bytes:
    """envelope.csv rows ``t,rho,i:j:k`` for envelope entries
    (t, rho, (i, j, k)); the bytes equal `_csv` over the rows
    (t, rho, "i:j:k")."""
    header = b"t,rho,triple_ids\n"
    if not entries:
        return header
    t, rho, ijk = zip(*entries)
    ijk = np.array(ijk, np.int64)
    n = int(ijk.max()) + 1
    colon = _word_table([f"{i}:" for i in range(n)])
    end = _word_table([f"{i}\n" for i in range(n)])
    return header + _text_rows([(np.array(t, np.float64), ","), (np.array(rho, np.float64), ","),
                                (colon, ijk[:, :2]), (end, ijk[:, 2])], bytearray())


def _json(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _word_table(texts: list) -> np.ndarray:
    """ASCII `texts` as the rows of a uint32 word table, left-aligned and
    NUL-padded, and an empty row last."""
    data = [t.encode("ascii") for t in texts] + [b""]
    width = max(1, -(-max(map(len, data)) // 4))
    return np.array(data, dtype=f"S{4 * width}").view(np.uint32).reshape(len(data), width)


# a set of cover.json as `json.dumps(indent=2)` writes it: the head before
# its descriptor; then the text before a member that is not its set's
# first, before the first, or in a set without members; then, after a
# member, the text within a set, or closing the set with and without a set
# after it, or the same for a set without members
_SET_HEAD = '    {\n      "color": %s,\n      "descriptor": "'
_SET_MID = _word_table(["\n        ", '",\n      "members": [\n        ', '",\n      "members": ['])
_SET_TAIL = _word_table([",", "\n      ]\n    },\n", "\n      ]\n    }\n", "]\n    },\n",
                         "]\n    }\n"])


def _cover_json(ground_text: list, cover):
    """`_json` of {"ground": `ground_text`, "sets": each set's members,
    color and descriptor}, yielded in blocks of at most `_LINES` lines.
    The sets are one `_text_rows` pass with a line per member, and one for
    each set without members; each set's head, color and descriptor are
    gathered from word tables at its first line, and its closing text at
    its last.  Strings are escaped by the encoder `json.dumps` uses by
    default."""
    ground = ",\n    ".join(map(encode_basestring_ascii, ground_text))
    head = '{\n  "ground": %s,\n  "sets": ' % (f"[\n    {ground}\n  ]" if ground_text else "[]")
    sets = len(cover.colors)
    if not sets:
        yield (head + "[]\n}\n").encode()
        return
    yield (head + "[\n").encode()
    colors = {c: i for i, c in enumerate(dict.fromkeys(cover.colors))}
    color = np.fromiter(map(colors.__getitem__, cover.colors), dtype=np.int64, count=sets)
    heads = _word_table([_SET_HEAD % json.dumps(c) for c in colors])
    parts = [(_word_table([encode_basestring_ascii(t)[1:-1] for t in texts]), codes)
             for texts, codes in cover.descriptor]
    members = _word_table(list(map(str, range(cover.n))))   # a line without a member reads ""
    counts = np.bincount(cover.set_of, minlength=sets)
    size = np.maximum(counts, 1)
    start = np.cumsum(size) - size
    line_set = np.repeat(np.arange(sets), size)
    # one line per member, and one without for each set without members
    member = np.full(len(line_set), -1)
    member[np.arange(len(cover.set_of)) + (start - cover.bounds[:-1])[cover.set_of]] = \
        cover.point_of
    buf = bytearray()
    for a in range(0, len(line_set), _LINES):
        s, m = line_set[a:a + _LINES], member[a:a + _LINES]
        line = np.arange(a, a + len(s))
        first, last, empty = line == start[s], line == start[s] + size[s] - 1, m < 0
        fields = [(heads, np.where(first, color[s], -1))]
        for table, codes in parts:
            picked = codes[s]
            picked[~first] = -1
            fields.append((table, picked))
        fields += [(_SET_MID, np.where(first, 1 + empty, 0)), (members, m),
                   (_SET_TAIL, np.where(last, 1 + 2 * empty + (s == sets - 1), 0))]
        yield _text_rows(fields, buf)
    yield b"  ]\n}\n"


def _interior_text(boundary_sample: list, interior) -> list:
    """The text "word@offset" of each point of the `RayPoints` interior, at
    radius r = num/den on the root's ray toward boundary_sample[i]: the
    ray's vertex word at depth ceil(r), and r mod 1, the offset along its
    edge, reduced as `str` of a Fraction writes it.  Each ray's word is
    joined once, to the depth of its deepest point, and each point's word
    is a slice of it; each distinct offset is written once."""
    den = interior.den
    rays, num = interior.ray.tolist(), interior.num.tolist()
    depth = [-(-a // den) for a in num]
    deepest = {}
    for i, d in zip(rays, depth):
        deepest[i] = max(d, deepest.get(i, 0))
    words, ends = {}, {}
    for i, d in deepest.items():
        letters = list(map(str, boundary_sample[i].prefix(d)))
        words[i] = ".".join(letters)
        # where the text of each prefix, of 0..d letters, ends
        ends[i] = [0] + [e - 1 for e in itertools.accumulate(len(a) + 1 for a in letters)]
    offsets = {}
    for a in set(num):
        part = a % den
        g = math.gcd(part, den)
        offsets[a] = f"@{part // g}/{den // g}" if part else "@0"
    return [words[i][:ends[i][d]] + offsets[a] for i, d, a in zip(rays, depth, num)]


# ---------------------------------------------------------------------------
# experiments: each returns (verdicts: dict[str, bool-or-value], files: dict)


def run_metric(cfg: RunConfig):
    space = parse_space(cfg.space)
    spec = _spec(cfg)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    D = pair_distance_matrix(space, spec, sample)
    family_a = f"{spec.family},{_fmt(float(cfg.A)) if spec.family == DA else ''}"
    files = {"pairs.csv": _pairs_csv(D, family_a)}
    # quick symmetry/identity sanity over the matrix itself, a block of rows
    # against the same block of columns at a time
    step = max(1, _PAIR_CHUNK // max(len(D), 1))
    sym = all(np.array_equal(D[lo:lo + step], D[:, lo:lo + step].T)
              for lo in range(0, len(D), step))
    verdicts = {"matrix_symmetric": sym, "diagonal_zero": bool(np.all(np.diag(D) == 0.0))}
    return verdicts, files


def run_compare(cfg: RunConfig):
    space = parse_space(cfg.space)
    s1, s2 = _spec(cfg, 1), _spec(cfg, 2)
    # one pool and its two tables serve the envelope and the control, each
    # of which draws its triples from its own substream
    pool = ratio_pool(space, s1, s2, cfg.n_triples, cfg.seed)
    env = qs_envelope(pool, cfg.n_triples, cfg.seed)
    # the control of a change of A, A'/A either way round (`eta_change_A`)
    slope = 1.0
    if s1.family == s2.family == DA:
        slope = max(float(s2.A) / float(s1.A), float(s1.A) / float(s2.A))
    eta = linear_control(Fraction(slope) if slope == int(slope) else slope)
    report = verify_control(pool, eta, cfg.n_triples, cfg.seed)
    fit = power_law_fit(env)
    files = {
        "envelope.csv": _envelope_csv(env.entries),
        "report.json": _json({**report.to_dict(),
                              "eta_slope": float(slope),
                              "power_law_c": fit.c, "power_law_delta": fit.delta,
                              "power_law_residual": fit.max_residual}),
    }
    verdicts = {"zero_violations": report.violations == 0,
                "violations": report.violations,
                "worst_margin": report.worst_margin}
    return verdicts, files


def run_cover_pushout(cfg: RunConfig):
    space = parse_space(cfg.space)
    R, A = cfg.R, cfg.A
    system = LatticeBallSystem(space, R)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    metric = sample_metric(space, MetricSpec(DA, A=A), sample)
    order_v = orbit_ball_order(space, system.R)
    rows = []
    for lam in cfg.scales:
        cover = boundary_pushout_cover(space, system, lam, A, sample)
        rows.append(ScaleRow.judge(lam, cover_stats(cover, metric), (4.0 * R / A) * float(lam),
                                   float(lam), order_v))
    files = {
        "stats.csv": _stats_csv(rows),
        # the last scale's cover
        "cover.json": _cover_json([boundary_to_line(space, xi) for xi in sample], cover),
    }
    verdicts = {"all_scales_pass": all(r.passed for r in rows), "interior_order": order_v}
    return verdicts, files


def run_cover_pushin(cfg: RunConfig):
    space = parse_space(cfg.space)
    R = int(cfg.R)
    schedule = ScaleSchedule(R=R, K=cfg.K, c=cfg.c)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    covers = {k: colored_boundary_cover(space, schedule.lam(k), sample)
              for k in range(1, cfg.K + 1)}
    interior = sample_ray_points(sample, Fraction(cfg.window), cfg.n_triples // 10 or 1, cfg.seed)
    cover, claims = annular_pushin_cover(space, schedule, covers, sample, interior)
    # a boundary cover in n + 1 colors pushes in to order <= 2n + 2; with
    # K = 0 the base ball alone covers, at order 1
    colors = len({color for c in covers.values() for color in c.colors}) or 1
    files = {
        "cover.json": _cover_json(_interior_text(sample, interior), cover),
        "claims.json": _json(claims),
    }
    verdicts = {
        "color_disjoint": claims["color_disjoint"],
        "per_point_decay": claims["per_point_decay"],
        "mesh_ok": claims["mesh_ok"],
        "covers_ground": claims["covers_ground"],
        "order": claims["order"],
        "order_le_2n_plus_2": claims["order"] <= 2 * colors,
    }
    return verdicts, files


def run_ell_dim(cfg: RunConfig):
    space = parse_space(cfg.space)
    spec = _spec(cfg)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    c = max(cfg.c, 4.0)
    rows, estimate = ell_dim_estimate(sample_metric(space, spec, sample), cfg.scales, c, cfg.seed)
    files = {"stats.csv": _stats_csv(rows)}
    verdicts = {"estimate": estimate, "c_judged": c,
                "all_scales_pass": all(r.passed for r in rows)}
    return verdicts, files


def run_visual_fit(cfg: RunConfig):
    space = parse_space(cfg.space)
    spec = _spec(cfg)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    pairs = distinct_rows(len(sample), cfg.n, 2, substream(cfg.seed, "visual-pairs"))
    fit = visual_fit(space, spec, cfg.a, sample, pairs)
    files = {"visual_fit.json": _json({
        "a": fit.a, "k1": fit.k1, "k2": fit.k2, "verdict": fit.verdict,
        "space": space_id(space), "metric": spec.family})}
    verdicts = {"verdict": fit.verdict, "k1": fit.k1, "k2": fit.k2,
                "pinched": fit.k1 <= fit.k2}
    return verdicts, files


def run_demo_t4(cfg: RunConfig):
    space = tree_space(4)
    sample = sample_boundary(space, max(cfg.n, 50), cfg.seed)
    pairs = distinct_rows(len(sample), 1000, 2, substream(cfg.seed, "demo-pairs"))
    fit = visual_fit(space, MetricSpec(DBAR), math.e, sample, pairs)
    nv = nonvisual_witness_dA(space, 1, range(1, 31))
    nq = nonqs_witness(space, range(1, 26))
    radii = [Fraction(int(r), 64) for r in
             substream(cfg.seed, "demo-radii").integers(1, 127, size=20)]
    centers = sample_boundary(space, 50, cfg.seed + 1)
    perf = uniformly_perfect_check(space, centers, radii)
    nv_rows = [(r.n, r.branch, float(r.dA), float(r.product), r.growth) for r in nv]
    nq_rows = [(r.n, float(r.t), r.rho, r.required_c) for r in nq]
    center_lines = {c: boundary_to_line(space, c) for c in centers}
    # each distinct radius and distance formatted once from its integer
    # ratio: int/int division rounds as `float` of a `Fraction` does
    text = {x: _fmt(x[0] / x[1]) for x in
            {r.as_integer_ratio() for _, r, _, _ in perf.witnesses}
            | {d for _, _, _, d in perf.witnesses}}
    perf_rows = [(center_lines[c], text[r.as_integer_ratio()], boundary_to_line(space, w), text[d])
                 for c, r, w, d in perf.witnesses]
    files = {
        "nonvisual_dA.csv": _csv(["n", "branch", "dA", "product", "growth"], nv_rows),
        "nonqs.csv": _csv(["n", "t", "rho", "required_c"], nq_rows),
        "perfectness_witnesses.csv": _csv(["center", "radius", "witness", "dist"], perf_rows),
        "visual_fit.json": _json({"a": fit.a, "k1": fit.k1, "k2": fit.k2,
                                  "verdict": fit.verdict}),
    }
    verdicts = {
        "dbar_visual_k1_is_2": fit.k1 == 2.0,
        "dbar_visual_k2_is_2": fit.k2 == 2.0,
        "nonvisual_growth_monotone": all(a.growth < b.growth for a, b in zip(nv, nv[1:])),
        "nonvisual_final_large": nv[-1].growth >= 1e10,
        "nonqs_required_c_large": nq[-1].required_c > 1e6,
        "perfectness_zero_failures": perf.ok,
    }
    return verdicts, files


RUNNERS = {
    "metric": run_metric,
    "compare": run_compare,
    "cover-pushout": run_cover_pushout,
    "cover-pushin": run_cover_pushin,
    "ell-dim": run_ell_dim,
    "visual-fit": run_visual_fit,
    "demo-t4": run_demo_t4,
}


def _atomic_write(path: str, content):
    """Write bytes, or an iterable of bytes blocks in order, to path."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.writelines([content] if isinstance(content, bytes) else content)
    os.replace(tmp, path)


def _execute(cfg: RunConfig):
    """Run one experiment and write its files; returns (exit code, verdicts)."""
    cfg.validate()
    verdicts, files = RUNNERS[cfg.experiment](cfg)
    os.makedirs(cfg.out, exist_ok=True)
    # the output directory is not part of what was computed
    cfg_json = _json({k: v for k, v in cfg.to_dict().items() if k != "out"})
    manifest = _json({
        "config": cfg.to_dict(),
        "config_sha256": hashlib.sha256(cfg_json).hexdigest(),
        "versions": {"python": sys.version.split()[0],
                     "numpy": np.__version__,
                     "visbound": __version__},
        "verdicts": verdicts,
    })
    for name, content in files.items():
        _atomic_write(os.path.join(cfg.out, name), content)
    _atomic_write(os.path.join(cfg.out, "manifest.json"), manifest)
    failed = any(v is False for v in verdicts.values())
    return (2 if failed else 0), verdicts


def run(cfg: RunConfig) -> int:
    return _execute(cfg)[0]


def _failing_verdicts(verdicts: dict) -> list:
    """One line per failed verdict, with the worst margin where the
    verdicts carry one."""
    margin = (f" (worst_margin {_fmt(verdicts['worst_margin'])})"
              if "worst_margin" in verdicts else "")
    return [f"verdict failed: {name}{margin}"
            for name, v in verdicts.items() if v is False]


# flag parser per RunConfig field annotation; scales are comma-separated
_FLAG_TYPES = {"str": str, "int": int, "float": float,
               "list": lambda s: [float(x) for x in s.split(",")]}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="visbound",
                                description="boundary-metric experiments on model CAT(0) spaces")
    sub = p.add_subparsers(dest="experiment", required=True)
    for name in RUNNERS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", help="JSON config file; flags override its values")
        for f in fields(RunConfig):
            if f.name != "experiment":
                sp.add_argument("--" + f.name.replace("_", "-"), dest=f.name,
                                type=_FLAG_TYPES[f.type],
                                choices=[DA, DBAR] if f.name.startswith("metric") else None)
    return p


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as e:
        # a usage error is a rejected config (exit 1), not argparse's 2;
        # --help exits 0
        return 1 if e.code else 0
    d = {}
    if args.config:
        try:
            with open(args.config) as fh:
                d = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            print(f"error: cannot read config: {e}", file=sys.stderr)
            return 1
    d["experiment"] = args.experiment
    for key in RunConfig().to_dict():
        v = getattr(args, key, None)
        if v is not None and key != "experiment":
            d[key] = v
    try:
        code, verdicts = _execute(RunConfig.from_dict(d))
    except (ConfigError, TypeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for line in _failing_verdicts(verdicts):
        print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
