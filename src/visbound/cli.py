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
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, field, fields
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .covers import (
    LatticeBallSystem,
    ScaleRow,
    ScaleSchedule,
    annular_pushin_cover,
    boundary_pushout_cover,
    colored_boundary_cover,
    cover_stats,
    ell_dim_estimate,
    orbit_ball_order,
    sample_ray_points,
)
from .metrics import DA, DBAR, MetricSpec, block_lines, pair_distance_matrix
from .quasisym import (
    linear_control,
    power_law_fit,
    qs_envelope,
    ratio_pool,
    uniformly_perfect_check,
    verify_control,
)
from .spaces import (
    Space,
    boundary_to_line,
    distinct_rows,
    euclidean_space,
    hyperbolic_plane,
    sample_boundary,
    space_id,
    substream,
    tree_space,
)
from .visual import nonqs_witness, nonvisual_witness_dA, visual_fit

EXPERIMENTS = ("metric", "compare", "cover-pushout", "cover-pushin",
               "ell-dim", "visual-fit", "demo-t4")


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
    eta_slope: float = 0.0       # 0 means auto (A2/A for dA pairs, else 1)
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
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.metric not in (DA, DBAR):
            raise ConfigError(f"metric must be dA or dbar, got {self.metric!r}")
        if self.metric2 and self.metric2 not in (DA, DBAR):
            raise ConfigError(f"metric2 must be dA or dbar, got {self.metric2!r}")
        if self.A <= 0:
            raise ConfigError("A must be positive")
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
        if self.eta_slope < 0:
            raise ConfigError("eta_slope must be positive, or 0 for auto")
        if self.R <= 0 or self.K < 0 or self.c < 1:
            raise ConfigError("need R > 0, K >= 0, c >= 1")
        if self.window < 0.125:
            raise ConfigError(f"window must be at least 1/8, the dyadic radius step, "
                              f"got {self.window!r}")


def parse_space(name: str) -> Space:
    if name.startswith("euclidean"):
        return euclidean_space(int(name[len("euclidean"):]))
    if name.startswith("tree"):
        return tree_space(int(name[len("tree"):]))
    if name == "hyperbolic_plane":
        return hyperbolic_plane()
    raise ConfigError(f"unknown space {name!r} (euclideanN, treeK, hyperbolic_plane)")


def _spec(cfg: RunConfig, which: int = 1) -> MetricSpec:
    fam = cfg.metric if which == 1 else (cfg.metric2 or cfg.metric)
    A = cfg.A if which == 1 else cfg.A2
    if fam == DA:
        return MetricSpec(DA, A=A)
    return MetricSpec(DBAR)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _csv(header: list, rows: list) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([_fmt(v) for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# CSV lines as word arrays: `%.17g` of float64 arrays in numpy integers
#
# A positive x = m 2^q whose `%.17g` text is fixed-point has a decimal
# exponent E in [-4, 16] and 17 significant digits D = m 5^p 2^(q+p),
# p = 16 - E, rounded half to even: the product m 5^p (m < 2^53, 5^p <= 5^21
# < 2^49) is held in two uint64 limbs and shifted right by s = -(q + p) with
# its half and sticky bits, so it is rounded once.  E starts as
# floor(log10 x); where D falls outside [10^16, 10^17), D is recomputed at
# the corrected E.  Every other value (0, -0, negatives, subnormals, inf,
# nan, exponent notation, a shift s <= 0) is formatted by `'%.17g' % x`.

_M32 = np.uint64(0xFFFFFFFF)
_E16, _E17 = np.uint64(10**16), np.uint64(10**17)
_POW5 = np.uint64(5) ** np.arange(22, dtype=np.uint64)


def _digit_tables():
    """The ASCII of 0..9999 as one word each, in memory order, and their
    trailing zeros (4 for 0)."""
    digits = np.indices((10,) * 4, np.uint8).reshape(4, -1)   # most significant first
    return ((digits.T + 48).astype(np.uint8, order="C").view(np.uint32).ravel(),
            np.logical_and.accumulate(digits[::-1] == 0).sum(axis=0, dtype=np.uint8))


_WORD, _TZ4 = _digit_tables()

# A value's text is cut from 11 words: "0." (bytes 2-3), the digit words
# "000d dddd dddd dddd dddd" (words 1-5), "." (byte 27) and the last 16
# digits again (words 7-10).  Which bytes are kept depends only on E and
# the number tz of trailing zeros of D: one row of _KEEP per (E, tz), 0xff
# on the bytes kept; the others become NUL, which is dropped.
_VALUE_WORDS = 11
_VALUE_TEXT = np.zeros(4 * _VALUE_WORDS, np.uint8)
_VALUE_TEXT[[2, 3, 27]] = np.frombuffer(b"0..", np.uint8)


def _value_keep() -> np.ndarray:
    E = np.arange(-4, 17, dtype=np.int8)[:, None, None]
    end = 20 - np.arange(17, dtype=np.int8)[None, :, None]   # past the last digit kept
    c = np.arange(4 * _VALUE_WORDS, dtype=np.int8)
    d1, d2 = c - 4, c - 24                       # digit-word bytes of each copy
    neg = E < 0
    lead = neg & (c >= 2) & (c < 4)
    # E < 0: "0." and -E - 1 of the pad zeros; E >= 0: the E + 1 integer digits
    first = (d1 >= 0) & (d1 < 20) & np.where(neg, (d1 >= 4 + E) & (d1 < end),
                                              (d1 >= 3) & (d1 < 4 + E))
    dot = ~neg & (c == 27) & (4 + E < end)
    second = ~neg & (c >= 28) & (d2 >= 4 + E) & (d2 < end)
    keep = (lead | first | dot | second).reshape(21 * 17, -1)
    return (keep * np.uint8(255)).view(np.uint32)


_KEEP = _value_keep()


def _round_scaled(m, q, E):
    """round(m 2^q 10^(16 - E)) to even, as uint64, for p = 16 - E in
    [0, 21], and where the shift that gives it was in (0, 64)."""
    p = 16 - E
    f = _POW5[p]
    ml, mh, fl, fh = m & _M32, m >> 32, f & _M32, f >> 32
    mid = mh * fl + ml * fh                      # < 2^54
    lo = ml * fl
    low = lo + (mid << 32)                       # wraps mod 2^64
    high = mh * fh + (mid >> 32) + (low < lo)
    s = -(q + p)
    ok = (s > 0) & (s < 64)
    s = np.where(ok, s, 1).astype(np.uint64)
    D = (high << (64 - s)) | (low >> s)
    half = (low >> (s - 1)) & 1
    sticky = (low & ((np.uint64(1) << (s - 1)) - 1)) != 0
    return D + (half & (sticky | (D & 1))), ok


def _decimal(x):
    """(D, E, fast) for a float64 array: where `fast`, `'%.17g' % x` is
    fixed-point with exponent E in [-4, 16] and 17 significant digits D;
    elsewhere D is 10^16."""
    fast = (x >= 1e-5) & (x < 1e17)
    xs = np.where(fast, x, 1.0)
    bits = xs.view(np.uint64)
    m = (bits & np.uint64(2**52 - 1)) | np.uint64(2**52)
    q = (bits >> 52).astype(np.int64) - 1075
    # x >= 1e-5 keeps floor(log10 x) >= -5
    E = np.minimum(np.floor(np.log10(xs)).astype(np.int64), 16)
    D, ok = _round_scaled(m, q, E)
    fast &= ok
    # log10 one off next to a power of ten, or a carry into the next decade
    redo = np.flatnonzero(fast & ((D < _E16) | (D >= _E17)))
    if redo.size:
        E[redo] += np.where(D[redo] >= _E17, 1, -1)
        e = E[redo].clip(-5, 16)
        D[redo], ok = _round_scaled(m[redo], q[redo], e)
        fast[redo] = ok & (e == E[redo]) & (D[redo] >= _E16) & (D[redo] < _E17)
    fast &= E >= -4
    return np.where(fast, D, _E16), E, fast


def _float_parts(x):
    """The `%.17g` text of float64 array x as (its digit words, (k, 5),
    each value's row of _KEEP, the rows formatted by `%`, their text)."""
    D, E, fast = _decimal(x)
    hi = D // np.uint64(10**8)
    lo = (D - hi * np.uint64(10**8)).astype(np.uint32)
    hi = hi.astype(np.uint32)
    groups = np.empty((len(D), 5), np.uint32)
    groups[:, 0], rest = np.divmod(hi, 10**8)
    groups[:, 1], groups[:, 2] = np.divmod(rest, 10**4)
    groups[:, 3], groups[:, 4] = np.divmod(lo, 10**4)
    tz = _TZ4[groups[:, 4]]
    for g in range(3, 0, -1):
        zero = np.flatnonzero(tz == 16 - 4 * g)  # groups g + 1.. all zero
        tz[zero] += _TZ4[groups[zero, g]]
    slow = np.flatnonzero(~fast)
    return (_WORD[groups], np.where(fast, (E + 4) * 17 + tz, 0), slow,
            ["%.17g" % v for v in x[slow].tolist()])


def _put_floats(parts, buf, at: int):
    """Write `_float_parts` into the 11 word columns of buf from `at`,
    which hold `_VALUE_TEXT`, and NUL the bytes not kept."""
    words, code, slow, texts = parts
    buf[:, at + 1:at + 6] = words
    buf[:, at + 7:at + 11] = words[:, 1:]
    buf[:, at:at + _VALUE_WORDS] &= np.take(_KEEP, code, axis=0)
    if slow.size:
        lens = np.array([len(t) for t in texts])
        within = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
        value = buf.view(np.uint8)[:, 4 * at:4 * (at + _VALUE_WORDS)]
        value[slow] = 0
        value[np.repeat(slow, lens), 2 + within] = np.frombuffer("".join(texts).encode(), np.uint8)


def _int_table(n: int) -> np.ndarray:
    """The text of 0..n-1, right-aligned and NUL-padded, in an (n, words)
    uint32 table."""
    width = len(str(max(n - 1, 0)))
    powers = 10 ** np.arange(-width % 4 + width - 1, -1, -1)
    v = np.arange(n)[:, None]
    shown = (v >= powers) | (powers == 1)
    return ((v // powers % 10 + 48) * shown).astype(np.uint8).view(np.uint32)


def _text_rows(fields: list) -> str:
    """CSV lines, one per row, each the concatenation of `fields`: a str
    (the same text on every line), a float64 array (its `%.17g` text) or
    (`_int_table` of n, int array of indices in [0, n)).  Each field takes
    whole 4-byte words of a word array, padded with NUL, and the lines are
    the array's bytes with every NUL dropped (no field holds one)."""
    # formatted before the word array exists, and dropped once placed, so
    # that their scratch arrays and it are not held at once
    floats = {pos: _float_parts(f) for pos, f in enumerate(fields)
              if isinstance(f, np.ndarray)}
    k = next(len(f if isinstance(f, np.ndarray) else f[1])
             for f in fields if not isinstance(f, str))
    row, starts = [], []
    for pos, f in enumerate(fields):
        starts.append(len(row))
        if isinstance(f, str):
            row += np.frombuffer(f.encode("ascii") + bytes(-len(f) % 4), np.uint32).tolist()
        else:
            row += (_VALUE_TEXT.view(np.uint32).tolist() if pos in floats
                    else [0] * f[0].shape[1])
    buf = np.empty((k, len(row)), np.uint32)
    buf[:] = row
    for pos, (f, at) in enumerate(zip(fields, starts)):
        if pos in floats:
            _put_floats(floats.pop(pos), buf, at)
        elif not isinstance(f, str):
            text, idx = f
            buf[:, at:at + text.shape[1]] = np.take(text, idx, axis=0)
    text = buf.tobytes()
    del buf                                      # before the compacted copies
    return text.translate(None, b"\0").decode("ascii")


# lines per block of pairs.csv
_LINES = 1 << 12


def _stats_csv(rows: list) -> str:
    """stats.csv of `ScaleRow`s, one line per scale."""
    return _csv(["lambda", "order", "mesh", "lebesgue", "bound_mesh", "bound_lebesgue", "pass"],
                [(r.lam, r.order, r.mesh, r.lebesgue, r.bound_mesh, r.bound_lebesgue,
                  int(r.passed)) for r in rows])


def _pairs_csv(D: np.ndarray, family_a: str):
    """The upper triangle of D as pairs.csv rows ``i,j,family_a,D[i,j]``,
    yielded in blocks of at most `_LINES` lines.  The bytes equal `_csv`
    over the same rows (no field here needs quoting)."""
    n = len(D)
    yield "i,j,metric_family,A_or_blank,value\n"
    ints = _int_table(n)
    first = np.arange(n) * (2 * n - np.arange(n) - 1) // 2   # row i's first line
    total = n * (n - 1) // 2
    for a in range(0, total, _LINES):
        j = np.arange(a, min(a + _LINES, total))
        i = np.searchsorted(first, j, side="right") - 1
        j += i + 1 - first[i]
        yield _text_rows([(ints, i), ",", (ints, j), f",{family_a},",
                          np.asarray(D[i, j], np.float64), "\n"])


def _envelope_csv(entries: list) -> str:
    """envelope.csv rows ``t,rho,i:j:k`` for envelope entries
    (t, rho, (i, j, k)); the bytes equal `_csv` over the rows
    (t, rho, "i:j:k")."""
    header = "t,rho,triple_ids\n"
    if not entries:
        return header
    t, rho, ijk = zip(*entries)
    ijk = np.array(ijk, np.int64)
    ints = _int_table(int(ijk.max()) + 1)
    return header + _text_rows([np.array(t, np.float64), ",", np.array(rho, np.float64), ",",
                                (ints, ijk[:, 0]), ":", (ints, ijk[:, 1]), ":",
                                (ints, ijk[:, 2]), "\n"])


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


_COVER_SET = '{\n      "color": %s,\n      "descriptor": %s,\n      "members": %s\n    }'


def _json_list(items: list, indent: str) -> str:
    """The text `json.dumps(indent=2)` writes for a list whose items are
    already JSON text, the list's own line indented by `indent`."""
    if not items:
        return "[]"
    return f"[\n{indent}  " + f",\n{indent}  ".join(items) + f"\n{indent}]"


def _cover_json(ground_text: list, cover) -> str:
    """`_json` of {"ground": `ground_text`, "sets": each set's members,
    color and descriptor}, written with one %-template per set.  Strings
    are escaped by the encoder `json.dumps` uses by default, and members
    are ints, whose `str` is their JSON text."""
    ground = [encode_basestring_ascii(g) for g in ground_text]
    members = list(map(str, cover.point_of.tolist()))
    bounds = cover.bounds.tolist()
    sets = [_COVER_SET % ("null" if color is None else json.dumps(color),
                          encode_basestring_ascii(cover.describe(s)),
                          _json_list(members[a:b], "      "))
            for s, (color, a, b) in enumerate(zip(cover.colors, bounds, bounds[1:]))]
    return '{\n  "ground": %s,\n  "sets": %s\n}\n' % (_json_list(ground, "  "),
                                                       _json_list(sets, "  "))


def _interior_text(boundary_sample: list, interior_sample: list) -> list:
    """The text "word@offset" of the point at radius r on the root's ray
    toward boundary_sample[i], for each interior sample (i, r): the ray's
    vertex word at depth ceil(r), and r mod 1, the offset along its edge."""
    return [".".join(map(str, boundary_sample[i].prefix(math.ceil(r)))) + f"@{r % 1}"
            for i, r in interior_sample]


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
    step = block_lines(len(D))
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
    if cfg.eta_slope > 0:
        slope = cfg.eta_slope
    elif s1.family == DA and s2.family == DA:
        slope = max(float(s2.A) / float(s1.A), float(s1.A) / float(s2.A))
    else:
        slope = 1.0
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
    if R <= A:
        raise ConfigError("pushout requires R > A")
    system = LatticeBallSystem(space, R)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    spec = MetricSpec(DA, A=A)
    D = pair_distance_matrix(space, spec, sample)
    order_v = orbit_ball_order(space, system.R)
    rows = []
    for lam in cfg.scales:
        cover = boundary_pushout_cover(space, system, lam, A, sample)
        rows.append(ScaleRow.judge(lam, cover_stats(cover, D), (4.0 * R / A) * float(lam),
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
    if space.kind != "tree":
        raise ConfigError("the annular pushin experiment runs on tree spaces")
    R = int(cfg.R)
    if R != cfg.R:
        raise ConfigError("pushin uses integer R (scale ladder alignment)")
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
    D = pair_distance_matrix(space, spec, sample)
    rows, estimate = ell_dim_estimate(D, cfg.scales, max(cfg.c, 4.0), cfg.seed)
    files = {"stats.csv": _stats_csv(rows)}
    verdicts = {"estimate": estimate,
                "all_scales_pass": all(r.passed for r in rows)}
    return verdicts, files


def run_visual_fit(cfg: RunConfig):
    space = parse_space(cfg.space)
    if space.kind == "euclidean":
        raise ConfigError("visual-fit needs finite Gromov products: use a tree or "
                          "hyperbolic_plane (on R^n they diverge off antipodal pairs)")
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
    nv_rows = [(r.n, r.branch, _fmt(float(r.dA)), _fmt(float(r.product)), r.growth)
               for r in nv]
    nq_rows = [(r.n, _fmt(float(r.t)), r.rho, r.required_c) for r in nq]
    center_lines = {c: boundary_to_line(space, c) for c in centers}
    perf_rows = [(center_lines[c], _fmt(float(r)), boundary_to_line(space, w), _fmt(float(d)))
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
    """Write a str, or an iterable of str blocks in order, to path."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.writelines([content] if isinstance(content, str) else content)
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
        "config_sha256": hashlib.sha256(cfg_json.encode()).hexdigest(),
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
    for name in EXPERIMENTS:
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
