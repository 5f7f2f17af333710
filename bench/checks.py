"""Correctness gate of the benchmark.

Two kinds of check, both independent of the seed:

* every experiment's exit code and its boolean and string verdicts must equal
  those recorded at the seed commit (`expected.json`);
* a seeded sample of rows of every `pairs.csv`, and the fitted `k1`/`k2` of
  every visual fit, must agree with oracles built here by other methods than
  visbound's own: the longest common prefix of the unrolled words on the
  tree, the chord of the directions on the circle, the hyperbolic closed form
  from the chord of the boundary angles for `dA`, and `scipy.integrate.quad`
  for hyperbolic `dbar`.

Float outputs are held to the absolute tolerance `tol` of their config, the
tolerance the metric kernels promise; tree outputs are compared exactly.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from fractions import Fraction

ROWS_PER_TABLE = 400
DATA_SUFFIXES = (".csv", ".json")
MANIFEST = "manifest.json"


def load_expected(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def read_verdicts(out_dir) -> dict:
    with open(os.path.join(out_dir, MANIFEST)) as fh:
        return json.load(fh)["verdicts"]


def stable_verdicts(verdicts: dict) -> dict:
    """The verdicts a seed cannot change: booleans and strings."""
    return {k: v for k, v in verdicts.items() if type(v) in (bool, str)}


def check_exit_and_verdicts(expected: dict, rc, out_dir) -> list:
    """Problems with one experiment's exit code and verdicts ([] when none)."""
    if rc != expected["exit"]:
        return [f"exit code {rc}, expected {expected['exit']}"]
    try:
        got = stable_verdicts(read_verdicts(out_dir))
    except (OSError, ValueError, KeyError) as e:
        return [f"unreadable manifest: {e}"]
    if got != expected["verdicts"]:
        return [f"verdicts {got}, expected {expected['verdicts']}"]
    return []


def data_files(out_dir) -> dict:
    """sha256 of each data file an experiment wrote (the manifest excluded)."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(DATA_SUFFIXES) and name != MANIFEST:
            with open(os.path.join(out_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


# ---------------------------------------------------------------------------
# oracles


def _unrolled(bp, length):
    word = list(bp.preperiod)
    while len(word) < length:
        word.extend(bp.period)
    return word[:length]


def tree_branch_lcp(x, y) -> int:
    """Branch time at the root as the longest common prefix of the two words,
    unrolled far enough that distinct words must differ."""
    length = (max(len(x.preperiod), len(y.preperiod))
              + math.lcm(len(x.period), len(y.period)))
    for i, (a, b) in enumerate(zip(_unrolled(x, length), _unrolled(y, length))):
        if a != b:
            return i
    raise ValueError("identical boundary words in a sample of distinct points")


def _half_chord(phi1, phi2) -> float:
    """sin of half the angle between two boundary angles, from their chord."""
    return 0.5 * math.hypot(math.cos(phi1) - math.cos(phi2),
                            math.sin(phi1) - math.sin(phi2))


def hyperbolic_dA(phi1, phi2, A) -> float:
    """1/a, where the pole rays are A apart at time a:
    cosh A = 1 + 2 sinh(a)^2 s^2 with s the half chord."""
    s = _half_chord(phi1, phi2)
    return 1.0 / math.asinh(math.sinh(A / 2.0) / s)


def hyperbolic_dbar(phi1, phi2) -> float:
    """Integral of f(r) e^-r over [0, inf), f(r) = 2 asinh(s sinh r), by
    scipy's QUADPACK, split at the kink r = log(2/s); the tail beyond
    r = 60 is below 1e-23."""
    from scipy.integrate import quad

    s = _half_chord(phi1, phi2)
    kink = min(59.0, math.log(2.0 / s))
    total = 0.0
    for lo, hi in ((0.0, kink), (kink, 60.0)):
        val, _ = quad(lambda r: 2.0 * math.asinh(s * math.sinh(r)) * math.exp(-r),
                      lo, hi, epsabs=1e-14, epsrel=1e-13, limit=200)
        total += val
    return total


def pair_oracle(space, family, A):
    """(oracle, mode): oracle(x, y) gives the expected value of one pair;
    mode None means compare exactly, "tol" to within the config's `tol`."""
    kind = space.kind
    if kind == "tree":
        if family == "dA":
            half = Fraction(A) / 2
            return (lambda x, y: 1 / (tree_branch_lcp(x, y) + half)), None
        return (lambda x, y: 2.0 * math.exp(-tree_branch_lcp(x, y))), None
    if kind == "euclidean":
        scale = 1.0 / A if family == "dA" else 1.0
        return (lambda x, y: scale * math.sqrt(sum((a - b) ** 2 for a, b in
                                                   zip(x.direction, y.direction)))), "tol"
    if family == "dA":
        return (lambda x, y: hyperbolic_dA(x.angle, y.angle, A)), "tol"
    return (lambda x, y: hyperbolic_dbar(x.angle, y.angle)), "tol"


def check_pairs_csv(cfg, out_dir, rng: random.Random, rows=ROWS_PER_TABLE) -> list:
    """Spot-check a seeded sample of `pairs.csv` rows of a `metric` run."""
    from visbound.cli import parse_space
    from visbound.spaces import sample_boundary

    space = parse_space(cfg.space)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    with open(os.path.join(out_dir, "pairs.csv"), newline="") as fh:
        table = list(csv.reader(fh))
    problems = []
    if table[0] != ["i", "j", "metric_family", "A_or_blank", "value"]:
        problems.append(f"pairs.csv header {table[0]}")
    n = len(sample)
    if len(table) - 1 != n * (n - 1) // 2:
        problems.append(f"pairs.csv has {len(table) - 1} rows, expected {n * (n - 1) // 2}")
    oracle, mode = pair_oracle(space, cfg.metric, cfg.A)
    a_field = f"{float(cfg.A):.17g}" if cfg.metric == "dA" else ""
    picks = range(1, len(table)) if len(table) - 1 <= rows else \
        sorted(rng.sample(range(1, len(table)), rows))
    for r in picks:
        row = table[r]
        try:
            i, j, fam, a, value = int(row[0]), int(row[1]), row[2], row[3], float(row[4])
            want = oracle(sample[i], sample[j])
        except (ValueError, IndexError) as e:
            problems.append(f"pairs.csv row {r} {row}: {e}")
            continue
        if fam != cfg.metric or a != a_field or not i < j:
            problems.append(f"pairs.csv row {r} {row}: bad fields")
        elif mode is None and value != float(want):
            problems.append(f"pairs.csv row {r}: {value!r} != exact {float(want)!r}")
        elif mode == "tol" and not abs(value - want) <= cfg.tol:
            problems.append(f"pairs.csv row {r}: |{value!r} - {want!r}| > tol {cfg.tol}")
    return problems


def visual_pairs(sample, n, seed):
    """The pair draw of `visbound.cli.run_visual_fit`, which it does not
    write out."""
    from visbound.spaces import substream

    rng = substream(seed, "visual-pairs")
    pairs = []
    while len(pairs) < n:
        i, j = rng.integers(0, len(sample), size=2)
        if i != j:
            pairs.append((sample[int(i)], sample[int(j)]))
    return pairs


def check_visual_fit(cfg, out_dir) -> list:
    """k1/k2 of a visual fit against min/max of dbar * a^(x|y) over the same
    pairs. On the tree with a = e that product is exactly 2. At the pole of
    H^2, (x|y) = -log s, so the product is dbar(quad) / s; the tolerance
    carries the promised dbar and Gromov-product tolerance `tol` through
    that product."""
    with open(os.path.join(out_dir, "visual_fit.json")) as fh:
        fit = json.load(fh)
    tree_dbar = cfg.space.startswith("tree") and cfg.metric == "dbar" and cfg.a == math.e
    if cfg.experiment == "demo-t4" or tree_dbar:
        want1 = want2 = 2.0
        tol = 1e-9     # the tolerance of demo-t4's own k1/k2 verdicts
    elif cfg.space == "hyperbolic_plane" and cfg.metric == "dbar" and cfg.a == math.e:
        from visbound.cli import parse_space
        from visbound.spaces import sample_boundary

        sample = sample_boundary(parse_space(cfg.space), cfg.n, cfg.seed)
        vals, tol = [], 0.0
        for x, y in visual_pairs(sample, cfg.n, cfg.seed):
            s = _half_chord(x.angle, y.angle)
            v = hyperbolic_dbar(x.angle, y.angle) / s
            vals.append(v)
            tol = max(tol, cfg.tol * (1.0 / s + v))
        want1, want2 = min(vals), max(vals)
    else:
        return [f"no visual-fit oracle for {cfg.space} {cfg.metric}"]
    problems = []
    for key, want in (("k1", want1), ("k2", want2)):
        if not abs(fit[key] - want) <= tol:
            problems.append(f"visual fit {key} = {fit[key]!r}, oracle {want!r}, tol {tol:.3g}")
    return problems


def check_outputs(cfg, out_dir, idx: int) -> list:
    """Oracle checks of the data files of experiment `idx` of a workload
    ([] when none apply). The rows sampled depend on the seed only."""
    rng = random.Random(f"{cfg.seed}:{idx}:{cfg.experiment}")
    if cfg.experiment == "metric":
        return check_pairs_csv(cfg, out_dir, rng)
    if cfg.experiment in ("visual-fit", "demo-t4"):
        return check_visual_fit(cfg, out_dir)
    return []
