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

import numpy as np

from . import __version__
from .covers import (
    LatticeBallSystem,
    ScaleSchedule,
    annular_pushin_cover,
    boundary_pushout_cover,
    colored_boundary_cover,
    cover_stats,
    ell_dim_estimate,
    orbit_ball_order,
    sample_ray_points,
)
from .metrics import DA, DBAR, MetricSpec, pair_distance_matrix
from .quasisym import (
    linear_control,
    power_law_fit,
    qs_envelope,
    uniformly_perfect_check,
    verify_control,
)
from .spaces import (
    Space,
    boundary_to_line,
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
    tol: float = 1e-10
    out: str = "out"

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
        if self.experiment not in EXPERIMENTS:
            raise ConfigError(f"experiment must be one of {EXPERIMENTS}, got {self.experiment!r}")
        if self.metric not in (DA, DBAR):
            raise ConfigError(f"metric must be dA or dbar, got {self.metric!r}")
        if self.metric2 and self.metric2 not in (DA, DBAR):
            raise ConfigError(f"metric2 must be dA or dbar, got {self.metric2!r}")
        if self.A <= 0:
            raise ConfigError("A must be positive")
        if self.n < 1 or self.n_triples < 1:
            raise ConfigError("sample sizes must be >= 1")
        if any(s <= 0 for s in self.scales):
            raise ConfigError("scales must be positive")
        if self.tol <= 0:
            raise ConfigError("tol must be positive")
        if self.R <= 0 or self.K < 0 or self.c < 1:
            raise ConfigError("need R > 0, K >= 0, c >= 1")


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
        return MetricSpec(DA, A=A, tol=cfg.tol)
    return MetricSpec(DBAR, tol=cfg.tol)


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


def _pairs_csv(D: np.ndarray, family_a: str) -> str:
    """The upper triangle of D as pairs.csv rows ``i,j,family_a,D[i,j]``.

    Each matrix row is formatted by one %-format call; ``%d`` and ``%.17g``
    give the same text as ``_fmt``, so the bytes equal ``_csv`` over the same
    rows (no field here needs quoting).  ``family_a`` is the family name, a
    comma and a ``.17g`` float, so it never holds a ``%``."""
    n = len(D)
    blocks = ["i,j,metric_family,A_or_blank,value\n"]
    for i in range(n - 1):
        row = [None] * (2 * (n - 1 - i))
        row[0::2] = range(i + 1, n)
        row[1::2] = D[i, i + 1:].tolist()
        blocks.append((f"{i},%d,{family_a},%.17g\n" * (n - 1 - i)) % tuple(row))
    return "".join(blocks)


def _json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _cover_json(space: Space, cover, ground_kind: str = "boundary") -> str:
    from .spaces import _point_to_str
    if ground_kind == "boundary":
        ground = [boundary_to_line(space, g) for g in cover.ground]
    else:
        ground = [_point_to_str(space, g) for g in cover.ground]
    sets = [{"members": list(s.members), "color": s.color, "descriptor": s.descriptor}
            for s in cover.sets]
    return _json({"ground": ground, "sets": sets})


# ---------------------------------------------------------------------------
# experiments: each returns (verdicts: dict[str, bool-or-value], files: dict)


def run_metric(cfg: RunConfig):
    space = parse_space(cfg.space)
    spec = _spec(cfg)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    D = pair_distance_matrix(space, spec, sample)
    family_a = f"{spec.family},{_fmt(float(cfg.A)) if spec.family == DA else ''}"
    files = {"pairs.csv": _pairs_csv(D, family_a)}
    # quick symmetry/identity sanity over the matrix itself
    sym = bool(np.array_equal(D, D.T))
    verdicts = {"matrix_symmetric": sym, "diagonal_zero": bool(np.all(np.diag(D) == 0.0))}
    return verdicts, files


def run_compare(cfg: RunConfig):
    space = parse_space(cfg.space)
    s1, s2 = _spec(cfg, 1), _spec(cfg, 2)
    env = qs_envelope(space, s1, s2, cfg.n_triples, cfg.seed)
    if cfg.eta_slope > 0:
        slope = cfg.eta_slope
    elif s1.family == DA and s2.family == DA:
        slope = max(float(s2.A) / float(s1.A), float(s1.A) / float(s2.A))
    else:
        slope = 1.0
    eta = linear_control(Fraction(slope) if slope == int(slope) else slope)
    report = verify_control(space, s1, s2, eta, cfg.n_triples, cfg.seed)
    fit = power_law_fit(env)
    rows = [(t, rho, f"{i}:{j}:{k}") for t, rho, (i, j, k) in env.entries]
    files = {
        "envelope.csv": _csv(["t", "rho", "triple_ids"], rows),
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
    if space.kind == "hyperbolic_plane":
        raise ConfigError("pushout needs a lattice orbit (euclidean or tree space)")
    R, A = cfg.R, cfg.A
    if R <= A:
        raise ConfigError("pushout requires R > A")
    system = LatticeBallSystem(space, int(R) if float(R) == int(R) else R)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    spec = MetricSpec(DA, A=A, tol=cfg.tol)
    D = pair_distance_matrix(space, spec, sample)
    order_v = orbit_ball_order(space, system.R)
    rows = []
    all_pass = True
    last_cover = None
    for lam in cfg.scales:
        cover = boundary_pushout_cover(space, system, lam, A, sample)
        stats = cover_stats(cover, matrix=D)
        bound_mesh = (4.0 * float(R) / float(A)) * float(lam)
        bound_leb = float(lam)
        ok = (stats.order <= order_v
              and stats.lebesgue >= bound_leb * (1 - 1e-9)
              and stats.mesh <= bound_mesh * (1 + 1e-9))
        all_pass = all_pass and ok
        rows.append((float(lam), stats.order, stats.mesh, stats.lebesgue,
                     bound_mesh, bound_leb, int(ok)))
        last_cover = cover
    files = {
        "stats.csv": _csv(["lambda", "order", "mesh", "lebesgue",
                           "bound_mesh", "bound_lebesgue", "pass"], rows),
        "cover.json": _cover_json(space, last_cover),
    }
    verdicts = {"all_scales_pass": all_pass, "interior_order": order_v}
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
    interior = sample_ray_points(space, sample, Fraction(cfg.window), cfg.n_triples // 10 or 1, cfg.seed)
    cover, claims = annular_pushin_cover(space, schedule, covers, sample, interior)
    files = {
        "cover.json": _cover_json(space, cover, ground_kind="interior"),
        "claims.json": _json({k: (v if not isinstance(v, bool) else bool(v))
                              for k, v in claims.items()}),
    }
    verdicts = {
        "color_disjoint": claims["color_disjoint"],
        "per_point_decay": claims["per_point_decay"],
        "mesh_ok": claims["mesh_ok"],
        "covers_ground": claims["covers_ground"],
        "order": claims["order"],
        "order_le_2n_plus_2": claims["order"] <= 2,
    }
    return verdicts, files


def run_ell_dim(cfg: RunConfig):
    space = parse_space(cfg.space)
    spec = _spec(cfg)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    D = pair_distance_matrix(space, spec, sample)
    rows, estimate = ell_dim_estimate(sample, D, cfg.scales, max(cfg.c, 4.0), cfg.seed)
    table = [(r.lam, r.order, r.mesh, r.lebesgue, r.bound_mesh, r.bound_lebesgue,
              int(r.passed)) for r in rows]
    files = {"stats.csv": _csv(["lambda", "order", "mesh", "lebesgue",
                                "bound_mesh", "bound_lebesgue", "pass"], table)}
    verdicts = {"estimate": estimate,
                "all_scales_pass": all(r.passed for r in rows)}
    return verdicts, files


def _draw_pairs(sample: list, count: int, rng) -> list:
    """`count` ordered pairs of distinct sample points, drawn as index pairs
    from `rng` with equal indices redrawn."""
    pairs = []
    while len(pairs) < count:
        i, j = rng.integers(0, len(sample), size=2)
        if i != j:
            pairs.append((sample[int(i)], sample[int(j)]))
    return pairs


def run_visual_fit(cfg: RunConfig):
    space = parse_space(cfg.space)
    if space.kind == "euclidean":
        raise ConfigError("visual-fit needs finite Gromov products: use a tree or "
                          "hyperbolic_plane (on R^n they diverge off antipodal pairs)")
    spec = _spec(cfg)
    sample = sample_boundary(space, cfg.n, cfg.seed)
    pairs = _draw_pairs(sample, cfg.n, substream(cfg.seed, "visual-pairs"))
    fit = visual_fit(space, spec, cfg.a, pairs)
    files = {"visual_fit.json": _json({
        "a": fit.a, "k1": fit.k1, "k2": fit.k2, "verdict": fit.verdict,
        "space": space_id(space), "metric": spec.family})}
    verdicts = {"verdict": fit.verdict, "k1": fit.k1, "k2": fit.k2,
                "pinched": fit.k1 <= fit.k2}
    return verdicts, files


def run_demo_t4(cfg: RunConfig):
    space = tree_space(4)
    sample = sample_boundary(space, max(cfg.n, 50), cfg.seed)
    pairs = _draw_pairs(sample, 1000, substream(cfg.seed, "demo-pairs"))
    fit = visual_fit(space, MetricSpec(DBAR), math.e, pairs)
    nv = nonvisual_witness_dA(space, 1, range(1, 31))
    nq = nonqs_witness(space, range(1, 26))
    radii = [Fraction(int(r), 64) for r in
             substream(cfg.seed, "demo-radii").integers(1, 127, size=20)]
    centers = sample_boundary(space, 50, cfg.seed + 1)
    perf = uniformly_perfect_check(space, MetricSpec(DA, A=1), centers, 4, radii)
    nv_rows = [(r.n, r.branch, _fmt(float(r.dA)), _fmt(float(r.product)), r.growth)
               for r in nv]
    nq_rows = [(r.n, _fmt(float(r.t)), r.rho, r.required_c) for r in nq]
    perf_rows = [(boundary_to_line(space, c), _fmt(float(r)),
                  boundary_to_line(space, w), _fmt(float(d)))
                 for c, r, w, d in perf.witnesses]
    files = {
        "nonvisual_dA.csv": _csv(["n", "branch", "dA", "product", "growth"], nv_rows),
        "nonqs.csv": _csv(["n", "t", "rho", "required_c"], nq_rows),
        "perfectness_witnesses.csv": _csv(["center", "radius", "witness", "dist"], perf_rows),
        "visual_fit.json": _json({"a": fit.a, "k1": fit.k1, "k2": fit.k2,
                                  "verdict": fit.verdict}),
    }
    verdicts = {
        "dbar_visual_k1_is_2": abs(fit.k1 - 2.0) <= 1e-9,
        "dbar_visual_k2_is_2": abs(fit.k2 - 2.0) <= 1e-9,
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


def _atomic_write(path: str, content: str):
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(content)
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
    args = build_parser().parse_args(argv)
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
