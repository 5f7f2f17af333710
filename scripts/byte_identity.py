#!/usr/bin/env python3
"""SHA-256 of every data file that the fixed experiment configs write, one
JSON line per file, so that two versions of visbound compare by one diff:

    python3 scripts/byte_identity.py > before.jsonl
    # ... change the source ...
    python3 scripts/byte_identity.py > after.jsonl
    diff before.jsonl after.jsonl

The configs are the `GOLDEN` configs of tests/test_golden_outputs.py, the
command lines of scripts/run_*.py, those of the README's command-line
example, the experiments of the benchmark's workloads in
bench/workloads.py at their "full" sizes (that module is only read), and
the `LARGE` configs below, which run the cover verdicts above the golden
sizes.  Each runs through `visbound.cli.run` into a temporary directory at
seeds 0, 3 and 11, and each line holds the config, the seed, the file and
its sha256.  `manifest.json` is left out: it holds the output directory and
the package versions.  The `KERNELS` section then hashes, in process and at
the same seeds, what no CLI config reaches: the kernels at basepoints other
than the default one (its lines name the kernel where others name a file).
The source imported is the `src/` next to this script.
"""

import hashlib
import importlib.util
import json
import math
import os
import runpy
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from visbound import cli  # noqa: E402
from visbound.covers import ell_dim_estimate  # noqa: E402
from visbound.metrics import (MetricSpec, eval_dA, eval_dbar, gromov_product,  # noqa: E402
                              pair_distance_matrix, sample_metric)
from visbound.spaces import (EuclideanBoundary, EuclideanPoint, HyperbolicPoint, Ray,  # noqa: E402
                             TreePoint, euclidean_space, hyperbolic_plane, ray_point,
                             sample_boundary, tree_space)

SEEDS = (0, 3, 11)
TREE_SCALES = [4.0 * math.exp(-k) for k in range(1, 9)]
CIRCLE_SCALES = [2.0 ** -k for k in range(1, 7)]

# (label, config fields) of the cover verdicts on larger samples; the
# tree pushout and the pushin also write a cover.json of several blocks
LARGE = [
    ("large ell-dim euclidean2 dA n=1500",
     dict(experiment="ell-dim", space="euclidean2", metric="dA", A=1.0, n=1500,
          scales=CIRCLE_SCALES)),
    ("large ell-dim hyperbolic_plane dbar n=1500",
     dict(experiment="ell-dim", space="hyperbolic_plane", metric="dbar", n=1500,
          scales=CIRCLE_SCALES)),
    ("large ell-dim tree4 dbar n=1500",
     dict(experiment="ell-dim", space="tree4", metric="dbar", n=1500, scales=TREE_SCALES)),
    ("large cover-pushout euclidean2 n=500",
     dict(experiment="cover-pushout", space="euclidean2", A=1.0, R=2.0, n=500)),
    ("large cover-pushout tree4 A=1 R=2 n=1500",
     dict(experiment="cover-pushout", space="tree4", A=1.0, R=2.0, n=1500)),
    ("large cover-pushin tree4 R=2 K=5 n=120 n_triples=8000",
     dict(experiment="cover-pushin", space="tree4", R=2.0, K=5, n=120, n_triples=8000)),
    # three coordinates per center, some of them negative
    ("large cover-pushout euclidean3 n=200",
     dict(experiment="cover-pushout", space="euclidean3", A=1.0, R=2.0, n=200)),
    # colored covers of different depths per scale
    ("large cover-pushin tree3 R=1 K=4 window=6 n=80 n_triples=3000",
     dict(experiment="cover-pushin", space="tree3", R=1.0, K=4, window=6.0, n=80,
          n_triples=3000)),
]


# the spaces of the KERNELS section, each at a basepoint off the default
# one, with the scales of its dimension estimate
KERNEL_SPACES = [
    ("tree4 at (1, 0)", tree_space(4, TreePoint((1, 0))), TREE_SCALES),
    ("euclidean3 at (0.5, -1, 2)", euclidean_space(3, (0.5, -1.0, 2.0)), CIRCLE_SCALES),
    ("hyperbolic_plane at (1.3, 0.4)", hyperbolic_plane(HyperbolicPoint(1.3, 0.4)),
     CIRCLE_SCALES),
]
KERNEL_SPECS = [MetricSpec("dA", A=1.0), MetricSpec("dbar")]


def _tables(space, scales, seed: int):
    """(kernel, bytes) of the pair table, the `sample_metric` rows, order
    and turn, and the dimension estimate's rows, for dA and dbar."""
    sample = sample_boundary(space, 90, seed)
    out = []
    for spec in KERNEL_SPECS:
        D = pair_distance_matrix(space, spec, sample)
        metric = sample_metric(space, spec, sample)
        rows = metric.rows(list(range(metric.n)))
        extras = [x for x in (metric.order, metric.turn) if x is not None]
        out += [(f"pair_distance_matrix {spec.family}", D.tobytes()),
                (f"sample_metric {spec.family}", b"".join(a.tobytes() for a in [rows, *extras])),
                (f"ell_dim_estimate {spec.family}",
                 repr(ell_dim_estimate(metric, scales, 4.0, seed)).encode())]
    return out


def _pairs(space, seed: int):
    """(kernel, bytes) of the Gromov products, bisected d_A and integrated
    dbar of a few pairs; on R^n the products are of antipodal pairs, the
    only ones that have one."""
    sample = sample_boundary(space, 4, seed)
    pairs = list(zip(sample, sample[1:]))
    opposite = [(xi, EuclideanBoundary(tuple(-c for c in xi.direction)))
                for xi in sample] if space.kind == "euclidean" else pairs
    base = space.basepoint
    return [("gromov_product", repr([gromov_product(space, base, x, y)
                                     for x, y in opposite]).encode()),
            ("eval_dA bisect", repr([eval_dA(space, KERNEL_SPECS[0], x, y, method="bisect")
                                     for x, y in pairs]).encode()),
            ("eval_dbar quadrature", repr([eval_dbar(space, KERNEL_SPECS[1], x, y,
                                                     method="quadrature")
                                           for x, y in pairs[:1]]).encode())]


def _rays(space, seed: int):
    """(kernel, bytes) of `ray_point` along rays from the basepoint toward
    boundary points and along segments toward points on them."""
    times = [0, 0.25, 1, 2.5, 7] if space.kind != "tree" else [0, 1, 2, 3, 7]
    out = []
    for xi in sample_boundary(space, 3, seed):
        ray = Ray(space, space.basepoint, xi)
        segment = Ray(space, space.basepoint, ray_point(ray, times[-2]))
        out += [ray_point(r, t) for r in (ray, segment) for t in times]
    return [("ray_point", repr(out).encode())]


def kernel_lines(seed: int) -> list:
    """(label, kernel, bytes) of each hash of the KERNELS section."""
    return [(f"kernels {label}", kernel, data) for label, space, scales in KERNEL_SPACES
            for section in (_tables(space, scales, seed), _pairs(space, seed),
                            _rays(space, seed))
            for kernel, data in section]


KERNELS = [kernel_lines]


def _module(*path):
    """The module of the file at `path` under the root, imported by path
    (and registered, as its dataclasses need)."""
    spec = importlib.util.spec_from_file_location(path[-1][:-3], os.path.join(ROOT, *path))
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def golden_configs() -> list:
    """(name, config fields) of each golden config."""
    golden = _module("tests", "test_golden_outputs.py").GOLDEN
    return [(f"golden {name}", fields) for name, (fields, _, _) in sorted(golden.items())]


def bench_configs() -> list:
    """(workload and experiment, config fields) of each experiment of the
    benchmark's workloads, at the sizes of its "full" profile."""
    workloads = _module("bench", "workloads.py").WORKLOADS
    return [(f"bench {w.name}: {exp.label()}",
             {"experiment": exp.kind, **exp.fields, **exp.sizes["full"]})
            for w in workloads.values() for exp in w.experiments]


def _command(source: str, argv: list) -> tuple:
    """(label, config fields) of a command line, read as `cli.main` reads
    it; the label leaves out `--out` and `--seed`, which every run sets."""
    args = vars(cli.build_parser().parse_args(argv))
    fields = {k: v for k, v in args.items() if v is not None and k != "config"}
    shown = [a for a, prev in zip(argv, [None] + argv)
             if a not in ("--out", "--seed") and prev not in ("--out", "--seed")]
    return f"{source}: {shlex.join(shown)}", fields


def script_configs() -> list:
    """(script and command line, config fields) of each CLI call that a
    scripts/run_*.py makes, recorded in place of the call."""
    out = []
    scripts = os.path.join(ROOT, "scripts")
    for name in sorted(f for f in os.listdir(scripts) if f.startswith("run_")):
        calls = []
        main, argv = cli.main, sys.argv
        cli.main, sys.argv = (lambda a: calls.append(a) or 0), [name]
        try:
            runpy.run_path(os.path.join(scripts, name), run_name="__main__")
        except SystemExit:
            pass
        finally:
            cli.main, sys.argv = main, argv
        out += [_command(f"scripts/{name}", a) for a in calls]
    return out


def readme_configs() -> list:
    """(command line, config fields) of each `visbound ...` line of the
    README."""
    with open(os.path.join(ROOT, "README.md")) as fh:
        lines = [line.split() for line in fh if line.startswith("visbound ")]
    return [_command("README", a[1:]) for a in lines]


def configs() -> list:
    """(label, config fields) of every fixed config, in the order run."""
    return golden_configs() + script_configs() + readme_configs() + bench_configs() + LARGE


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, fields) in enumerate(configs()):
            for seed in SEEDS:
                out = os.path.join(tmp, f"{k}-{seed}")
                cli.run(cli.RunConfig.from_dict({**fields, "seed": seed, "out": out}))
                for name in sorted(os.listdir(out)):
                    if name == "manifest.json":
                        continue
                    with open(os.path.join(out, name), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    print(json.dumps({"config": label, "seed": seed, "file": name,
                                      "sha256": digest}), flush=True)
    for section in KERNELS:
        for seed in SEEDS:
            for label, kernel, data in section(seed):
                print(json.dumps({"config": label, "seed": seed, "kernel": kernel,
                                  "sha256": hashlib.sha256(data).hexdigest()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
