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
the package versions.  The source imported is the `src/` next to this
script.
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
]


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


def main() -> int:
    configs = golden_configs() + script_configs() + readme_configs() + bench_configs() + LARGE
    with tempfile.TemporaryDirectory() as tmp:
        for k, (label, fields) in enumerate(configs):
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
    return 0


if __name__ == "__main__":
    sys.exit(main())
