#!/usr/bin/env python3
"""Wall time and peak memory of whole experiments, one run per fresh
interpreter.

    PYTHONPATH=src python3 scripts/l3_probe.py --repeat 3 \\
        "ell-dim --space hyperbolic_plane --metric dbar --n 1500 --scales 0.5,0.25" \\
        "metric --space euclidean2 --metric dA --A 1 --n 1600 --seed 0"

Each quoted argument is one experiment's command line, as `visbound` takes
it.  Every run starts a new interpreter with the BLAS and OpenMP pools
pinned to one thread and no bytecode written, and runs the experiment
through `visbound.cli.main` with `--out` in a temporary directory.  It
measures the wall seconds of `cli.run`'s body (`cli._execute`: the run
with its files written, without argument parsing or the import) and the
process's peak resident set (`ru_maxrss`).  The runs go round the
experiments `--repeat` times, and one JSON line per experiment gives
their medians and every run.
"""

import argparse
import json
import os
import resource
import shlex
import statistics
import subprocess
import sys
import tempfile
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def child(argv: list) -> None:
    """Run one experiment in this interpreter and print its measurements."""
    from visbound import cli

    spent = []
    execute = cli._execute

    def timed(cfg):
        start = time.perf_counter()
        try:
            return execute(cfg)
        finally:
            spent.append(time.perf_counter() - start)

    cli._execute = timed
    rc = cli.main(argv)
    print(json.dumps({"rc": rc, "wall_s": spent[0] if spent else None,
                      "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}))


def probe(command: str, out: str) -> dict:
    """One run of `command` in a fresh interpreter."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-B", os.path.abspath(__file__), "--child",
                           *shlex.split(command), "--out", out],
                          env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--repeat", type=int, default=3, help="runs per experiment")
    p.add_argument("commands", nargs="+", help="one experiment's command line each")
    args = p.parse_args(argv)
    runs = {c: [] for c in args.commands}
    with tempfile.TemporaryDirectory() as tmp:
        for r in range(args.repeat):
            for k, command in enumerate(args.commands):
                runs[command].append(probe(command, os.path.join(tmp, f"{k}-{r}")))
    for command, done in runs.items():
        walls = [d["wall_s"] for d in done if d["wall_s"] is not None]
        print(json.dumps({"command": command, "rc": [d["rc"] for d in done],
                          "wall_s": statistics.median(walls) if walls else None,
                          "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in done),
                          "runs": done}))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2:])
    else:
        sys.exit(main())
