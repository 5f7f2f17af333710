"""Benchmark of the visbound experiments.

    python3 bench/run.py --workload tree-exact --seed 3 --seconds 30 --trace 0

Run from the root of a checkout. One client runs the workload's experiments
in-process through `visbound.cli.run`, one after the other (a closed loop),
single-threaded. A pass is one run of the whole experiment list. The run:

1. makes one reference pass at seed 0, untimed, whose data files are hashed
   against those recorded at the seed commit (`outputs_identical`);
2. makes timed passes at `--seed` while the next one fits in `--seconds`;
   with `--trace 0` a fixed calibration kernel is timed before each pass,
   and a probe in a fresh interpreter times set-up (`import visbound` plus
   building and validating the configs) after it; with `--trace 1`
   untraced and traced passes alternate;
3. checks every experiment's exit code and verdicts, and the last pass's
   data files against independent oracles (checks.py).

It prints a readable report, writes it as JSON under bench/_out/, and prints
as its last line {"correct", "attempted", "failed", "metrics"}: the
end-to-end metrics of BENCHMARK.json with `--trace 0`, the per-layer ones
with `--trace 1`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import checks
import workloads
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "_out"
EXPECTED = BENCH_DIR / "expected.json"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
REFERENCE_SEED = 0
CALIBRATION_REF_S = 0.1


def pinned_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def probe_setup(name, profile, seed, out_root) -> float:
    """Set-up seconds of one fresh interpreter (setup_probe.py)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, profile,
         str(seed), str(out_root)],
        env=pinned_env(), cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def calibrate() -> float:
    """Seconds of a fixed piece of interpreter-bound work like the
    workloads' own: small Fractions, tuple-keyed dicts, sorting with a
    Python key, a little numpy. The speed of such code on the machine the
    benchmark was built on drifts by up to 2x over minutes; timed in the
    benchmark's process just before each pass, this work tracks the drift,
    so pass time divided by it is steadier than pass time alone. It keeps
    under 1 MB live, so that it does not set `peak_rss_mb`."""
    import numpy as np

    start = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 10000):
        acc += Fraction(i % 13, i % 17 + 1) / 2
    table = {((i * 7919) % 100003, i & 7): i for i in range(2000)}
    for _ in range(60):
        sorted(table.items(), key=lambda kv: kv[0][0] ^ kv[1])
    grid = np.arange(10000.0).reshape(100, 100) % 997.0
    for _ in range(4):
        float(np.sort(grid, axis=1).sum())
    return time.perf_counter() - start


class Execution:
    """One experiment run: exit code (None if it raised), seconds, bytes."""

    __slots__ = ("idx", "kind", "rc", "seconds", "out", "nbytes", "problems")

    def __init__(self, idx, kind, rc, seconds, out):
        self.idx, self.kind, self.rc, self.seconds, self.out = idx, kind, rc, seconds, out
        self.nbytes = sum(p.stat().st_size for p in Path(out).glob("*") if p.is_file()) \
            if os.path.isdir(out) else 0
        self.problems = []


def run_pass(cli, configs, tracer=None, pass_no=0):
    """Run the experiments one after another; returns (wall seconds, runs)."""
    runs = []
    clock = time.perf_counter
    start = clock()
    for idx, cfg in enumerate(configs):
        t0 = clock()
        try:
            if tracer is None:
                rc = cli.run(cfg)
            else:
                with tracer.span("bench.experiment", run_id=f"{pass_no}.{idx}"):
                    rc = cli.run(cfg)
        except Exception:   # a crash fails this experiment, not the benchmark
            traceback.print_exc(file=sys.stderr)
            rc = None
        runs.append((idx, cfg, rc, clock() - t0))
    wall = clock() - start
    return wall, [Execution(idx, cfg.experiment, rc, dt, cfg.out) for idx, cfg, rc, dt in runs]


def check_runs(runs, expected) -> None:
    """Attach exit-code and verdict problems to each run."""
    for ex in runs:
        ex.problems += checks.check_exit_and_verdicts(expected[ex.idx], ex.rc, ex.out)


def median_stats(values) -> dict:
    return {"median": statistics.median(values), "min": min(values),
            "max": max(values), "samples": len(values)}


def run_record(workload, profile, seed) -> dict:
    import numpy

    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None

    def git(*args):
        try:
            proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    status = git("status", "--porcelain") if sha else None
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workload": workload.name,
        "profile": profile,
        "seed": seed,
        "sizes": [{"experiment": e.label(), **size}
                  for e, size in zip(workload.experiments, workloads.sizes(workload, profile))],
    }


def measure(name, seed, seconds, trace, profile="full", out_dir=OUT):
    """Run one benchmark measurement; returns the report dict."""
    workload = workloads.WORKLOADS[name]
    expected_all = checks.load_expected(EXPECTED)
    if expected_all["sizes"][profile][name] != workloads.sizes(workload, profile):
        raise RuntimeError(f"{EXPECTED.name} was recorded at other sizes of {name}; "
                           "rerun bench/record.py")
    expected = expected_all["verdicts"][profile][name]
    work = Path(out_dir) / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        import visbound.cli as cli

        ref_configs = workloads.build_configs(workload, profile, REFERENCE_SEED, str(work / "ref"))
        configs = workloads.build_configs(workload, profile, seed, str(work / "run"))
        # reference pass at seed 0: warms caches, and compares bytes
        _, ref_runs = run_pass(cli, ref_configs)
        check_runs(ref_runs, expected)
        recorded = expected_all["sha256_seed0"][profile][name]
        same = total = 0
        for ex in ref_runs:
            got = checks.data_files(ex.out) if os.path.isdir(ex.out) else {}
            want = recorded[str(ex.idx)]
            total += len(want)
            same += sum(1 for f, h in want.items() if got.get(f) == h)

        tracer = Tracer() if trace else None
        walls, calibrations, traced_walls, setup = [], [], [], []
        kind_times, layer_passes, runs = {}, [], list(ref_runs)
        deadline = time.perf_counter() + seconds
        pass_no = 0
        while True:
            traced = trace and pass_no % 2 == 1
            if traced:
                tracer.pass_no = pass_no
                tracer.install()
                try:
                    with tracer.span("bench.pass", run_id=f"{pass_no}"):
                        wall, pass_runs = run_pass(cli, configs, tracer, pass_no)
                finally:
                    tracer.uninstall()
                traced_walls.append(wall)
                layer_passes.append({
                    "wall_s": wall,
                    "self_s_sum": sum(t[1] for t in tracer.layer_totals(pass_no).values()),
                    "metrics": {**tracer.pass_metrics(pass_no),
                                "cli.bytes_written": sum(ex.nbytes for ex in pass_runs)}})
            else:
                if not trace:
                    calibrations.append(calibrate())
                wall, pass_runs = run_pass(cli, configs)
                walls.append(wall)
                sums = {}
                for ex in pass_runs:
                    sums[ex.kind] = sums.get(ex.kind, 0.0) + ex.seconds
                for kind, t in sums.items():
                    kind_times.setdefault(kind, []).append(t)
                # set-up probes interleave with the passes, so both see the
                # same mix of machine load over the run
                if not trace:
                    setup.append(probe_setup(name, profile, seed, work / "probe"))
            check_runs(pass_runs, expected)
            runs += pass_runs
            pass_no += 1
            # stop before a pass that would end past the deadline
            if time.perf_counter() + wall > deadline and (not trace or traced_walls):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        # oracle checks on the last pass, at the requested seed
        for ex in pass_runs:
            if not ex.problems and ex.rc is not None:
                ex.problems += checks.check_outputs(configs[ex.idx], ex.out, ex.idx)
        if tracer is not None:
            tracer.write(Path(out_dir) / f"trace-{name}-seed{seed}.jsonl")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failures = [f"experiment {ex.idx} ({ex.kind}): {p}" for ex in runs for p in ex.problems]
    failed = sum(1 for ex in runs if ex.problems)
    report = {
        "workload": name, "seed": seed, "trace": int(trace), "seconds": seconds,
        "attempted": len(runs), "failed": failed,
        "error_rate": failed / len(runs), "failures": failures[:50],
        "outputs_identical": same / total if total else None,
        "outputs_identical_files": [same, total],
        "record": run_record(workload, profile, seed),
    }
    if trace:
        report["per_layer"] = {
            "samples": len(layer_passes),
            "values": {k: statistics.median(p["metrics"][k] for p in layer_passes)
                       for k in layer_passes[0]["metrics"]},
            "passes": layer_passes,
        }
        untraced = statistics.median(walls)
        traced_median = statistics.median(traced_walls)
        report["per_layer"]["values"]["trace.wall_s"] = traced_median
        report["per_layer"]["values"]["trace.overhead"] = traced_median / untraced
        report["untraced_wall_s"] = median_stats(walls)
        report["traced_wall_s"] = median_stats(traced_walls)
    else:
        ref_walls = [CALIBRATION_REF_S * w / c for w, c in zip(walls, calibrations)]
        report["end_to_end"] = {
            "wall_ref_s": {**median_stats(ref_walls), "unit": "s"},
            "wall_s": {**median_stats(walls), "unit": "s"},
            "calibration_s": {**median_stats(calibrations), "unit": "s"},
            # scaled by the run's calibration like wall_ref_s: raw set-up
            # time drifted by up to 46% between two batches of ten runs
            "setup_s": {"median": CALIBRATION_REF_S * statistics.median(setup)
                        / statistics.median(calibrations),
                        "samples": len(setup), "unit": "s"},
            "setup_raw_s": {**median_stats(setup), "unit": "s"},
            "peak_rss_mb": {"median": peak_rss_mb, "samples": 1, "unit": "MB"},
            **{workloads.kind_metric(k): {**median_stats(kind_times[k]), "unit": "s"}
               for k in workload.reported_kinds},
        }
    return report


def result_line(report, benchmark) -> dict:
    """The result line: the metrics BENCHMARK.json lists, with their units."""
    if report["trace"]:
        specs = benchmark["per_layer"]
        values = report["per_layer"]["values"]
    else:
        specs = benchmark["end_to_end"]
        values = {k: v["median"] for k, v in report["end_to_end"].items()}
    return {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs},
    }


def print_report(report, benchmark):
    units = {s["name"]: s["unit"] for s in benchmark["per_layer"]}
    print(f"workload {report['workload']}  seed {report['seed']}  trace {report['trace']}")
    rows = report.get("end_to_end") or {}
    for k, v in rows.items():
        print(f"  {k:<22} {v['median']:.6g} {v['unit']}  (median of {v['samples']})")
    if report["trace"]:
        for k, v in sorted(report["per_layer"]["values"].items()):
            print(f"  {k:<45} {v:.6g} {units[k]}")
        print(f"  (median of {report['per_layer']['samples']} traced passes)")
    print(f"  error_rate             {report['error_rate']:.6g} ratio"
          f"  ({report['failed']} of {report['attempted']} experiments failed)")
    for f in report["failures"]:
        print(f"    FAIL {f}")
    same, total = report["outputs_identical_files"]
    print(f"  outputs_identical      {same}/{total} data files at seed {REFERENCE_SEED}")
    rec = report["record"]
    print(f"  record: git {rec['git_sha']} dirty={rec['git_dirty']} python {rec['python']}"
          f" numpy {rec['numpy']} scipy {rec['scipy']} nproc {rec['nproc']}"
          f" blas_threads {rec['blas_threads']['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "visbound" / "__init__.py").is_file():
        print(f"error: no visbound sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        benchmark = json.load(fh)
    OUT.mkdir(exist_ok=True)
    report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    path = OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print_report(report, benchmark)
    print(json.dumps(result_line(report, benchmark)))
    return 0


if __name__ == "__main__":
    os.environ.update({v: "1" for v in THREAD_VARS})   # before numpy loads
    sys.path.insert(0, str(SRC))
    sys.exit(main())
