"""Record what the benchmark checks against: each experiment's exit code
and boolean/string verdicts, which must agree across seeds 0, 1 and 7, the
sha256 of every data file at seed 0, and the error rate of the checks at
seeds 0 and 1. Run once at the commit the benchmark is defined on:

    python3 bench/record.py

It rewrites bench/expected.json.
"""

import json
import os
import shutil
import sys

import checks
import run
import workloads

SEEDS = (0, 1, 7)


def one_pass(cli, workload, profile, seed, work):
    configs = workloads.build_configs(workload, profile, seed, str(work))
    _, runs = run.run_pass(cli, configs)
    outcome = [{"exit": ex.rc, "verdicts": checks.stable_verdicts(checks.read_verdicts(ex.out))}
               for ex in runs]
    hashes = {str(ex.idx): checks.data_files(ex.out) for ex in runs}
    problems = [checks.check_outputs(configs[ex.idx], ex.out, ex.idx) for ex in runs]
    return outcome, hashes, problems


def main() -> int:
    import visbound.cli as cli

    expected = {"verdicts": {}, "sha256_seed0": {}, "error_rate_seed_commit": {},
                "sizes": {p: {name: workloads.sizes(w, p) for name, w in workloads.WORKLOADS.items()}
                          for p in workloads.PROFILES}}
    work = run.OUT / f"record-{os.getpid()}"
    ok = True
    try:
        for profile in workloads.PROFILES:
            for name, workload in workloads.WORKLOADS.items():
                outcomes = {}
                for seed in SEEDS:
                    outcome, hashes, problems = one_pass(cli, workload, profile, seed, work)
                    outcomes[seed] = outcome
                    if seed == 0:
                        expected["sha256_seed0"].setdefault(profile, {})[name] = hashes
                    for idx, p in enumerate(problems):
                        if p:
                            print(f"{profile} {name} seed {seed} experiment {idx}: {p[:5]}",
                                  file=sys.stderr)
                    if seed in (0, 1):
                        expected["error_rate_seed_commit"].setdefault(profile, {}) \
                            .setdefault(name, {})[str(seed)] = \
                            sum(1 for p in problems if p) / len(problems)
                    shutil.rmtree(work, ignore_errors=True)
                if any(outcomes[s] != outcomes[0] for s in SEEDS):
                    print(f"{profile} {name}: verdicts differ across seeds {outcomes}",
                          file=sys.stderr)
                    ok = False
                expected["verdicts"].setdefault(profile, {})[name] = outcomes[0]
                print(f"{profile} {name}: {outcomes[0]}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not ok:
        return 1
    with open(run.EXPECTED, "w") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    os.environ.update({v: "1" for v in run.THREAD_VARS})
    sys.path.insert(0, str(run.SRC))
    sys.exit(main())
