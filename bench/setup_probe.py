"""Set-up probe, run in a fresh interpreter by run.py after each timed pass:
times `import visbound` plus building and validating one workload's
configs, and prints the seconds as JSON.

    python3 bench/setup_probe.py <workload> <profile> <seed> <out_root>
"""

import json
import sys
import time

import workloads

if __name__ == "__main__":
    name, profile, seed, out_root = sys.argv[1:5]
    start = time.perf_counter()
    import visbound  # noqa: F401  (the import is what is timed)

    workloads.build_configs(workloads.WORKLOADS[name], profile, int(seed), out_root)
    print(json.dumps({"setup_s": time.perf_counter() - start}))
