"""The benchmark's workloads: which visbound experiments each one runs, at
which sizes, and why.

Sizes come in two profiles. "full" is what `run.py` measures: each workload
keeps the experiment list of its design, scaled so that one pass takes
1.5-3.5 s on one core, which leaves 8-20 passes per 30 s run to take a
median over. "tiny" runs the same lists at toy sizes for the benchmark's own
tests. This module imports nothing from visbound, so that the set-up probe
can time `import visbound` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TREE_SCALES = [4.0 * math.exp(-k) for k in range(1, 9)]
CIRCLE_SCALES = [2.0 ** -k for k in range(1, 7)]


@dataclass(frozen=True)
class Experiment:
    """One `visbound.cli.run` call. `fields` are the `RunConfig` fields other
    than its defaults, `out` and `seed`; `sizes` maps profile to the size
    fields of that profile."""

    kind: str
    fields: dict
    sizes: dict

    def config_dict(self, profile: str, seed: int, out: str) -> dict:
        return {"experiment": self.kind, **self.fields, **self.sizes[profile],
                "seed": seed, "out": out}

    def label(self) -> str:
        parts = [self.kind] + [f"{k}={v}" for k, v in self.fields.items()
                               if k != "scales"]
        return " ".join(parts)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    experiments: tuple
    # experiment kinds whose summed time the report names (<kind>_s)
    reported_kinds: tuple


def _exp(kind, sizes_full, sizes_tiny, **fields):
    return Experiment(kind, fields, {"full": sizes_full, "tiny": sizes_tiny})


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="tree-exact",
            why=("exact Fraction branch times and tree pair tables, triple "
                 "loops and power-law fits; no lattice or float quadrature"),
            experiments=(
                _exp("metric", {"n": 200}, {"n": 20}, space="tree4", metric="dA", A=1.0),
                _exp("metric", {"n": 200}, {"n": 20}, space="tree4", metric="dbar"),
                _exp("compare", {"n_triples": 2000}, {"n_triples": 200},
                     space="tree4", metric="dA", A=1.0, metric2="dA", A2=2.0),
                _exp("compare", {"n_triples": 2000}, {"n_triples": 200},
                     space="tree4", metric="dA", A=1.0, metric2="dbar"),
                _exp("ell-dim", {"n": 300}, {"n": 40}, space="tree4", metric="dbar",
                     scales=TREE_SCALES),
                _exp("visual-fit", {"n": 1000}, {"n": 50}, space="tree4", metric="dbar"),
                _exp("demo-t4", {"n": 100}, {"n": 50}),
            ),
            reported_kinds=("metric", "compare", "ell-dim"),
        ),
        Workload(
            name="lattice-covers",
            why=("ball-centre enumeration driving spaces.dist, and the "
                 "Lebesgue loop of cover_stats; outputs are tiny"),
            experiments=(
                _exp("cover-pushout", {"n": 12}, {"n": 4}, space="tree4", A=1.0, R=2.0),
                _exp("cover-pushout", {"n": 80}, {"n": 10},
                     space="euclidean2", A=1.0, R=2.0),
                _exp("cover-pushin", {"n": 60, "n_triples": 4000},
                     {"n": 10, "n_triples": 200},
                     space="tree4", R=2.0, K=5, window=14.0),
                _exp("ell-dim", {"n": 400}, {"n": 40}, space="euclidean2", metric="dA",
                     A=1.0, scales=CIRCLE_SCALES),
            ),
            reported_kinds=("cover-pushout", "cover-pushin", "ell-dim"),
        ),
        Workload(
            name="float-kernels",
            why=("hyperbolic dbar on the Simpson grid and by adaptive Simpson, "
                 "Gromov doublings, and large CSV writes; no Fraction or covers"),
            experiments=(
                _exp("metric", {"n": 100}, {"n": 20}, space="hyperbolic_plane",
                     metric="dbar"),
                _exp("metric", {"n": 300}, {"n": 20}, space="hyperbolic_plane",
                     metric="dA"),
                _exp("compare", {"n_triples": 1500}, {"n_triples": 200},
                     space="hyperbolic_plane", metric="dA", A=1.0, metric2="dbar"),
                _exp("visual-fit", {"n": 200}, {"n": 20}, space="hyperbolic_plane",
                     metric="dbar"),
                _exp("metric", {"n": 400}, {"n": 30}, space="euclidean2", metric="dA",
                     A=1.0),
            ),
            reported_kinds=("metric", "compare", "visual-fit"),
        ),
    )
}

PROFILES = ("full", "tiny")


def kind_metric(kind: str) -> str:
    """Report name of the summed time of one experiment kind."""
    return {"cover-pushout": "pushout_s", "cover-pushin": "pushin_s",
            "visual-fit": "visual_s"}.get(kind, kind.replace("-", "_") + "_s")


def sizes(workload: Workload, profile: str) -> list:
    """The size fields of each experiment of a workload in one profile."""
    return [exp.sizes[profile] for exp in workload.experiments]


def build_configs(workload: Workload, profile: str, seed: int, out_root: str) -> list:
    """Validated `RunConfig`s for one pass, one output directory each."""
    from visbound.cli import RunConfig

    configs = []
    for idx, exp in enumerate(workload.experiments):
        cfg = RunConfig.from_dict(exp.config_dict(profile, seed, f"{out_root}/{idx}-{exp.kind}"))
        cfg.validate()
        configs.append(cfg)
    return configs
