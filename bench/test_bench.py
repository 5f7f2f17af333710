"""Tests of the benchmark itself, at the "tiny" sizes of workloads.py."""

import json
import math
import os

import pytest

import checks
import run
import tracer
import workloads

with open(run.ROOT / "BENCHMARK.json") as fh:
    BENCHMARK = json.load(fh)
EXPECTED = checks.load_expected(run.EXPECTED)


def recorded_error_rate(name, seed_key="0"):
    return EXPECTED["error_rate_seed_commit"]["tiny"][name][seed_key]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_untraced_run_emits_end_to_end_metrics(name, tmp_path):
    report = run.measure(name, 0, 0.1, False, profile="tiny", out_dir=tmp_path)
    line = run.result_line(report, BENCHMARK)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    specs = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == specs
    assert all(v["value"] > 0 for v in line["metrics"].values())
    for kind in workloads.WORKLOADS[name].reported_kinds:
        assert report["end_to_end"][workloads.kind_metric(kind)]["unit"] == "s"
    assert report["error_rate"] == recorded_error_rate(name)
    assert line["correct"] is (report["failed"] == 0)
    # information only: unpinned BLAS threads change the last bits of the
    # hyperbolic dbar table, so this process need not reproduce every file
    assert 0 < report["outputs_identical"] <= 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_on_held_out_seed(name, tmp_path):
    report = run.measure(name, 5, 0.1, True, profile="tiny", out_dir=tmp_path)
    line = run.result_line(report, BENCHMARK)
    specs = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == specs
    # the checks do not depend on the seed, so seed 5 fails as seed 0 does
    assert report["error_rate"] == recorded_error_rate(name)
    for p in report["per_layer"]["passes"]:
        assert 0 < p["self_s_sum"] <= p["wall_s"]
    values = report["per_layer"]["values"]
    assert values["cli.run.self_s"] > 0 and values["cli.bytes_written"] > 0
    assert values["trace.overhead"] > 0
    assert os.path.exists(tmp_path / f"trace-{name}-seed5.jsonl")


def test_per_layer_names():
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert names == [n for n, _, _ in tracer.PER_LAYER]
    assert len([n for n in names if not n.startswith("trace.")]) == 43


def test_tracer_wraps_every_binding_and_restores():
    import visbound
    import visbound.covers
    import visbound.metrics
    import visbound.spaces

    original = visbound.spaces.dist
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = visbound.spaces.dist
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert visbound.metrics.dist is wrapped
        assert visbound.covers.dist is wrapped
        assert visbound.dist is wrapped
        with t.span("bench.pass", run_id="0"):
            space = visbound.tree_space(4)
            visbound.dist(space, visbound.TreePoint((0, 1)), visbound.TreePoint((2,)))
    finally:
        t.uninstall()
    assert visbound.spaces.dist is original and visbound.covers.dist is original
    totals = t.layer_totals(None)
    assert totals["spaces.dist"][0] == 1


def _metric_run(tmp_path, space, metric):
    import visbound.cli as cli

    cfg = cli.RunConfig(experiment="metric", space=space, metric=metric, n=12, seed=3,
                        out=str(tmp_path / f"{space}-{metric}"))
    assert cli.run(cfg) == 0
    return cfg


@pytest.mark.parametrize("space,metric", [("tree4", "dA"), ("tree4", "dbar"),
                                          ("euclidean2", "dA"),
                                          ("hyperbolic_plane", "dA"),
                                          ("hyperbolic_plane", "dbar")])
def test_corrupted_pairs_row_is_a_failure(tmp_path, space, metric):
    cfg = _metric_run(tmp_path, space, metric)
    assert checks.check_outputs(cfg, cfg.out, 0) == []
    path = os.path.join(cfg.out, "pairs.csv")
    lines = open(path).read().splitlines()
    fields = lines[7].split(",")
    fields[-1] = repr(float(fields[-1]) * (1 + 1e-6))
    lines[7] = ",".join(fields)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert checks.check_outputs(cfg, cfg.out, 0)


def test_truncated_pairs_table_is_a_failure(tmp_path):
    cfg = _metric_run(tmp_path, "tree4", "dA")
    path = os.path.join(cfg.out, "pairs.csv")
    lines = open(path).read().splitlines()
    with open(path, "w") as fh:
        fh.write("\n".join(lines[:-1]) + "\n")
    assert checks.check_outputs(cfg, cfg.out, 0)


def test_wrong_visual_constant_is_a_failure(tmp_path):
    import visbound.cli as cli

    cfg = cli.RunConfig(experiment="visual-fit", space="hyperbolic_plane", metric="dbar",
                        n=15, seed=2, out=str(tmp_path / "v"))
    assert cli.run(cfg) == 0
    assert checks.check_outputs(cfg, cfg.out, 0) == []
    path = os.path.join(cfg.out, "visual_fit.json")
    fit = json.load(open(path))
    fit["k2"] *= 1 + 1e-6
    json.dump(fit, open(path, "w"))
    assert checks.check_outputs(cfg, cfg.out, 0)


def test_wrong_exit_code_or_verdict_is_a_failure(tmp_path):
    import visbound.cli as cli

    name = "tree-exact"
    configs = workloads.build_configs(workloads.WORKLOADS[name], "tiny", 1, str(tmp_path))
    _, runs = run.run_pass(cli, configs[:4])
    expected = EXPECTED["verdicts"]["tiny"][name]
    run.check_runs(runs, expected)
    assert [ex.problems for ex in runs] == [[]] * 4
    assert runs[3].rc == 2          # compare dA -> dbar is expected to exit 2

    wrong = [dict(e) for e in expected]
    wrong[3] = {**wrong[3], "exit": 0}
    wrong[2] = {**wrong[2], "verdicts": {"zero_violations": False}}
    _, runs = run.run_pass(cli, configs[:4])
    run.check_runs(runs, wrong)
    assert [bool(ex.problems) for ex in runs] == [False, False, True, True]


def test_tree_lcp_oracle():
    from visbound.spaces import TreeBoundary

    x = TreeBoundary((1, 2), (0,))
    y = TreeBoundary((1,), (2, 0))   # 1 2 0 2 0 ... against 1 2 0 0 0 ...
    assert checks.tree_branch_lcp(x, y) == 3
    assert math.isclose(checks.hyperbolic_dbar(0.0, math.pi), 2.0, rel_tol=1e-12)
