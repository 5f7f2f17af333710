import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import visbound
from visbound.cli import (ConfigError, RunConfig, _csv, _fmt, _pairs_csv, _spec, build_parser,
                          main, parse_space, run)
from visbound.metrics import pair_distance_matrix
from visbound.spaces import sample_boundary


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestConfig:
    def test_round_trip(self):
        cfg = RunConfig(experiment="metric", space="tree4", seed=3, n=10)
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"experiment": "metric", "bogus": 1})

    def test_validation_names_field(self):
        cfg = RunConfig(experiment="metric", metric="dX")
        with pytest.raises(ConfigError, match="metric"):
            cfg.validate()

    def test_every_field_round_trips_through_its_flag(self):
        values = {"experiment": "compare", "space": "tree5", "metric": "dA", "A": 0.75,
                  "metric2": "dbar", "A2": 3.5, "eta_slope": 1.25, "a": 2.5, "seed": 7,
                  "n": 33, "n_triples": 444, "scales": [0.5, 0.125], "R": 3.0, "K": 4,
                  "c": 2.0, "window": 9.5, "tol": 1e-8, "out": "somewhere"}
        names = [f.name for f in dataclasses.fields(RunConfig)]
        assert sorted(values) == sorted(names)
        argv = ["compare"]
        for name in names[1:]:
            v = values[name]
            argv += ["--" + name.replace("_", "-"),
                     ",".join(map(str, v)) if isinstance(v, list) else str(v)]
        args = build_parser().parse_args(argv)
        got = {name: getattr(args, name) for name in names}
        assert got == values
        assert all(type(got[k]) is type(values[k]) for k in names)
        with pytest.raises(SystemExit):
            build_parser().parse_args(["metric", "--metric2", "dX"])

    def test_parse_space(self):
        assert parse_space("euclidean3").dim == 3
        assert parse_space("tree5").valence == 5
        assert parse_space("hyperbolic_plane").kind == "hyperbolic_plane"
        with pytest.raises(ConfigError):
            parse_space("lobachevsky")


class TestSubcommands:
    def test_metric_writes_pairs(self, tmp_path):
        out = str(tmp_path / "m")
        rc = main(["metric", "--space", "tree4", "--metric", "dA", "--A", "1",
                   "--n", "12", "--seed", "2", "--out", out])
        assert rc == 0
        lines = open(os.path.join(out, "pairs.csv")).read().splitlines()
        assert lines[0] == "i,j,metric_family,A_or_blank,value"
        assert len(lines) == 1 + 12 * 11 // 2

    @pytest.mark.parametrize("space, metric, A", [("tree4", "dA", 0.7),
                                                  ("hyperbolic_plane", "dbar", 1.0),
                                                  ("euclidean2", "dA", 1.5)])
    def test_pairs_csv_equals_the_csv_writer(self, space, metric, A, tmp_path):
        # the one-pass writer against csv.writer over the same rows
        cfg = RunConfig(experiment="metric", space=space, metric=metric, A=A, n=25, seed=4,
                        out=str(tmp_path))
        assert run(cfg) == 0
        spec = _spec(cfg)
        D = pair_distance_matrix(parse_space(space), spec, sample_boundary(parse_space(space), 25, 4))
        a_field = _fmt(float(A)) if metric == "dA" else ""
        rows = [(i, j, metric, a_field, float(D[i, j])) for i in range(25) for j in range(i + 1, 25)]
        want = _csv(["i", "j", "metric_family", "A_or_blank", "value"], rows)
        with open(tmp_path / "pairs.csv") as fh:
            assert fh.read() == want

    @pytest.mark.parametrize("metric, a_field", [("dA", _fmt(0.7)), ("dbar", "")])
    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_pairs_writer_edge_cases(self, n, metric, a_field):
        # n=1 is the header alone; n=5 puts every special float in the triangle
        values = [0.0, -0.0, 5e-324, 1e-300, 1 / 3, 2.0, 1e300, math.inf, -math.inf, math.nan]
        I, J = np.triu_indices(n, k=1)
        D = np.zeros((n, n))
        D[I, J] = D[J, I] = values[:len(I)]
        rows = [(i, j, metric, a_field, float(D[i, j])) for i, j in zip(I.tolist(), J.tolist())]
        want = _csv(["i", "j", "metric_family", "A_or_blank", "value"], rows)
        assert _pairs_csv(D, f"{metric},{a_field}") == want

    def test_compare_identity(self, tmp_path):
        out = str(tmp_path / "c")
        rc = main(["compare", "--space", "tree4", "--metric", "dA", "--A", "1",
                   "--metric2", "dA", "--A2", "1", "--n-triples", "300",
                   "--seed", "2", "--out", out])
        assert rc == 0
        rep = read_json(os.path.join(out, "report.json"))
        assert rep["violations"] == 0

    def test_compare_violation_exit_code(self, tmp_path):
        # deliberately undersized control: dA(1) -> dA(2) needs slope 2
        out = str(tmp_path / "v")
        rc = main(["compare", "--space", "tree4", "--metric", "dA", "--A", "1",
                   "--metric2", "dA", "--A2", "2", "--eta-slope", "1.1",
                   "--n-triples", "2000", "--seed", "2", "--out", out])
        assert rc == 2

    def test_failing_verdicts_reported(self, tmp_path, capsys):
        # dA -> dbar on T4 is not controlled by a linear eta: exit code 2
        args = ["compare", "--space", "tree4", "--metric", "dA", "--A", "1",
                "--metric2", "dbar", "--n-triples", "2000", "--seed", "3"]
        assert main(args + ["--out", str(tmp_path / "m")]) == 2
        err = capsys.readouterr().err.splitlines()
        margin = read_json(str(tmp_path / "m" / "manifest.json"))["verdicts"]["worst_margin"]
        assert err == [f"verdict failed: zero_violations (worst_margin {margin:.17g})"]
        cfg = RunConfig.from_dict({"experiment": "compare", "space": "tree4", "metric": "dA",
                                   "A": 1.0, "metric2": "dbar", "n_triples": 2000,
                                   "seed": 3, "out": str(tmp_path / "r")})
        assert run(cfg) == 2
        assert capsys.readouterr() == ("", "")

    def test_passing_run_prints_nothing(self, tmp_path, capsys):
        assert main(["metric", "--space", "tree4", "--n", "6", "--out", str(tmp_path)]) == 0
        assert capsys.readouterr() == ("", "")

    def test_cover_pushout(self, tmp_path):
        out = str(tmp_path / "p")
        rc = main(["cover-pushout", "--space", "euclidean2", "--A", "1",
                   "--R", "2", "--n", "120", "--scales", "0.5,0.25",
                   "--seed", "2", "--out", out])
        assert rc == 0
        stats = open(os.path.join(out, "stats.csv")).read().splitlines()
        assert stats[0].startswith("lambda,order,mesh,lebesgue")
        assert all(line.endswith(",1") for line in stats[1:])
        cov = read_json(os.path.join(out, "cover.json"))
        assert set(cov) == {"ground", "sets"}

    def test_cover_pushin(self, tmp_path):
        out = str(tmp_path / "q")
        rc = main(["cover-pushin", "--space", "tree4", "--R", "2", "--K", "3",
                   "--window", "10", "--n", "50", "--n-triples", "3000",
                   "--seed", "2", "--out", out])
        assert rc == 0
        claims = read_json(os.path.join(out, "claims.json"))
        assert claims["color_disjoint"] and claims["mesh_ok"]

    def test_ell_dim(self, tmp_path):
        out = str(tmp_path / "e")
        scales = ",".join(f"{4 * math.exp(-k):.17g}" for k in range(1, 5))
        rc = main(["ell-dim", "--space", "tree4", "--metric", "dbar",
                   "--n", "150", "--scales", scales, "--seed", "2", "--out", out])
        assert rc == 0
        man = read_json(os.path.join(out, "manifest.json"))
        assert man["verdicts"]["estimate"] == 0

    def test_visual_fit(self, tmp_path):
        out = str(tmp_path / "vf")
        rc = main(["visual-fit", "--space", "tree4", "--metric", "dbar",
                   "--n", "80", "--seed", "2", "--out", out])
        assert rc == 0
        fit = read_json(os.path.join(out, "visual_fit.json"))
        assert fit["k1"] == 2.0 and fit["k2"] == 2.0

    def test_demo_t4(self, tmp_path):
        out = str(tmp_path / "d")
        rc = main(["demo-t4", "--n", "60", "--seed", "1", "--out", out])
        assert rc == 0
        names = set(os.listdir(out))
        assert {"nonvisual_dA.csv", "nonqs.csv", "perfectness_witnesses.csv",
                "visual_fit.json", "manifest.json"} <= names
        man = read_json(os.path.join(out, "manifest.json"))
        assert all(v is not False for v in man["verdicts"].values())


class TestReproducibility:
    def test_byte_identical_outputs(self, tmp_path):
        args = ["compare", "--space", "euclidean2", "--metric", "dA", "--A", "1",
                "--metric2", "dA", "--A2", "2", "--n-triples", "500", "--seed", "7"]
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(args + ["--out", out1]) == 0
        assert main(args + ["--out", out2]) == 0
        for name in ("envelope.csv", "report.json"):
            b1 = open(os.path.join(out1, name), "rb").read()
            b2 = open(os.path.join(out2, name), "rb").read()
            assert b1 == b2

    def test_pole_dbar_pairs_independent_of_blas_threads(self, tmp_path):
        # one interpreter per thread count: BLAS reads it at start-up
        src = os.path.dirname(os.path.dirname(visbound.__file__))
        hashes = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads, "MKL_NUM_THREADS": threads}
            out = tmp_path / threads
            proc = subprocess.run([sys.executable, "-m", "visbound.cli", "metric",
                                   "--space", "hyperbolic_plane", "--metric", "dbar",
                                   "--n", "100", "--seed", "0", "--out", str(out)],
                                  capture_output=True, text=True, env=env, timeout=300)
            assert proc.returncode == 0, proc.stderr
            hashes.add(hashlib.sha256((out / "pairs.csv").read_bytes()).hexdigest())
        assert len(hashes) == 1

    def test_config_hash_ignores_output_directory(self, tmp_path):
        args = ["metric", "--space", "tree4", "--n", "6", "--seed", "1"]
        hashes = []
        for name in ("a", "b"):
            assert main(args + ["--out", str(tmp_path / name)]) == 0
            man = read_json(str(tmp_path / name / "manifest.json"))
            assert man["config"]["out"] == str(tmp_path / name)
            hashes.append(man["config_sha256"])
        assert hashes[0] == hashes[1]
        assert main(args[:-1] + ["2", "--out", str(tmp_path / "c")]) == 0
        assert read_json(str(tmp_path / "c" / "manifest.json"))["config_sha256"] != hashes[0]

    def test_manifest_records_hash_and_versions(self, tmp_path):
        out = str(tmp_path / "m")
        main(["metric", "--space", "euclidean2", "--n", "5", "--seed", "1",
              "--out", out])
        man = read_json(os.path.join(out, "manifest.json"))
        assert len(man["config_sha256"]) == 64
        assert "numpy" in man["versions"] and "visbound" in man["versions"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"space": "tree4", "metric": "dA",
                                        "A": 1.0, "n": 8, "seed": 3,
                                        "out": str(tmp_path / "x")}))
        rc = main(["metric", "--config", str(cfg_path), "--n", "6"])
        assert rc == 0
        man = read_json(str(tmp_path / "x" / "manifest.json"))
        assert man["config"]["n"] == 6          # flag wins
        assert man["config"]["space"] == "tree4"


class TestErrorPaths:
    def test_bad_space_exits_one(self, tmp_path):
        assert main(["metric", "--space", "nope", "--out", str(tmp_path)]) == 1

    def test_bad_config_file_exits_one(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["metric", "--config", str(bad)]) == 1

    def test_pushout_requires_R_gt_A(self, tmp_path):
        rc = main(["cover-pushout", "--space", "tree4", "--A", "3", "--R", "2",
                   "--out", str(tmp_path)])
        assert rc == 1

    def test_pushin_tree_only(self, tmp_path):
        rc = main(["cover-pushin", "--space", "euclidean2", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["cover-pushout", "--space", "euclidean1", "--n", "3"],
        ["visual-fit", "--space", "euclidean2", "--n", "20"],
    ])
    def test_rejected_on_entry(self, argv, tmp_path):
        # a separate interpreter, so that a hang times out and a traceback shows
        src = os.path.dirname(os.path.dirname(visbound.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-m", "visbound.cli", *argv,
                               "--out", str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_run_validates(self):
        with pytest.raises(ConfigError):
            run(RunConfig(experiment="nope"))
