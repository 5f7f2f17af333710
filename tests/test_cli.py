import csv
import dataclasses
import functools
import hashlib
import importlib.util
import inspect
import json
import math
import os
import runpy
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import visbound
from visbound import cli, metrics
from visbound.cli import (ConfigError, RunConfig, _csv, _envelope_csv, _fmt, _pairs_csv, _spec,
                          build_parser, main, parse_space, run)
from visbound import covers
from visbound.covers import (Cover, LatticeBallSystem, RayPoints, ScaleSchedule,
                             annular_pushin_cover, boundary_pushout_cover, colored_boundary_cover,
                             sample_ray_points)
from visbound.metrics import MetricSpec, pair_distance_matrix, sample_metric
from visbound.quasisym import qs_envelope, ratio_pool
from visbound.spaces import (Ray, boundary_to_line, distinct_rows, euclidean_space, ray_point,
                             sample_boundary, substream, tree_space)

import template_cover_json as template
from ray_points import ray_points
from table_covers import table_greedy_net
from test_covers import _cover, _sets
from test_golden_outputs import GOLDEN
from test_quasisym import _BoundedRng


# the special floats, then edges of the `%.17g` digit kernel: 17-digit ties
# (k + 1/4 and k + 3/4 for k near 10^15 have 18 digits ending in 5), one
# ulp either side of powers of ten (where floor(log10 x) can be one off),
# the ends of the fixed-point range and trailing zeros
EDGE_FLOATS = [0.0, -0.0, 5e-324, 1e-300, 1 / 3, 2.0, 1e300, math.inf, -math.inf, math.nan,
               1000000000000000.25, 1000000000000000.75, 1999999999999999.75,
               math.nextafter(1e-3, 0), math.nextafter(1e-4, 0), 1e-4, math.nextafter(1e-4, 1),
               math.nextafter(1e-5, 0), 1e-5, math.nextafter(1.0, 0), 1.0, 0.1, 0.5, 123.0,
               math.nextafter(1e16, 0), 1e16, math.nextafter(1e16, math.inf),
               99999999999999984.0, 1e17, 2.2250738585072014e-308, 1.7976931348623157e308,
               -1.5, 4e-323, 6.02214076e23]


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
                  "metric2": "dbar", "A2": 3.5, "a": 2.5, "seed": 7,
                  "n": 33, "n_triples": 444, "scales": [0.5, 0.125], "R": 3.0, "K": 4,
                  "c": 2.0, "window": 9.5, "out": "somewhere"}
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

    # the 40 x 40 table is read in one block, in blocks of four rows against
    # four columns (the last pair inside the last block), or row by row
    @pytest.mark.parametrize("chunk", [8192, 160, 7])
    @pytest.mark.parametrize("entry", [None, (37, 3), (3, 37), (39, 38)])
    def test_symmetry_verdict_reads_every_block(self, chunk, entry, monkeypatch):
        real = cli.pair_distance_matrix

        def skewed(*args, **kwargs):
            D = real(*args, **kwargs)
            if entry:
                D[entry] += 1.0
            return D

        monkeypatch.setattr(cli, "pair_distance_matrix", skewed)
        monkeypatch.setattr(metrics, "_PAIR_CHUNK", chunk)
        verdicts, _ = cli.run_metric(RunConfig(experiment="metric", space="euclidean2",
                                               metric="dA", n=40, seed=1))
        assert verdicts["matrix_symmetric"] is (entry is None)
        assert verdicts["diagonal_zero"]

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
        with open(tmp_path / "pairs.csv", "rb") as fh:
            assert fh.read() == want

    @pytest.mark.parametrize("metric, a_field", [("dA", _fmt(0.7)), ("dbar", "")])
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9])
    def test_pairs_writer_edge_cases(self, n, metric, a_field):
        # n=1 is the header alone; n=5 puts every special float in the
        # triangle, n=9 also the digit-kernel edges
        I, J = np.triu_indices(n, k=1)
        D = np.zeros((n, n))
        D[I, J] = D[J, I] = np.resize(EDGE_FLOATS, len(I))
        rows = [(i, j, metric, a_field, float(D[i, j])) for i, j in zip(I.tolist(), J.tolist())]
        want = _csv(["i", "j", "metric_family", "A_or_blank", "value"], rows)
        assert b"".join(_pairs_csv(D, f"{metric},{a_field}")) == want

    @pytest.mark.parametrize("space, metric, A, metric2", [("tree4", "dA", 0.7, "dA"),
                                                           ("tree4", "dA", 1.0, "dbar"),
                                                           ("hyperbolic_plane", "dA", 1.0, "dbar")])
    def test_envelope_csv_equals_the_csv_writer(self, space, metric, A, metric2, tmp_path):
        cfg = RunConfig(experiment="compare", space=space, metric=metric, A=A, metric2=metric2,
                        n_triples=300, seed=4, out=str(tmp_path))
        run(cfg)
        pool = ratio_pool(parse_space(space), _spec(cfg, 1), _spec(cfg, 2), 300, 4)
        env = qs_envelope(pool, 300, 4)
        rows = [(t, rho, f"{i}:{j}:{k}") for t, rho, (i, j, k) in env.entries]
        with open(tmp_path / "envelope.csv", "rb") as fh:
            assert fh.read() == _csv(["t", "rho", "triple_ids"], rows)

    def test_envelope_writer_edge_cases(self):
        values = EDGE_FLOATS
        entries = [(t, rho, (i, 10 * i, 100 * i)) for i, (t, rho) in
                   enumerate(zip(values, values[::-1]))]
        rows = [(t, rho, f"{i}:{j}:{k}") for t, rho, (i, j, k) in entries]
        assert _envelope_csv(entries) == _csv(["t", "rho", "triple_ids"], rows)
        assert _envelope_csv([]) == _csv(["t", "rho", "triple_ids"], [])

    def test_compare_identity(self, tmp_path):
        out = str(tmp_path / "c")
        rc = main(["compare", "--space", "tree4", "--metric", "dA", "--A", "1",
                   "--metric2", "dA", "--A2", "1", "--n-triples", "300",
                   "--seed", "2", "--out", out])
        assert rc == 0
        rep = read_json(os.path.join(out, "report.json"))
        assert rep["violations"] == 0

    def test_compare_violation_exit_code(self, tmp_path):
        # the control of a change of A has the derived slope A2/A either way
        # round, here the float 1.3, and holds: no violation, exit code 0
        for A, A2 in (("1", "1.3"), ("1.3", "1")):
            out = str(tmp_path / A)
            rc = main(["compare", "--space", "tree4", "--metric", "dA", "--A", A,
                       "--metric2", "dA", "--A2", A2, "--n-triples", "2000", "--seed", "2",
                       "--out", out])
            rep = read_json(os.path.join(out, "report.json"))
            assert (rc, rep["violations"], rep["eta_slope"]) == (0, 0, 1.3)

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

    def test_pushin_order_bound_reads_the_color_count(self, tmp_path, monkeypatch):
        # each cylinder doubled in a second color: a boundary cover in two
        # colors (n = 1), each color class disjoint, so the tubes at one
        # scale overlap twice, the bands twice more, and the order reaches
        # 2n + 2 = 4
        def two_colors(space, lam, sample):
            cover = colored_boundary_cover(space, lam, sample)
            m = len(cover.colors)
            return Cover(cover.n, np.concatenate([cover.set_of, cover.set_of + m]),
                         np.concatenate([cover.point_of] * 2), cover.colors + (1,) * m,
                         tuple((texts, np.concatenate([codes] * 2))
                               for texts, codes in cover.descriptor))

        monkeypatch.setattr(cli, "colored_boundary_cover", two_colors)
        out = str(tmp_path / "q")
        rc = main(["cover-pushin", "--space", "tree4", "--R", "2", "--K", "3",
                   "--window", "10", "--n", "50", "--n-triples", "3000",
                   "--seed", "2", "--out", out])
        verdicts = read_json(os.path.join(out, "manifest.json"))["verdicts"]
        assert verdicts["order"] == 4 and verdicts["color_disjoint"]
        assert verdicts["order_le_2n_plus_2"] is True
        assert rc == 0

    def test_pushin_gathers_parts_of_every_count_and_width(self, tmp_path, monkeypatch):
        # the scales' colored covers hold one str part, no part, the
        # cylinders' three parts, and a part three codes wide with a gap
        # before a str part: each tube's text is its set's, in brackets
        made = []

        def colored(space, lam, sample):
            # called for k = 1, 2, ... in turn
            cover = colored_boundary_cover(space, lam, sample)
            wide = np.array([[s % 2, -1, (s + 1) % 2] for s in range(len(cover.colors))])
            descriptor = [("one part",), (), cover.descriptor, ((("a", "b"), wide), "!")]
            made.append(Cover(cover.n, cover.set_of, cover.point_of, cover.colors,
                              descriptor[len(made)]))
            return made[-1]

        built = []

        def pushin(*args):
            built.append(args)
            return annular_pushin_cover(*args)

        monkeypatch.setattr(cli, "colored_boundary_cover", colored)
        monkeypatch.setattr(cli, "annular_pushin_cover", pushin)
        out = str(tmp_path / "q")
        assert main(["cover-pushin", "--space", "tree4", "--R", "1", "--K", "4",
                     "--window", "6", "--n", "40", "--n-triples", "2000",
                     "--seed", "2", "--out", out]) == 0
        space, sched, covers_by_k, sample, interior = built[0]
        assert [covers_by_k[k] for k in range(1, 5)] == made
        assert [len(c.descriptor) for c in made] == [1, 0, 3, 2]
        texts = {k: [c.describe(u) for u in range(len(c.colors))] for k, c in covers_by_k.items()}
        assert texts[1][0] == "one part" and texts[2][0] == "" and texts[4][:2] == ["ab!", "ba!"]
        want = template.pushin_descriptors(space, sched, covers_by_k, texts, sample, interior)
        written = read_json(os.path.join(out, "cover.json"))["sets"]
        assert [s["descriptor"] for s in written] == want
        assert {t[:len("tube k=1")] for t in want[:-1]} == {f"tube k={k}" for k in range(1, 5)}
        # one part per part index: the heads, three gathered, the bracket
        cover, _ = annular_pushin_cover(*built[0])
        assert len(cover.descriptor) == 5
        assert [cover.describe(s) for s in range(len(cover.colors))] == want

    def test_ell_dim(self, tmp_path):
        out = str(tmp_path / "e")
        scales = ",".join(f"{4 * math.exp(-k):.17g}" for k in range(1, 5))
        rc = main(["ell-dim", "--space", "tree4", "--metric", "dbar",
                   "--n", "150", "--scales", scales, "--seed", "2", "--out", out])
        assert rc == 0
        man = read_json(os.path.join(out, "manifest.json"))
        assert man["verdicts"]["estimate"] == 0

    @pytest.mark.parametrize("c,judged", [("1", 4.0), ("6", 6.0)])
    def test_ell_dim_records_the_constant_judged(self, c, judged, tmp_path):
        # a c below 4 is judged at 4, and the verdicts say so next to the c given
        out = str(tmp_path / "e")
        assert main(["ell-dim", "--space", "tree4", "--metric", "dbar", "--n", "60",
                     "--scales", "1.47,0.54", "--c", c, "--out", out]) == 0
        man = read_json(os.path.join(out, "manifest.json"))
        assert man["config"]["c"] == float(c) and man["verdicts"]["c_judged"] == judged
        with open(os.path.join(out, "stats.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["bound_mesh"]) for r in rows] == [judged * 1.47, judged * 0.54]

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


def _reference_draw_pairs(n, count, rng):
    # one size=2 draw per pair
    pairs = []
    while len(pairs) < count:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.append((int(i), int(j)))
    return pairs


class TestDrawPairs:
    """`distinct_rows` at width 2, the pair draw of visual-fit and demo-t4,
    against one `size=2` call per pair."""

    @pytest.mark.parametrize("n", [2, 3, 1000])
    @pytest.mark.parametrize("count", [0, 1, 1000])
    def test_pairs_equal_the_loop(self, n, count):
        for seed in range(3):
            rng, ref = substream(seed, "visual-pairs"), substream(seed, "visual-pairs")
            got = distinct_rows(n, count, 2, rng)
            assert got.dtype == np.int64 and got.shape == (count, 2)
            assert [tuple(row) for row in got.tolist()] == _reference_draw_pairs(n, count, ref)

    def test_one_point_has_no_pair(self):
        # the redraw loop never returned
        assert distinct_rows(1, 0, 2, _BoundedRng()).shape == (0, 2)
        with pytest.raises(ValueError, match="from 1 points"):
            distinct_rows(1, 1, 2, _BoundedRng())


def _assert_same_lines(got: bytes, want: bytes):
    # the first differing line, not a diff of the whole text
    got, want = got.split(b"\n"), want.split(b"\n")
    assert next(((k, a, b) for k, (a, b) in enumerate(zip(got, want)) if a != b), None) is None
    assert len(got) == len(want)


def _assert_printf_text(values):
    """The CSV kernel writes each value as `'%.17g' % x` does."""
    values = np.asarray(values, np.float64)
    _assert_same_lines(cli._text_rows([(values, "\n")], bytearray()),
                       "".join("%.17g\n" % v for v in values.tolist()).encode())


class TestFloatText:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                    min_size=1, max_size=40))
    def test_any_float(self, values):
        _assert_printf_text(values)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=1e-5, max_value=1e17), min_size=1, max_size=40))
    def test_fixed_point_range(self, values):
        _assert_printf_text(values)

    def test_random_bit_patterns(self):
        # random mantissas at binary exponents from -20 to 60
        rng = np.random.default_rng(17)
        bits = (rng.integers(1023 - 20, 1023 + 61, 100_000).astype(np.uint64) << np.uint64(52)
                | rng.integers(0, 2**52, 100_000, dtype=np.uint64))
        values = bits.view(np.float64)
        assert values.min() >= 2.0**-20 and values.max() < 2.0**61
        _assert_printf_text(values)

    def test_exact_ties_round_to_even(self):
        # k + 1/4 and k + 3/4 have 18 significant digits ending in 5
        k = np.random.default_rng(5).integers(10**15, 2 * 10**15, 20_000).astype(np.float64)
        values = np.concatenate([k + 0.25, k + 0.75])
        assert "%.17g" % 1000000000000000.25 == "1000000000000000.2"
        _assert_printf_text(values)

    def test_ulps_around_powers_of_ten(self):
        # where floor(log10 x) can be one off
        values = []
        for e in range(-5, 18):
            v = below = above = float(f"1e{e}")
            values.append(v)
            for _ in range(3):
                below, above = math.nextafter(below, 0), math.nextafter(above, math.inf)
                values += [below, above]
        # 17 digits tell every double apart, so none below 10^e prints as 10^e
        assert "%.17g" % math.nextafter(1e-4, 0) == "9.9999999999999991e-05"
        assert "%.17g" % math.nextafter(1000.0, 0) == "999.99999999999989"
        _assert_printf_text(values)

    @pytest.mark.parametrize("n", [1, 2, 10, 11, 9999, 10000, 10001, 123457])
    def test_int_fields(self, n):
        # one and two words of text, each with its separator, next to a
        # float field
        idx = np.unique(np.r_[0, n - 1, np.random.default_rng(n).integers(0, n, 500)])
        colon = cli._word_table([f"{i}:" for i in range(n)])
        end = cli._word_table([f"{i}\n" for i in range(n)])
        # the last row of each table is empty
        assert len(colon) == n + 1 and not colon[-1].any() and not end[-1].any()
        got = cli._text_rows([(colon, idx), (idx / 7, ","), (end, idx[::-1])], bytearray())
        _assert_same_lines(got, "".join("%d:%.17g,%d\n" % (i, i / 7, j)
                                        for i, j in zip(idx.tolist(), idx[::-1].tolist())).encode())

    @staticmethod
    def _pairs_text_equals_csv(values, monkeypatch, lines):
        """pairs.csv of a table whose upper triangle holds `values` in row
        order, in blocks of `lines` lines, against `_csv` of its rows."""
        n = next(n for n in range(2, 10**4) if n * (n - 1) // 2 >= len(values))
        I, J = np.triu_indices(n, k=1)
        D = np.zeros((n, n))
        D[I, J] = np.resize(values, len(I))
        monkeypatch.setattr(cli, "_LINES", lines)
        rows = [(i, j, "dA", "1", float(D[i, j])) for i, j in zip(I.tolist(), J.tolist())]
        _assert_same_lines(b"".join(_pairs_csv(D, "dA,1")),
                           _csv(["i", "j", "metric_family", "A_or_blank", "value"], rows))

    @pytest.mark.parametrize("lines", [41, 300, 2**12])
    def test_every_exponent_beside_values_written_by_printf(self, lines, monkeypatch):
        # every fixed-point exponent E in [-4, 16], with and without trailing
        # zeros, integers among them, and the values `%` writes, the longest
        # texts too, shuffled: in one block, and cut at block edges that
        # split the exponents
        rng = np.random.default_rng(28)
        values = [-1.7976931348623157e308, -2.2250738585072014e-308]
        for e in range(-4, 17):
            values += [10.0 ** e, 1.25 * 10.0 ** e, float(rng.uniform(1, 10)) * 10.0 ** e,
                       math.nextafter(10.0 ** e, math.inf), math.nextafter(10.0 ** e, 0)]
        values = np.array(values + EDGE_FLOATS * 3)
        rng.shuffle(values)
        exponents = np.floor(np.log10(values[(values >= 1e-4) & (values < 1e17)]))
        assert set(exponents.tolist()) >= set(range(-4, 17))
        self._pairs_text_equals_csv(values, monkeypatch, lines)

    @pytest.mark.parametrize("order", [1, -1])
    def test_narrow_block_beside_a_wide_one(self, order, monkeypatch):
        # a block's words follow its own exponents: one block of values
        # below 1000, one of them a longest text of `%`, and one of values
        # of 17 integer digits, either first
        rng = np.random.default_rng(5)
        narrow = rng.uniform(1e-4, 999.0, 64)
        narrow[9] = -1.7976931348623157e308
        wide = rng.uniform(1e16, 1e17, 64)
        self._pairs_text_equals_csv(np.concatenate([narrow, wide][::order]), monkeypatch, 64)

    @pytest.mark.parametrize("lines", [1, 7, 2**12, 2**13, None])
    def test_block_size_does_not_change_the_text(self, lines, monkeypatch):
        # 150 points give 11,175 lines: three blocks of 2^12, two of 2^13, and 4-digit
        # line counts; every few lines a special float
        D = pair_distance_matrix(parse_space("euclidean2"), _spec(RunConfig(metric="dA")),
                                 sample_boundary(parse_space("euclidean2"), 150, 3))
        D[0, ::3] = np.resize(EDGE_FLOATS, 50)
        monkeypatch.setattr(cli, "_LINES", lines or 10**9)
        I, J = np.triu_indices(150, k=1)
        rows = [("%d" % i, "%d" % j, "dA", "1", float(D[i, j]))
                for i, j in zip(I.tolist(), J.tolist())]
        blocks = list(_pairs_csv(D, "dA,1"))
        assert len(blocks) == 1 + -(-len(rows) // (lines or 10**9))
        _assert_same_lines(b"".join(blocks),
                           _csv(["i", "j", "metric_family", "A_or_blank", "value"], rows))

    def test_pairs_write_transient_memory(self, tmp_path):
        # the file is streamed block by block: writing it never holds its
        # whole text
        space = parse_space("euclidean2")
        D = pair_distance_matrix(space, _spec(RunConfig(metric="dA")),
                                 sample_boundary(space, 400, 0))
        path = str(tmp_path / "pairs.csv")
        tracemalloc.start()
        try:
            cli._atomic_write(path, _pairs_csv(D, "dA,1"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < os.path.getsize(path)


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

    @pytest.mark.parametrize("fields,message", [
        (dict(experiment="cover-pushin", K=2), "window must be below"),
        (dict(experiment="cover-pushin", window=14.125), "window must be below"),
        (dict(experiment="cover-pushin", R=2.5), "integer R"),
        (dict(experiment="cover-pushout", A=2.0, R=2.0), "R > A"),
    ], ids=["pushin-K", "pushin-window", "pushin-R", "pushout-R"])
    def test_experiment_rules_in_validate(self, fields, message):
        # each rule is its experiment's own: another experiment takes the
        # same fields
        with pytest.raises(ConfigError, match=message):
            RunConfig(**fields).validate()
        RunConfig(**{**fields, "experiment": "metric"}).validate()

    @pytest.mark.parametrize("fields,message", [
        (dict(experiment="compare", A2=-1.0), "A2 must be positive"),
        (dict(experiment="compare", A2=0.0), "A2 must be positive"),
        (dict(experiment="visual-fit", a=0.5), "a must exceed 1"),
        (dict(experiment="visual-fit", a=1.0), "a must exceed 1"),
    ])
    def test_A2_and_a_checked_in_validate(self, fields, message):
        # before sampling, not where `MetricSpec` or `visual_fit` reads them
        with pytest.raises(ConfigError, match=message):
            RunConfig(**fields).validate()

    @pytest.mark.parametrize("window", ["0.1", "-3", "0"])
    def test_window_without_a_dyadic_radius_rejected(self, window, tmp_path, capsys):
        rc = main(["cover-pushin", "--space", "tree4", "--n", "10", "--n-triples", "100",
                   f"--window={window}", "--out", str(tmp_path / "w")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: window") and "Traceback" not in err

    def test_smallest_window_accepted(self, tmp_path):
        assert main(["cover-pushin", "--space", "tree4", "--n", "10", "--n-triples", "100",
                     "--window", "0.125", "--out", str(tmp_path / "w")]) == 0

    def test_pushin_tree_only(self, tmp_path):
        rc = main(["cover-pushin", "--space", "euclidean2", "--out", str(tmp_path)])
        assert rc == 1

    @pytest.mark.parametrize("argv", [
        ["cover-pushout", "--space", "euclidean1", "--n", "3"],
        ["cover-pushout", "--space", "hyperbolic_plane", "--n", "3"],
        ["visual-fit", "--space", "euclidean2", "--n", "20"],
        ["cover-pushout", "--space", "tree4", "--n", "20", "--config", {"scales": []}],
        ["ell-dim", "--space", "tree4", "--n", "20", "--config", {"scales": []}],
        ["compare", "--space", "tree4", "--n-triples", "100", "--A2", "-1"],
        ["metric", "--metric", "dA", "--A", "nan", "--n", "5"],
        ["metric", "--metric", "dA", "--A", "inf", "--n", "5"],
        ["ell-dim", "--space", "tree4", "--n", "20", "--scales", "nan"],
        ["cover-pushout", "--space", "tree4", "--n", "20", "--R", "inf"],
        ["ell-dim", "--space", "tree4", "--n", "20", "--config", {"scales": [0.5, math.inf]}],
        ["visual-fit", "--space", "tree4", "--n", "1"],
        ["metric", "--space", "tree4", "--n", "5", "--seed=-1"],
        ["metric", "--space", "tree4", "--n", "5", "--config", {"seed": 1.5}],
        # a fractional n hung the sampler; True ran as n = 1
        ["metric", "--space", "tree4", "--config", {"n": 10.5}],
        ["metric", "--space", "tree4", "--config", {"n": True}],
        ["compare", "--space", "tree4", "--config", {"n_triples": 2.5}],
        ["cover-pushin", "--space", "tree4", "--n", "10", "--config", {"K": 2.5}],
        # radii drawn at (K+2)R or beyond, which no tube holds
        ["cover-pushin", "--space", "tree4", "--n", "10", "--K", "2"],
        ["cover-pushin", "--space", "tree4", "--n", "10", "--window", "14.125"],
        ["visual-fit", "--space", "tree4", "--n", "20", "--a", "0.5"],
    ])
    def test_rejected_on_entry(self, argv, tmp_path):
        # a separate interpreter, so that a hang times out and a traceback
        # shows; a dict in argv is written to a config file first
        src = os.path.dirname(os.path.dirname(visbound.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        config = tmp_path / "config.json"
        for a in argv:
            if isinstance(a, dict):
                config.write_text(json.dumps(a))
        argv = [str(config) if isinstance(a, dict) else a for a in argv]
        proc = subprocess.run([sys.executable, "-m", "visbound.cli", *argv,
                               "--out", str(tmp_path / "out")],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["metric", "--metric", "foo"],
        ["ell-dim", "--scales", ""],
        ["metric", "--tol", "1e-3"],
        ["nope"],
        # the compare slope is derived from A and A2, not a setting
        ["compare", "--eta-slope", "1.1"],
    ])
    def test_usage_error_exits_one(self, argv, tmp_path, capsys):
        # exit 2 is kept for a violated bound
        assert main(argv + ["--out", str(tmp_path)]) == 1
        assert "error:" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    def test_help_exits_zero(self, capsys):
        assert main(["metric", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage:")

    def test_run_validates(self):
        with pytest.raises(ConfigError):
            run(RunConfig(experiment="nope"))


# descriptor and ground texts that JSON must escape, and some it need not
_TEXT = st.one_of(st.text(max_size=12),
                  st.sampled_from(['say "hi"', "back\\slash", "two\nlines", "\u2202X \u00e9 \U0001d538",
                                   "tab\tand\x00nul", ""]))


@st.composite
def _written_covers(draw):
    """(ground texts, sets as (members, color, descriptor)) of a cover."""
    ground = draw(st.lists(_TEXT, max_size=5))
    members = st.lists(st.integers(0, max(0, len(ground) - 1)), max_size=4 if ground else 0,
                       unique=True).map(lambda m: tuple(sorted(m)))
    sets = draw(st.lists(st.tuples(members, st.sampled_from([None, 0, 1]), _TEXT), max_size=4))
    return ground, sets


def _tree_point_text(p):
    """The text "word@offset" of a point of a tree, the vertex word joined
    by dots."""
    return ".".join(str(a) for a in p.word) + f"@{p.offset}"


def _dumps_cover(ground_text, sets):
    return json.dumps({"ground": ground_text,
                       "sets": [{"members": list(members), "color": color,
                                 "descriptor": descriptor}
                                for members, color, descriptor in sets]},
                      sort_keys=True, indent=2) + "\n"


class TestSortedBoundaryRuns:
    # on an ordered boundary the cover verdicts read the sample metric and
    # build no n x n table
    @pytest.mark.parametrize("fields", [
        dict(experiment="ell-dim", space="euclidean2", metric="dA", A=1.0, n=300),
        dict(experiment="ell-dim", space="hyperbolic_plane", metric="dbar", n=300),
        dict(experiment="ell-dim", space="tree4", metric="dbar", n=300,
             scales=[4.0 * math.exp(-k) for k in range(1, 9)]),
        dict(experiment="cover-pushout", space="euclidean2", A=1.0, R=2.0, n=200),
        dict(experiment="cover-pushout", space="tree4", A=1.0, R=2.0, n=60),
    ], ids=["ell-dim-R2", "ell-dim-H2", "ell-dim-T4", "pushout-R2", "pushout-T4"])
    def test_no_pair_table_is_built(self, fields, monkeypatch, tmp_path):
        want_dir, got_dir = tmp_path / "want", tmp_path / "got"
        assert run(RunConfig.from_dict({**fields, "seed": 2, "out": str(want_dir)})) == 0

        def refuse(*args, **kwargs):
            raise AssertionError("an n x n table was built")

        for module, name in ((metrics, "pair_table"), (metrics, "pair_distance_matrix"),
                             (cli, "pair_distance_matrix"), (covers, "pair_table")):
            monkeypatch.setattr(module, name, refuse)
        assert run(RunConfig.from_dict({**fields, "seed": 2, "out": str(got_dir)})) == 0
        for name in sorted(os.listdir(want_dir)):
            if name != "manifest.json":
                assert (got_dir / name).read_bytes() == (want_dir / name).read_bytes()


def _written(ground, cover):
    """The cover.json text `cli._cover_json` writes, its blocks joined."""
    return b"".join(cli._cover_json(ground, cover)).decode("ascii")


@functools.cache
def _oracle_covers() -> dict:
    """name -> (ground texts, cover, each set's reference descriptor) for
    each cover construction, with the reference texts of
    template_cover_json; built once, when a test first reads it."""
    T4, E2, E3 = tree_space(4), euclidean_space(2), euclidean_space(3)
    out = {}
    for name, space, n, lam in (("pushout-T4-root", T4, 30, 0.5),
                                ("pushout-T4-deep", T4, 12, 1 / 16),
                                ("pushout-R2", E2, 40, 1 / 8), ("pushout-R3", E3, 50, 1 / 64)):
        sample = sample_boundary(space, n, 4)
        system = LatticeBallSystem(space, 2)
        out[name] = ([boundary_to_line(space, xi) for xi in sample],
                     boundary_pushout_cover(space, system, lam, 1, sample),
                     template.pushout_descriptors(space, system, lam, sample))
    sample = sample_boundary(T4, 40, 4)
    ground = [boundary_to_line(T4, xi) for xi in sample]
    for lam in (3.9, 4 * math.exp(-2)):
        out[f"cylinders-{lam:.3g}"] = (ground, colored_boundary_cover(T4, lam, sample),
                                       template.cylinder_descriptors(lam, sample))
    circle = sample_boundary(E2, 200, 4)
    out["arcs"] = ([boundary_to_line(E2, xi) for xi in circle],
                   colored_boundary_cover(E2, 0.25, circle), template.arc_descriptors(0.25))
    for name, space, spec in (("net-balls-ordered", T4, MetricSpec("dbar")),
                              ("net-balls-rows", E3, MetricSpec("dA", A=1))):
        boundary = sample_boundary(space, 60, 4)
        metric = sample_metric(space, spec, boundary)
        net = covers._greedy_net(metric, 0.3, 0.6, np.random.default_rng(4))
        table = table_greedy_net(pair_distance_matrix(space, spec, boundary), 0.3, 0.6,
                                 np.random.default_rng(4))
        # a net cover has no descriptor: its sets are the table net's
        assert np.array_equal(net.set_of, table.set_of), name
        assert np.array_equal(net.point_of, table.point_of), name
        out[name] = ([boundary_to_line(space, xi) for xi in boundary], net,
                     [""] * len(table.colors))
    sched = ScaleSchedule(R=2, K=3, c=1.0)
    colored = {k: colored_boundary_cover(T4, sched.lam(k), sample) for k in range(1, 4)}
    drawn = sample_ray_points(sample, 10, 300, 4)
    # no point below radius 2R = 4: the base ball has no members
    keep = drawn.num >= 4 * drawn.den
    interior = RayPoints(drawn.ray[keep], drawn.num[keep], drawn.den)
    cover, _ = annular_pushin_cover(T4, sched, colored, sample, interior)
    texts = {k: template.cylinder_descriptors(sched.lam(k), sample) for k in colored}
    out["pushin-empty-base"] = (cli._interior_text(sample, interior), cover,
                                template.pushin_descriptors(T4, sched, colored, texts, sample,
                                                            interior))
    return out


ORACLE_COVERS = ("pushout-T4-root", "pushout-T4-deep", "pushout-R2", "pushout-R3",
                 "cylinders-3.9", "cylinders-0.541", "arcs", "net-balls-ordered", "net-balls-rows",
                 "pushin-empty-base")


class TestCoverJson:
    @settings(max_examples=300, deadline=None)
    @given(_written_covers())
    @example(([], []))
    @example(([], [((), None, "base ball radius=4")]))
    @example((['a "b"', "c\\d", "e\nf", "\u00e9\u2202"],
              [((0, 3), 0, 'q"uote'), ((), 1, "back\\slash\n"),
               ((1, 2, 3), None, "\u2202X \U0001d538")]))
    def test_equals_json_dumps(self, case):
        ground, sets = case
        cover = _cover(len(ground), [m for m, _, _ in sets], [c for _, c, _ in sets],
                       [d for _, _, d in sets])
        assert _written(ground, cover) == _dumps_cover(ground, sets) \
            == template.template_cover_json(ground, sets)

    @pytest.mark.parametrize("lines", [None, 1, 7])
    @pytest.mark.parametrize("name", ORACLE_COVERS)
    def test_constructions_equal_the_template_and_json_dumps(self, name, lines, monkeypatch):
        # every construction's sets, their descriptors read from the keys
        # set by set, in blocks of the default size, of 1 line and of 7
        ground, cover, descriptors = _oracle_covers()[name]
        if lines:
            monkeypatch.setattr(cli, "_LINES", lines)
        assert [cover.describe(s) for s in range(len(cover.colors))] == descriptors
        sets = template.cover_sets(cover, descriptors)
        assert _written(ground, cover) == template.template_cover_json(ground, sets) \
            == _dumps_cover(ground, sets)

    def test_oracle_covers_reach_every_case(self):
        assert tuple(_oracle_covers()) == ORACLE_COVERS
        covers_by_name = {name: (cover, texts)
                          for name, (_, cover, texts) in _oracle_covers().items()}
        texts = [t for _, _, ts in _oracle_covers().values() for t in ts]
        # root and one-letter centers, negative lattice centers, int colors,
        # an empty set, a cover of several blocks and both net routes
        assert "pushout lam=0.5 center=()" in texts
        assert any(t.endswith(",)") and t.startswith("pushout lam=0.5") for t in texts)
        assert any("(-" in t for t in covers_by_name["pushout-R2"][1])
        assert any(", -" in t for t in covers_by_name["pushout-R3"][1])
        assert any(t.startswith("cylinder depth=1 word=(") and t.endswith(",)") for t in texts)
        assert {c for cover, _ in covers_by_name.values() for c in cover.colors} == {None, 0, 1}
        pushin = covers_by_name["pushin-empty-base"][0]
        assert pushin.bounds[-2] == pushin.bounds[-1] and pushin.colors[-1] is None
        assert len(covers_by_name["pushout-R3"][0].point_of) > cli._LINES
        metric_orders = [sample_metric(space, spec, sample_boundary(space, 60, 4)).order
                         for space, spec in ((tree_space(4), MetricSpec("dbar")),
                                             (euclidean_space(3), MetricSpec("dA", A=1)))]
        assert metric_orders[0] is not None and metric_orders[1] is None

    def test_written_covers_equal_json_dumps(self):
        T4 = tree_space(4)
        sample = sample_boundary(T4, 40, 1)
        sched = ScaleSchedule(R=2, K=3, c=1.0)
        covers = {k: colored_boundary_cover(T4, sched.lam(k), sample) for k in range(1, 4)}
        interior = sample_ray_points(sample, 10, 300, 1)
        cover, _ = annular_pushin_cover(T4, sched, covers, sample, interior)
        ground = [_tree_point_text(ray_point(Ray(T4, T4.basepoint, sample[i]), Fraction(a, 8)))
                  for i, a in zip(interior.ray.tolist(), interior.num.tolist())]
        assert _written(ground, cover) == _dumps_cover(ground, _sets(cover))
        ground = [boundary_to_line(T4, g) for g in sample]
        assert _written(ground, covers[2]) == _dumps_cover(ground, _sets(covers[2]))

    @pytest.mark.parametrize("k", [3, 4])
    def test_interior_text_equals_the_walked_point(self, k):
        # dyadic radii from the pushin's sampler, which hit 0 and integers,
        # and thirds, whose offsets are not dyadic
        space = tree_space(k)
        sample = sample_boundary(space, 30, 5)
        drawn = sample_ray_points(sample, 12, 400, 5)
        pairs = [(i, Fraction(a, 8)) for i, a in zip(drawn.ray.tolist(), drawn.num.tolist())]
        pairs += [(i, Fraction(num, 3)) for i in (0, 7) for num in range(0, 20)]
        assert {r for _, r in pairs} >= {Fraction(0), Fraction(1), Fraction(5, 8)}
        walked = [_tree_point_text(ray_point(Ray(space, space.basepoint, sample[i]), r))
                  for i, r in pairs]
        # the drawn eighths as they are, and all the points over 24ths
        assert cli._interior_text(sample, drawn) == walked[:len(drawn.ray)]
        assert cli._interior_text(sample, ray_points(pairs)) == walked

    def test_empty_base_ball_is_written(self):
        # no interior sample lies below radius 2R = 4, yet the base ball is
        # written, with no members, and the ground is not covered
        T4 = tree_space(4)
        sched = ScaleSchedule(R=2, K=1, c=1.0)
        sample = sample_boundary(T4, 20, 1)
        colored = {1: colored_boundary_cover(T4, sched.lam(1), sample)}
        interior = ray_points([(0, Fraction(9, 2)), (3, Fraction(7)), (5, Fraction(5))])
        cover, claims = annular_pushin_cover(T4, sched, colored, sample, interior)
        written = json.loads(_written(cli._interior_text(sample, interior), cover))
        words = [".".join(map(str, sample[i].prefix(d))) for i, d in ((0, 5), (3, 7), (5, 5))]
        assert written["ground"] == [words[0] + "@1/2", words[1] + "@0", words[2] + "@0"]
        assert written["sets"][-1] == {"color": None, "descriptor": "base ball radius=4",
                                       "members": []}
        assert claims["covers_ground"] is False


SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")
# each script and the run directories it writes under out/
SCRIPT_OUTPUTS = {
    "run_demo_t4.py": ["demo-t4"],
    "run_ell_dim.py": ["ell-dim-circle", "ell-dim-tree4"],
    "run_pushin.py": ["pushin-tree4"],
    "run_pushout.py": ["pushout-euclidean2", "pushout-tree4"],
}


class TestScripts:
    def test_every_script_listed(self):
        assert sorted(f for f in os.listdir(SCRIPTS) if f.endswith(".py")) == \
            sorted([*SCRIPT_OUTPUTS, "l3_probe.py", "byte_identity.py", "src_lines.py",
                    "line_trace.py"])

    def test_line_trace_lists_what_one_config_skips(self):
        proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "line_trace.py"),
                               "golden metric-dbar"],
                              capture_output=True, text=True, check=True, timeout=120)
        *listed, count = proc.stdout.splitlines()
        assert count == f"{len(listed)} statements in functions of src/visbound not " \
                        f"executed by 1 configs"
        where = {line.split(": ", 1)[0] for line in listed}
        # a `metric` run builds no net, and runs all of `run_metric`
        lines, start = inspect.getsourcelines(covers._row_net)
        assert f"src/visbound/covers.py:{start + len(lines) - 1}" in where
        lines, start = inspect.getsourcelines(cli.run_metric)
        assert lines[1].strip() == "space = parse_space(cfg.space)"
        assert f"src/visbound/cli.py:{start + 1}" not in where

    def test_src_lines_totals_are_the_line_counts(self):
        proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "src_lines.py")],
                              capture_output=True, text=True, check=True, timeout=120)
        head, *files, total = [line.split() for line in proc.stdout.splitlines()]
        assert head == ["file", "total", "code", "docstring", "comment", "blank"]
        src = os.path.dirname(visbound.__file__)
        want = {}
        for name in sorted(f for f in os.listdir(src) if f.endswith(".py")):
            with open(os.path.join(src, name), "rb") as fh:
                want[name] = fh.read().count(b"\n")
        assert {row[0]: int(row[1]) for row in files} == want
        assert all(int(row[1]) == sum(map(int, row[2:])) for row in files + [total])
        assert total[0] == "total" and int(total[1]) == sum(want.values())
        assert [int(x) for x in total[2:]] == [sum(int(row[k]) for row in files)
                                                 for k in range(2, 6)]

    def test_byte_identity_reads_every_config_and_hashes_as_the_gate(self, monkeypatch, capsys):
        spec = importlib.util.spec_from_file_location("byte_identity",
                                                      os.path.join(SCRIPTS, "byte_identity.py"))
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        golden = dict(module.golden_configs())
        assert golden == {f"golden {name}": fields for name, (fields, _, _) in GOLDEN.items()}
        # the six CLI calls of the run_*.py scripts and the README's seven
        commands = module.script_configs() + module.readme_configs()
        assert len(commands) == 13
        for label, fields in commands:
            assert "--out" not in label and "--seed" not in label
            RunConfig.from_dict(fields).validate()
        # the benchmark's 16 experiments, at their full sizes
        bench = module.bench_configs()
        assert len(bench) == 16 and len(dict(bench)) == 16
        assert dict(bench)["bench lattice-covers: cover-pushout space=tree4 A=1.0 R=2.0"] == {
            "experiment": "cover-pushout", "space": "tree4", "A": 1.0, "R": 2.0, "n": 12}
        for _, fields in bench:
            RunConfig.from_dict(fields).validate()
        # at the golden seed, the golden hashes
        names = ("metric-dA", "demo-t4")
        monkeypatch.setattr(module, "SEEDS", (3,))
        monkeypatch.setattr(module, "golden_configs",
                            lambda: [(f"golden {n}", GOLDEN[n][0]) for n in names])
        monkeypatch.setattr(module, "script_configs", lambda: [])
        monkeypatch.setattr(module, "readme_configs", lambda: [])
        monkeypatch.setattr(module, "bench_configs", lambda: [])
        # the cover verdicts above the golden sizes, the writer of
        # cover.json over several blocks, R^3 centers and tree3 scales
        assert len(module.LARGE) == 8
        for _, fields in module.LARGE:
            RunConfig.from_dict(fields).validate()
        monkeypatch.setattr(module, "LARGE", [])
        # the in-process kernel hashes, one section
        assert module.KERNELS == [module.kernel_lines]
        monkeypatch.setattr(module, "KERNELS", [])
        assert module.main() == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert {(d["config"], d["seed"], d["file"]): d["sha256"] for d in lines} == \
            {(f"golden {n}", 3, f): h for n in names for f, h in GOLDEN[n][2].items()}

    def test_l3_probe_reports_each_run(self):
        command = "metric --space tree4 --metric dA --A 1 --n 12"
        proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, "l3_probe.py"),
                               "--repeat", "2", command],
                              capture_output=True, text=True, check=True, timeout=120)
        (line,) = proc.stdout.splitlines()
        report = json.loads(line)
        assert report["command"] == command and report["rc"] == [0, 0]
        assert len(report["runs"]) == 2
        assert all(run["wall_s"] > 0 and run["peak_rss_mb"] > 0 for run in report["runs"])

    @pytest.mark.parametrize("script", sorted(SCRIPT_OUTPUTS))
    def test_script_runs(self, script, tmp_path, monkeypatch):
        path = os.path.join(SCRIPTS, script)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sys, "argv", [path, "--n", "40"])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(path, run_name="__main__")
        assert done.value.code == 0
        assert sorted(os.listdir(tmp_path / "out")) == SCRIPT_OUTPUTS[script]
        for name in SCRIPT_OUTPUTS[script]:
            assert "manifest.json" in os.listdir(tmp_path / "out" / name)
