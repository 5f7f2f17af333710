"""Outside-in tracing of visbound's layers.

`Tracer.install` replaces each public function listed in `LAYERS` with a
timing wrapper at every visbound module (or class) that binds it, and
`uninstall` puts the originals back. Calls of ordinary layers become spans
(name, start, end, parent, run id). Calls of hot kernels are aggregated into
their parent span as (calls, self time, counter), so the trace stays bounded
however many times a kernel runs. Spans stay in memory until `write`.

Self time is a call's duration minus the time of the traced calls nested in
it, so the self times of one pass partition the traced part of that pass.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


def _n_pairs(args, kwargs, result):
    points = kwargs["points"] if "points" in kwargs else args[2]
    n = len(points)
    return n * (n - 1) // 2


def _report_discards(args, kwargs, report):
    return report.discarded, report.discarded + report.checked


def _envelope_discards(args, kwargs, env):
    return env.discarded, env.discarded + len(env.entries)


def _n_centers(args, kwargs, result):
    return len(result)


# (layer name, module, attribute path, hot, counter). A hot kernel is
# aggregated per parent span; a counter maps (args, kwargs, result) to a
# number, or to a (part, whole) pair for a share.
LAYERS = (
    ("cli.run", "visbound.cli", "run", False, None),
    ("spaces.sample_boundary", "visbound.spaces", "sample_boundary", False, None),
    ("spaces.dist", "visbound.spaces", "dist", True, None),
    ("spaces.branch_time", "visbound.spaces", "branch_time", True, None),
    ("spaces.ray_point", "visbound.spaces", "ray_point", True, None),
    ("metrics.pair_distance_matrix", "visbound.metrics", "pair_distance_matrix", False, _n_pairs),
    ("metrics.tree_branch_matrix", "visbound.metrics", "tree_branch_matrix", False, None),
    ("metrics.tree_branch_from", "visbound.metrics", "tree_branch_from", True, None),
    ("metrics.eval_dA", "visbound.metrics", "eval_dA", True, None),
    ("metrics.eval_dbar", "visbound.metrics", "eval_dbar", True, None),
    ("metrics.adaptive_simpson", "visbound.metrics", "adaptive_simpson", True, None),
    ("metrics.gromov_product", "visbound.metrics", "gromov_product", True, None),
    ("quasisym.verify_control", "visbound.quasisym", "verify_control", False, _report_discards),
    ("quasisym.qs_envelope", "visbound.quasisym", "qs_envelope", False, _envelope_discards),
    ("quasisym.power_law_fit", "visbound.quasisym", "power_law_fit", False, None),
    ("quasisym.uniformly_perfect_check", "visbound.quasisym", "uniformly_perfect_check", False, None),
    ("covers.centers_near", "visbound.covers", "LatticeBallSystem.centers_near", True, _n_centers),
    ("covers.cover_stats", "visbound.covers", "cover_stats", False, None),
    ("covers.orbit_ball_order", "visbound.covers", "orbit_ball_order", False, None),
    ("covers.boundary_pushout_cover", "visbound.covers", "boundary_pushout_cover", False, None),
    ("covers.colored_boundary_cover", "visbound.covers", "colored_boundary_cover", False, None),
    ("covers.annular_pushin_cover", "visbound.covers", "annular_pushin_cover", False, None),
    ("covers.ell_dim_estimate", "visbound.covers", "ell_dim_estimate", False, None),
    ("visual.visual_fit", "visbound.visual", "visual_fit", False, None),
    ("visual.nonvisual_witness_dA", "visbound.visual", "nonvisual_witness_dA", False, None),
    ("visual.nonqs_witness", "visbound.visual", "nonqs_witness", False, None),
)

# The per-layer metrics: (name, unit, better). `cli.bytes_written` is
# measured by the harness from the files each run leaves; the two `trace.*`
# metrics compare traced and untraced passes.
_CALLS_AND_SELF = ("spaces.dist", "spaces.branch_time", "spaces.ray_point",
                   "spaces.sample_boundary",
                   "metrics.pair_distance_matrix", "metrics.tree_branch_from",
                   "metrics.eval_dA", "metrics.eval_dbar", "metrics.adaptive_simpson",
                   "metrics.gromov_product", "covers.centers_near", "covers.cover_stats")
_SELF_ONLY = ("cli.run", "metrics.tree_branch_matrix",
              "quasisym.verify_control", "quasisym.qs_envelope",
              "quasisym.power_law_fit", "quasisym.uniformly_perfect_check",
              "covers.orbit_ball_order", "covers.boundary_pushout_cover",
              "covers.colored_boundary_cover", "covers.annular_pushin_cover",
              "covers.ell_dim_estimate", "visual.visual_fit",
              "visual.nonvisual_witness_dA", "visual.nonqs_witness")
PER_LAYER = tuple(sorted(
    [(f"{n}.calls", "count", "lower") for n in _CALLS_AND_SELF]
    + [(f"{n}.self_s", "s", "lower") for n in _CALLS_AND_SELF + _SELF_ONLY]
    + [("cli.bytes_written", "bytes", "lower"),
       ("metrics.pair_distance_matrix.pairs", "count", "lower"),
       ("quasisym.verify_control.discarded_share", "ratio", "lower"),
       ("quasisym.qs_envelope.discarded_share", "ratio", "lower"),
       ("covers.centers_near.centers_per_call", "count", "lower")]
)) + (("trace.wall_s", "s", "lower"), ("trace.overhead", "ratio", "lower"))


def _resolve(owner, path):
    """(object holding the last name of `path`, that name); the object is
    None when a later version of visbound dropped a name on the way."""
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p, None)
    return owner, attr


class Tracer:
    """Wraps visbound's layer functions and keeps the spans of traced calls."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self.pass_no = None
        self._frames = []      # child time of each open traced call
        self._open = []        # open span records
        self._installed = []   # (owner, attribute, original)
        self._orphan = None

    # -- installing -------------------------------------------------------

    def install(self):
        """Wrap every layer function at each visbound module binding it."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "visbound" or name.startswith("visbound."))]
        for name, module_name, path, hot, counter in LAYERS:
            module = sys.modules.get(module_name)
            if module is None:
                continue
            owner, attr = _resolve(module, path)
            original = getattr(owner, attr, None)
            if original is None:
                continue   # a dropped function reports 0
            wrapped = (self._wrap_hot if hot else self._wrap_span)(name, original, counter)
            if "." in path:
                targets = [(owner, attr)]
            else:
                targets = [(m, a) for m in modules for a, v in vars(m).items()
                           if v is original]
            for target, a in targets:
                setattr(target, a, wrapped)
                self._installed.append((target, a, original))

    def uninstall(self):
        for target, attr, original in reversed(self._installed):
            setattr(target, attr, original)
        self._installed = []

    # -- recording --------------------------------------------------------

    def _new_span(self, name):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "pass": self.pass_no,
               "parent": self._open[-1]["id"] if self._open else None,
               "agg": {}}
        self.spans.append(rec)
        return rec

    def _wrap_span(self, name, fn, counter):
        frames, open_, clock = self._frames, self._open, time.perf_counter

        def traced(*args, **kwargs):
            rec = self._new_span(name)
            frame = [0.0]
            frames.append(frame)
            open_.append(rec)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    rec["count"] = counter(args, kwargs, result)
                return result
            finally:
                end = clock()
                frames.pop()
                open_.pop()
                rec["start"], rec["end"] = start, end
                rec["self_s"] = (end - start) - frame[0]
                if frames:
                    frames[-1][0] += end - start

        traced.__wrapped__ = fn
        return traced

    def _wrap_hot(self, name, fn, counter):
        frames, open_, clock = self._frames, self._open, time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]
            frames.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                frames.pop()
                if frames:
                    frames[-1][0] += elapsed
                agg = open_[-1]["agg"] if open_ else self._orphans()
                stats = agg.get(name)
                if stats is None:
                    stats = agg[name] = [0, 0.0, 0]
                stats[0] += 1
                stats[1] += elapsed - frame[0]
            if counter is not None:
                stats[2] += counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _orphans(self):
        """Aggregates of hot calls made outside any span, in one record."""
        if self._orphan is None:
            self._orphan = self._new_span("bench.orphans")
            self._orphan["start"] = self._orphan["end"] = time.perf_counter()
            self._orphan["self_s"] = 0.0
        return self._orphan["agg"]

    @contextmanager
    def span(self, name, run_id=None):
        """A span opened by the benchmark itself (a pass or an experiment)."""
        if run_id is not None:
            self.run_id = run_id
        rec = self._new_span(name)
        frame = [0.0]
        self._frames.append(frame)
        self._open.append(rec)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._frames.pop()
            self._open.pop()
            rec["self_s"] = (rec["end"] - rec["start"]) - frame[0]
            if self._frames:
                self._frames[-1][0] += rec["end"] - rec["start"]

    # -- reading ----------------------------------------------------------

    def layer_totals(self, pass_no) -> dict:
        """{layer: [calls, self_s, count]} summed over one pass; `count` is
        a number or a (part, whole) pair, as the layer's counter gives."""
        totals = defaultdict(lambda: [0, 0.0, None])
        for rec in self.spans:
            if rec["pass"] != pass_no:
                continue
            name = rec["name"]
            if not name.startswith("bench."):
                t = totals[name]
                t[0] += 1
                t[1] += rec["self_s"]
                if "count" in rec:
                    t[2] = _add(t[2], rec["count"])
            for kname, (calls, self_s, count) in rec["agg"].items():
                t = totals[kname]
                t[0] += calls
                t[1] += self_s
                t[2] = _add(t[2], count)
        return dict(totals)

    def pass_metrics(self, pass_no) -> dict:
        """The per-layer metrics of one traced pass, except `cli.bytes_written`
        and `trace.*`; a layer that never ran reports 0."""
        totals = self.layer_totals(pass_no)
        zero = [0, 0.0, None]
        out = {}
        for name in _CALLS_AND_SELF:
            calls, self_s, _ = totals.get(name, zero)
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        for name in _SELF_ONLY:
            out[f"{name}.self_s"] = totals.get(name, zero)[1]
        out["metrics.pair_distance_matrix.pairs"] = \
            totals.get("metrics.pair_distance_matrix", zero)[2] or 0
        for name in ("quasisym.verify_control", "quasisym.qs_envelope"):
            part, whole = totals.get(name, zero)[2] or (0, 0)
            out[f"{name}.discarded_share"] = part / whole if whole else 0.0
        calls, _, centers = totals.get("covers.centers_near", zero)
        out["covers.centers_near.centers_per_call"] = (centers or 0) / calls if calls else 0.0
        return out

    def write(self, path):
        """Write every span recorded so far as one JSON object per line."""
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _add(acc, count):
    if acc is None:
        return count
    if isinstance(count, tuple):
        return tuple(a + c for a, c in zip(acc, count))
    return acc + count
