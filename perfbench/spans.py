"""Spans recorded from outside the program, around calls into its modules.

``Tracer.install`` replaces module attributes (for example
``smhd.fv._hll_faces``) with wrappers that record one span per call:
name, start, end, parent span and the root span of the job.  Every
binding of the same function object in other ``smhd`` modules is
replaced too, so ``from .fv import simulate_2d`` in ``cli`` is traced.
A name that no longer exists is reported as absent, never an error.

Spans stay in memory; ``aggregate`` turns them into self times, call
counts and per-call distributions once the traced pass is over.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np


def _on_sim(tracer, args, kwargs, result, seconds):
    cells = int(result.snapshot[0].size)
    dim = result.snapshot.ndim - 1
    tracer.count("fv.cell_steps", result.steps * cells)
    tracer.count(f"fv.steps_{dim}d", result.steps)
    tracer.count(f"fv.cell_steps_{dim}d", result.steps * cells)


def _on_points(name):
    def hook(tracer, args, kwargs, result, seconds):
        tracer.count(name, args[0][0].size)
    return hook


def _on_linear(tracer, args, kwargs, result, seconds):
    tracer.count("linear.cell_steps", result.steps * result.u_final[0].size)


def _on_point(tracer, args, kwargs, result, seconds):
    tracer.count("sweep.points")
    if result[0] == -1:
        tracer.count("sweep.invalid")


def _on_run_sweep(tracer, args, kwargs, result, seconds):
    verdict = args[0].verdict.replace("-", "_")
    tracer.count(f"sweep.{verdict}.points", result[0].size)
    tracer.count(f"sweep.{verdict}.s", seconds)


def _on_csv(tracer, args, kwargs, result, seconds):
    tracer.count("ioutil.csv.bytes", os.path.getsize(args[-1]))


# (owner, attribute, span name, hook).  The root span of every job is cli.main.
SPANS = [
    ("smhd.cli", "main", "cli.main", None),
    ("smhd.ioutil", "load_json", "ioutil.load_json", None),
    ("smhd.ioutil", "write_rows_csv", "ioutil.csv", _on_csv),
    ("smhd.ioutil", "write_timeseries_csv", "ioutil.csv", _on_csv),
    ("smhd.ioutil", "write_snapshot_csv", "ioutil.csv", _on_csv),
    ("smhd.fv", "simulate_1d", "fv.simulate_1d", _on_sim),
    ("smhd.fv", "simulate_2d", "fv.simulate_2d", _on_sim),
    ("smhd.fv", "_hll_faces", "fv.hll_faces", None),
    ("smhd.fv", "_axis_flux", "fv.flux", _on_points("fv.flux_points")),
    ("smhd.fv", "_axis_extreme_speeds", "fv.speeds", _on_points("fv.speed_points")),
    ("smhd.fv", "_max_speed", "fv.max_speed", None),
    ("smhd.fv", "_pad_x", "fv.pad", None),
    ("smhd.fv", "_check_positive", "fv.check_positive", None),
    ("smhd.fv", "divergence_residual", "fv.record", None),
    ("smhd.fv", "front_positions", "fv.record", None),
    ("smhd.fv", "_energy", "fv.record", None),
    ("smhd.linear", "linear_halfplane_simulate", "linear.simulate", _on_linear),
    ("smhd.linear", "system_matrices", "linear.setup", None),
    ("smhd.linear", "_upwind_split", "linear.setup", None),
    ("smhd.linear", "boundary_condition_matrix", "linear.setup", None),
    ("smhd.linear", "make_constraint_pulse", "linear.setup", None),
    ("smhd.linear", "constraint_residual", "linear.setup", None),
    ("smhd.sweep", "run_sweep", "sweep.run", _on_run_sweep),
    ("smhd.sweep", "evaluate_point", "sweep.evaluate_point", _on_point),
    ("smhd.sweep", "sweep_svg", "sweep.svg", None),
    ("smhd.symmetrization", "cvs_nsc_verdict", "symmetrization.verdict", None),
    ("smhd.symmetrization", "cvs_sufficient_verdict", "symmetrization.verdict", None),
    ("smhd.shock", "rectilinear_shock", "shock.rectilinear", None),
    ("smhd.shock", "lax_verdict", "shock.lax", None),
    ("smhd.jumps", "classify", "jumps.classify", None),
]

# Counted, not timed: every State built (through its __post_init__).
STATE_HOOK = ("smhd.core.State", "__post_init__", "core.states")

# Span names whose per-call durations are kept: name -> "self" or "total".
PER_CALL = {
    "fv.hll_faces": "total",
    "sweep.evaluate_point": "self",
    "symmetrization.verdict": "total",
    "shock.lax": "total",
    "jumps.classify": "total",
}

_TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 75.0, 50.0)


def _resolve(dotted: str):
    """Import-free lookup of 'pkg.mod' or 'pkg.mod.Class' among loaded modules."""
    if dotted in sys.modules:
        return sys.modules[dotted]
    mod, _, attr = dotted.rpartition(".")
    owner = sys.modules.get(mod)
    return getattr(owner, attr, None) if owner is not None else None


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.absent: list[str] = []
        self.hook_errors: set[str] = set()
        self._patched: list[tuple[object, str, object]] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.root = array("i")
        self.stack: list[int] = []
        self.job = -1
        self.job_names: list[str] = []
        # (job index, counter name) -> value
        self.counters: dict[tuple[int, str], float] = defaultdict(float)

    def begin_job(self, name: str) -> None:
        self.job_names.append(name)
        self.job = len(self.job_names) - 1

    def count(self, name: str, value: float = 1.0) -> None:
        self.counters[(self.job, name)] += value

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, hook=None):
        """``fn`` recording a span per call; ``hook`` then sees (args, kwargs, result, s)."""
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.start)
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.root.append(stack[0] if stack else idx)
            tracer.start.append(0.0)
            tracer.end.append(-1.0)
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.start[idx] = t0
                tracer.end[idx] = t1
            if hook is not None:
                try:
                    hook(tracer, args, kwargs, result, t1 - t0)
                except Exception as exc:  # a changed signature must not fail the job
                    tracer.hook_errors.add(f"{name}: {type(exc).__name__}: {exc}")
            return result

        traced.__wrapped__ = fn
        return traced

    def _counting(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.count(name)
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _patch(self, owner, attr: str, new) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self, spans=SPANS, state_hook=STATE_HOOK) -> None:
        """Wrap every listed attribute that exists; record the rest as absent."""
        for owner_name, attr, name, hook in spans:
            owner = _resolve(owner_name)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(f"{owner_name}.{attr}")
                continue
            wrapper = self.wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "smhd" or mod_name.startswith("smhd.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)
        owner_name, attr, name = state_hook
        owner = _resolve(owner_name)
        if owner is None or not callable(getattr(owner, attr, None)):
            self.absent.append(f"{owner_name}.{attr}")
        else:
            self._patch(owner, attr, self._counting(name, getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def aggregate(self) -> dict:
        """Self times, calls and integrity of the spans recorded so far."""
        return aggregate_spans(self.names, np.asarray(self.name_id), np.asarray(self.start),
                               np.asarray(self.end), np.asarray(self.parent),
                               np.asarray(self.root))

    def totals(self) -> dict[str, float]:
        """Counters summed over jobs; ``core.states.cvs`` over the cvs sweep jobs only."""
        out: dict[str, float] = defaultdict(float)
        cvs_jobs = {job for job, name in self.counters if name.startswith("sweep.cvs_")}
        for (job, name), value in self.counters.items():
            out[name] += value
            if name == "core.states" and job in cvs_jobs:
                out["core.states.cvs"] += value
        return dict(out)


def tail_stats(values: np.ndarray) -> dict:
    """Median, and the highest ladder percentile with >= 10 samples beyond it."""
    n = int(values.size)
    if n == 0:
        return {"n": 0, "p50": 0.0, "tail": 0.0, "tail_pct": 0.0}
    pct = next((p for p in _TAIL_LADDER if n * (1.0 - p / 100.0) >= 10.0), 50.0)
    return {"n": n, "p50": float(np.median(values)),
            "tail": float(np.percentile(values, pct)), "tail_pct": pct}


def aggregate_spans(names, name_id, start, end, parent, root) -> dict:
    """Per-name self/total time and calls, per-root totals, integrity problems.

    A span's self time is its duration minus the durations of its
    children.  For every root span (one per job), the self times of the
    spans under it must add up to its duration; each child must lie
    inside its parent, so no self time is negative.
    """
    problems: list[str] = []
    n = name_id.size
    dur = end - start
    if n and np.any(end < 0.0):
        problems.append(f"{int(np.sum(end < 0.0))} spans never closed")
    child = np.zeros(n)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_t = dur - child
    if n:
        p = parent[has_parent]
        outside = (start[has_parent] < start[p]) | (end[has_parent] > end[p])
        if np.any(outside):
            problems.append(f"{int(np.sum(outside))} spans outside their parent")
        if np.any(self_t < -1e-9):
            problems.append(f"{int(np.sum(self_t < -1e-9))} spans with negative self time")
    roots = np.flatnonzero(~has_parent)
    tree_self = np.bincount(root, weights=self_t, minlength=n) if n else np.zeros(0)
    for r in roots:
        if abs(tree_self[r] - dur[r]) > 1e-9 * max(1.0, dur[r]):
            problems.append(f"self times under span {r} sum to {tree_self[r]!r}, "
                            f"not its duration {dur[r]!r}")
    k = len(names)
    per_name = {}
    calls = np.bincount(name_id, minlength=k) if n else np.zeros(k, dtype=int)
    self_sum = np.bincount(name_id, weights=self_t, minlength=k) if n else np.zeros(k)
    total_sum = np.bincount(name_id, weights=dur, minlength=k) if n else np.zeros(k)
    for i, name in enumerate(names):
        per_name[name] = {"calls": int(calls[i]), "self_s": float(self_sum[i]),
                          "total_s": float(total_sum[i])}
        if name in PER_CALL:
            values = (self_t if PER_CALL[name] == "self" else dur)[name_id == i]
            per_name[name]["per_call_us"] = tail_stats(values * 1e6)
    return {"per_name": per_name, "roots": [int(r) for r in roots],
            "root_names": [names[name_id[r]] for r in roots],
            "root_s": [float(dur[r]) for r in roots], "spans": int(n),
            "problems": problems}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def span_metrics(agg: dict, counts: dict[str, float]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from aggregated spans and counters.

    A metric whose spans or counters are missing reads 0.
    """
    per = agg["per_name"]

    def self_s(*names):
        return sum(per.get(n, {}).get("self_s", 0.0) for n in names)

    def total_s(name):
        return per.get(name, {}).get("total_s", 0.0)

    def c(name):
        return counts.get(name, 0.0)

    m: dict[str, tuple[float, str]] = {
        "fv.cell_steps": (c("fv.cell_steps"), "count"),
        "fv.simulate_2d.us_per_cell_step":
            (1e6 * _ratio(total_s("fv.simulate_2d"), c("fv.cell_steps_2d")), "us"),
        "fv.simulate_1d.us_per_step": (1e6 * _ratio(total_s("fv.simulate_1d"), c("fv.steps_1d")), "us"),
        "fv.hll_faces.s": (self_s("fv.hll_faces"), "s"),
        "fv.flux.s": (self_s("fv.flux"), "s"),
        "fv.speeds.s": (self_s("fv.speeds"), "s"),
        "fv.max_speed.s": (self_s("fv.max_speed"), "s"),
        "fv.pad.s": (self_s("fv.pad"), "s"),
        "fv.update.s": (self_s("fv.simulate_1d", "fv.simulate_2d", "fv.check_positive"), "s"),
        "fv.record.s": (self_s("fv.record"), "s"),
        "fv.flux_evals_per_cell_step": (_ratio(c("fv.flux_points"), c("fv.cell_steps")), "count"),
        "fv.speed_evals_per_cell_step": (_ratio(c("fv.speed_points"), c("fv.cell_steps")), "count"),
        "linear.cell_steps": (c("linear.cell_steps"), "count"),
        "linear.us_per_cell_step": (1e6 * _ratio(total_s("linear.simulate"), c("linear.cell_steps")), "us"),
        "linear.setup.s": (self_s("linear.setup"), "s"),
        "sweep.points": (c("sweep.points"), "count"),
        "sweep.invalid_frac": (_ratio(c("sweep.invalid"), c("sweep.points")), "fraction"),
        "sweep.svg.s": (self_s("sweep.svg"), "s"),
        "ioutil.csv.s": (self_s("ioutil.csv"), "s"),
        "ioutil.csv.bytes": (c("ioutil.csv.bytes"), "bytes"),
        "ioutil.load_json.s": (self_s("ioutil.load_json"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace.spans": (float(agg["spans"]), "count"),
    }
    for verdict in ("cvs_nsc", "cvs_sufficient", "lax"):
        m[f"sweep.{verdict}.points_per_s"] = (
            _ratio(c(f"sweep.{verdict}.points"), c(f"sweep.{verdict}.s")), "1/s")
    cvs_points = c("sweep.cvs_nsc.points") + c("sweep.cvs_sufficient.points")
    m["core.states_per_point"] = (_ratio(counts.get("core.states.cvs", 0.0), cvs_points), "count")
    for span, base in (("fv.hll_faces", "fv.hll_faces.call_us"),
                       ("sweep.evaluate_point", "sweep.evaluate_point.self_us"),
                       ("symmetrization.verdict", "symmetrization.verdict.us"),
                       ("shock.lax", "shock.lax.us"),
                       ("jumps.classify", "jumps.classify.us")):
        st = per.get(span, {}).get("per_call_us", tail_stats(np.zeros(0)))
        m[base] = (st["p50"], "us")
        m[f"{base}.tail"] = (st["tail"], "us")
    return m
