"""Tests of the benchmark harness itself.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the package's own test run.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from smhd.sweep import SweepSpec, run_sweep  # noqa: E402


@pytest.mark.parametrize("doc", [
    {"verdict": "cvs-nsc",
     "x_axis": {"name": "v2_jump", "min": 0.0, "max": 6.0, "count": 21},
     "y_axis": {"name": "b2_plus", "min": -2.0, "max": 2.0, "count": 15},
     "fixed": {"h": 1.0, "g": 1.0}},
    {"verdict": "cvs-nsc",
     "x_axis": {"name": "v2_jump", "min": 0.0, "max": 6.0, "count": 31},
     "y_axis": {"name": "b2_plus", "min": -2.0, "max": 2.0, "count": 21},
     "fixed": {"h": 1.07, "g": 0.93}},
    {"verdict": "cvs-sufficient",
     "x_axis": {"name": "v2_jump", "min": 0.0, "max": 6.0, "count": 21},
     "y_axis": {"name": "b2_plus", "min": -2.0, "max": 2.0, "count": 15},
     "fixed": {"h": 1.0, "epsilon": 1e-6}},
    {"verdict": "lax",
     "x_axis": {"name": "ratio", "min": 0.2, "max": 3.0, "count": 15},
     "y_axis": {"name": "b1_plus", "min": 0.1, "max": 2.0, "count": 6},
     "fixed": {"h_minus": 0.95, "b2": 0.1, "g": 1.05}},
])
def test_sweep_oracle_matches_run_sweep(doc):
    codes, margins = run_sweep(SweepSpec.from_dict(doc))
    expected, expected_margins = checks.sweep_oracle(doc)
    np.testing.assert_array_equal(codes, expected)
    if expected_margins is not None:
        np.testing.assert_allclose(margins, expected_margins, rtol=1e-12, atol=1e-12)


def test_nsc_oracle_sees_exceptional_points():
    doc = {"verdict": "cvs-nsc",
           "x_axis": {"name": "v2_jump", "min": 0.0, "max": 6.0, "count": 21},
           "y_axis": {"name": "b2_plus", "min": -2.0, "max": 2.0, "count": 15},
           "fixed": {"h": 1.0, "g": 1.0}}
    codes, _ = checks.sweep_oracle(doc)
    assert {0, 2, 3} <= set(np.unique(codes).tolist())


def test_self_times_on_synthetic_nest():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9];  second root [20, 21]
    names = ["root", "a", "leaf"]
    name_id = np.array([0, 1, 2, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0, 20.0])
    end = np.array([10.0, 4.0, 3.0, 9.0, 21.0])
    parent = np.array([-1, 0, 1, 0, -1])
    root = np.array([0, 0, 0, 0, 4])
    agg = spans.aggregate_spans(names, name_id, start, end, parent, root)
    assert agg["problems"] == []
    per = agg["per_name"]
    assert per["root"] == {"calls": 2, "self_s": 3.0 + 1.0, "total_s": 11.0}
    assert per["a"]["self_s"] == 2.0 + 4.0 and per["a"]["calls"] == 2
    assert per["leaf"]["self_s"] == 1.0
    assert agg["roots"] == [0, 4] and agg["root_s"] == [10.0, 1.0]


def test_child_outside_parent_is_reported():
    agg = spans.aggregate_spans(["root", "a"], np.array([0, 1]), np.array([0.0, 1.0]),
                                np.array([2.0, 4.0]), np.array([-1, 0]), np.array([0, 0]))
    assert any("outside their parent" in p for p in agg["problems"])
    assert any("negative self time" in p for p in agg["problems"])


def test_tail_stats_keeps_ten_samples_beyond_the_tail():
    st = spans.tail_stats(np.arange(1000.0))
    assert st["n"] == 1000 and st["tail_pct"] == 99.0 and st["p50"] == 499.5
    assert spans.tail_stats(np.arange(5.0))["tail_pct"] == 50.0


def test_tracer_wraps_rebound_names_and_tolerates_absent_ones():
    import smhd.cli
    import smhd.fv

    original = smhd.fv.simulate_1d
    tracer = spans.Tracer()
    tracer.install(spans=[("smhd.fv", "simulate_1d", "fv.simulate_1d", None),
                          ("smhd.fv", "_no_such_helper", "fv.gone", None)])
    try:
        assert smhd.cli.simulate_1d is smhd.fv.simulate_1d is not original
    finally:
        tracer.uninstall()
    assert smhd.cli.simulate_1d is original and smhd.fv.simulate_1d is original
    assert tracer.absent == ["smhd.fv._no_such_helper"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_smoke_run(workload, trace, tmp_path):
    jobs, digest = workloads.build(workload, 7, tmp_path / "configs", tiny=True)
    again, digest_again = workloads.build(workload, 7, tmp_path / "again", tiny=True)
    assert digest == digest_again and [j.doc for j in jobs] == [j.doc for j in again]
    spec = {"root": str(run.ROOT), "out": str(tmp_path / "out"), "seconds": 0.0,
            "trace": trace, "jobs": [{"name": j.name, "argv": j.argv} for j in jobs]}
    result = run.run_child(spec, tmp_path, timeout=120)
    attempted, failed, problems = run.check_passes(jobs, result["passes"])
    assert failed == 0, problems
    assert attempted == len(jobs) * (3 if trace else 2)
    if trace:
        tr = result["trace"]
        assert tr["absent"] == [] and tr["hook_errors"] == []
        assert tr["aggregate"]["problems"] == []
        assert tr["aggregate"]["root_names"] == ["cli.main"] * len(jobs)
        json.dumps(tr["metrics"])
