import argparse
import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import smhd.fv
from smhd.cli import EXIT_CODES, build_parser, main
from smhd.fv import SimConfig, simulate_1d, simulate_2d
from smhd.ioutil import MAX_STEPS
from smhd.linear import LinearConfig, linear_halfplane_simulate

RATIONAL_PAIR = {
    "plus": {"h": 2.0, "v": [1.0, 0.0], "B": [0.5, 0.0]},
    "minus": {"h": 1.0, "v": [2.0, 0.0], "B": [1.0, 0.0]},
    "front": {"slope": 0.0, "speed": 0.0},
    "g": 1.0,
}

CVS_PAIR = {
    "plus": {"h": 1.0, "v": [0.0, 0.25], "B": [0.0, 1.0]},
    "minus": {"h": 1.0, "v": [0.0, -0.25], "B": [0.0, -1.0]},
    "front": {"slope": 0.0, "speed": 0.0},
    "g": 1.0,
}


def _write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


def test_classify_continuous(tmp_path, capsys):
    doc = {"plus": RATIONAL_PAIR["minus"], "minus": RATIONAL_PAIR["minus"],
           "front": {"slope": 0.0, "speed": 2.0}, "g": 1.0}
    code = main(["classify", "--input", _write(tmp_path, "pair.json", doc)])
    out = capsys.readouterr().out
    assert code == 0
    assert "continuous" in out


def test_classify_rational_shock(tmp_path, capsys):
    code = main(["classify", "--input", _write(tmp_path, "pair.json", RATIONAL_PAIR),
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "shock" in out
    doc = json.loads((tmp_path / "classify.json").read_text())
    assert doc["kind"] == "shock"
    assert doc["residual_max"] < 1e-12
    assert doc["lax"]["satisfied"] is True
    assert doc["lax"]["k"] == 1


def test_classify_cvs_reports_symmetrizer(tmp_path, capsys):
    code = main(["classify", "--input", _write(tmp_path, "pair.json", CVS_PAIR),
                 "--out", str(tmp_path)])
    assert code == 0
    doc = json.loads((tmp_path / "classify.json").read_text())
    assert doc["kind"] == "current-vortex-sheet"
    assert abs(doc["symmetrizer"]["lambda_plus"] - 0.25) < 1e-14
    assert doc["cvs_verdict"]["tag"] == "sufficiently-stable"


def test_classify_json_format_prints_document(tmp_path, capsys):
    # B2 = 0 on both sides: the sheet classifies, but its symmetrizer does not exist
    sheet = _with(CVS_PAIR, ("plus",), B=[0.0, 0.0])
    sheet["minus"]["B"] = [0.0, 0.0]
    code = main(["classify", "--input", _write(tmp_path, "pair.json", sheet),
                 "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out[out.index("{"):])
    assert doc["kind"] == "current-vortex-sheet"
    assert doc["cvs_verdict"]["tag"] == "unavailable"
    assert "symmetrizer" not in doc and not (tmp_path / "classify.json").exists()


def test_classify_inadmissible_exit_code(tmp_path, capsys):
    doc = {"plus": {"h": 2.0, "v": [1.0, 1.0], "B": [0.3, 0.0]},
           "minus": RATIONAL_PAIR["minus"], "front": {"slope": 0.0, "speed": 0.0}, "g": 1.0}
    code = main(["classify", "--input", _write(tmp_path, "pair.json", doc)])
    capsys.readouterr()
    assert code == 2


def test_classify_malformed_input(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    assert main(["classify", "--input", str(p)]) == 1
    assert main(["classify", "--input", str(tmp_path / "missing.json")]) == 1
    bad = _write(tmp_path, "neg.json", {"plus": {"h": -1, "v": [0, 0], "B": [0, 0]},
                                        "minus": RATIONAL_PAIR["minus"]})
    assert main(["classify", "--input", bad]) == 1
    capsys.readouterr()


def test_shock_bundle_and_roundtrip(tmp_path, capsys):
    code = main(["shock", "1", "2", "0.5", "0", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads((tmp_path / "shock.json").read_text())
    assert abs(doc["linearized"]["froude"] - 0.5**0.5) < 1e-14
    assert abs(doc["linearized"]["d0"] - 1.625) < 1e-14
    assert abs(doc["linearized"]["a0"] + 1.25) < 1e-14
    pair_path = _write(tmp_path, "pair.json", doc["pair"])
    assert main(["classify", "--input", pair_path]) == 0
    out2 = capsys.readouterr().out
    assert "shock" in out2


def test_shock_expansion_exit_2(tmp_path, capsys):
    code = main(["shock", "1", "0.5", "0.5", "0", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Lax violated" in err
    doc = json.loads((tmp_path / "shock.json").read_text())
    assert doc["linearized"] is None
    assert doc["diagnostics"]["satisfied"] is False


def test_shock_with_huge_heights_exit_0(tmp_path, capsys):
    # h+^6 = 9.4e371 overflows; the boundary determinants divide by h only once
    assert main(["shock", "3.3e61", "3", "3.4e-109", "0", "--g", "1.27e-57",
                 "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    diag = json.loads((tmp_path / "shock.json").read_text())["diagnostics"]
    assert diag["satisfied"] is True
    assert diag["det_boundary_plus"] < 0.0 < diag["det_boundary_minus"]


def test_shock_degenerate_exit_1(capsys):
    assert main(["shock", "1", "1", "0.5", "0"]) == 1
    capsys.readouterr()


def test_stability_nsc(capsys):
    code = main(["stability", "nsc", "--v2-jump", "3", "--b2-plus", "1", "--h", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "nsc-unstable" in out


def test_stability_cvs(tmp_path, capsys):
    code = main(["stability", "cvs", "--input", _write(tmp_path, "p.json", CVS_PAIR)])
    out = capsys.readouterr().out
    assert code == 0
    assert "sufficiently-stable" in out


def test_sweep_minimal_grid(tmp_path, capsys):
    spec = {"verdict": "lax",
            "x_axis": {"name": "ratio", "min": 0.5, "max": 2.0, "count": 2},
            "y_axis": {"name": "b1_plus", "min": 0.2, "max": 0.8, "count": 2},
            "fixed": {"h_minus": 1.0, "b2": 0.0, "g": 1.0}}
    code = main(["sweep", "--spec", _write(tmp_path, "spec.json", spec),
                 "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 grid points
    svg = (tmp_path / "sweep.svg").read_text()
    assert svg.startswith("<?xml") and "</svg>" in svg


def test_sweep_lax_verdict_depends_only_on_ratio(tmp_path, capsys):
    spec = {"verdict": "lax",
            "x_axis": {"name": "ratio", "min": 0.3, "max": 2.5, "count": 12},
            "y_axis": {"name": "b1_plus", "min": 0.1, "max": 1.5, "count": 7},
            "fixed": {"h_minus": 1.0, "b2": 0.0, "g": 1.0}}
    code = main(["sweep", "--spec", _write(tmp_path, "spec.json", spec),
                 "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in
            (tmp_path / "sweep.csv").read_text().strip().splitlines()[1:]]
    for ratio_s, _b1s, code_s, _m in rows:
        assert (int(code_s) == 2) == (float(ratio_s) > 1.0)


def test_sweep_deterministic_outputs(tmp_path, capsys):
    spec = {"verdict": "cvs-nsc",
            "x_axis": {"name": "v2_jump", "min": 0.0, "max": 4.0, "count": 9},
            "y_axis": {"name": "b2_plus", "min": -1.5, "max": 1.5, "count": 9},
            "fixed": {"h": 1.0, "g": 1.0}}
    spec_path = _write(tmp_path, "spec.json", spec)
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        assert main(["sweep", "--spec", spec_path, "--out", str(tmp_path / d)]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "sweep.csv").read_bytes() == (tmp_path / "b" / "sweep.csv").read_bytes()
    assert (tmp_path / "a" / "sweep.svg").read_bytes() == (tmp_path / "b" / "sweep.svg").read_bytes()


def test_sweep_invalid_axes(tmp_path, capsys):
    spec = {"verdict": "lax",
            "x_axis": {"name": "ratio", "min": 0.5, "max": 2.0, "count": 1},
            "y_axis": {"name": "b1_plus", "min": 0.2, "max": 0.8, "count": 2},
            "fixed": {}}
    assert main(["sweep", "--spec", _write(tmp_path, "s.json", spec),
                 "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_sweep_unknown_or_repeated_parameter_exit_1(tmp_path, capsys):
    misspelled = {"verdict": "cvs-nsc",
                  "x_axis": {"name": "v2_jump", "min": 0.0, "max": 6.0, "count": 4},
                  "y_axis": {"name": "b2plus", "min": -2.0, "max": 2.0, "count": 4},
                  "fixed": {"b2_plus": 1.0, "h": 1.0, "g": 1.0}}
    repeated = {"verdict": "lax",
                "x_axis": {"name": "ratio", "min": 0.5, "max": 2.0, "count": 3},
                "y_axis": {"name": "ratio", "min": 0.5, "max": 2.0, "count": 3},
                "fixed": {"b1_plus": 0.5}}
    for doc in (misspelled, repeated):
        assert main(["sweep", "--spec", _write(tmp_path, "s.json", doc),
                     "--out", str(tmp_path)]) == 1
        assert "sweep:" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_simulate_small_riemann(tmp_path, capsys):
    cfg = {"kind": "fv", "dimensions": 1, "cells": [120], "extents": [[-4.0, 4.0]],
           "end_time": 1.0, "cfl": 0.45, "g": 1.0, "output_interval": 0.25,
           "initial": {"type": "riemann",
                       "minus": {"h": 1.0, "v": [2.0, 0.0], "B": [1.0, 0.0]},
                       "plus": {"h": 2.0, "v": [1.0, 0.0], "B": [0.5, 0.0]},
                       "interface": 0.0}}
    code = main(["simulate", "--config", _write(tmp_path, "cfg.json", cfg),
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "front drift" in out
    ts = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert ts[0] == "t,mass,momX,momY,fluxBx,fluxBy,divNorm,frontAmp,energy"
    assert (tmp_path / "snapshot.csv").exists()


def test_simulate_deterministic_csv(tmp_path, capsys):
    cfg = {"kind": "fv", "dimensions": 1, "cells": [64], "extents": [[-2.0, 2.0]],
           "end_time": 0.3, "output_interval": 0.1,
           "initial": {"type": "riemann",
                       "minus": {"h": 1.0, "v": [2.0, 0.0], "B": [1.0, 0.0]},
                       "plus": {"h": 2.0, "v": [1.0, 0.0], "B": [0.5, 0.0]}}}
    path = _write(tmp_path, "cfg.json", cfg)
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
        assert main(["simulate", "--config", path, "--out", str(tmp_path / d)]) == 0
    capsys.readouterr()
    assert (tmp_path / "a" / "timeseries.csv").read_bytes() \
        == (tmp_path / "b" / "timeseries.csv").read_bytes()
    assert (tmp_path / "a" / "snapshot.csv").read_bytes() \
        == (tmp_path / "b" / "snapshot.csv").read_bytes()


def test_simulate_empty_path_exit_1(capsys):
    assert main(["simulate", "--config", ""]) == 1
    err = capsys.readouterr().err
    assert "config" in err


def test_simulate_bad_config_exit_1(tmp_path, capsys):
    cfg = {"kind": "fv", "dimensions": 1, "cells": [4], "extents": [[-1, 1]],
           "end_time": 1.0, "initial": {"type": "uniform",
                                        "state": {"h": 1, "v": [0, 0], "B": [0, 0]}}}
    assert main(["simulate", "--config", _write(tmp_path, "c.json", cfg),
                 "--out", str(tmp_path)]) == 1
    capsys.readouterr()


def test_simulate_malformed_value_exit_1(tmp_path, capsys):
    cfg = {"kind": "fv", "dimensions": 1, "cells": ["ab"], "extents": [[-1, 1]],
           "end_time": 1.0, "initial": {"type": "uniform",
                                        "state": {"h": 1, "v": [0, 0], "B": [0, 0]}}}
    assert main(["simulate", "--config", _write(tmp_path, "c.json", cfg),
                 "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("simulate: cells must be a number")


def test_simulate_cfl_violation_exit_4(tmp_path, capsys):
    cfg = {"kind": "fv", "dimensions": 1, "cells": [32], "extents": [[-1, 1]],
           "end_time": 0.5, "dt_fixed": 1.0,
           "initial": {"type": "riemann",
                       "minus": {"h": 1.0, "v": [2.0, 0.0], "B": [1.0, 0.0]},
                       "plus": {"h": 2.0, "v": [1.0, 0.0], "B": [0.5, 0.0]}}}
    assert main(["simulate", "--config", _write(tmp_path, "c.json", cfg),
                 "--out", str(tmp_path)]) == 4
    capsys.readouterr()


# a finite state whose momentum flux overflows: the first update leaves NaN behind
OVERFLOW_FV = {"kind": "fv", "dimensions": 1, "cells": [32], "extents": [[0, 1]],
               "end_time": 1.0,
               "initial": {"type": "uniform",
                           "state": {"h": 1.0, "v": [1e155, 0.0], "B": [0.0, 0.0]}}}


def test_simulate_non_finite_state_exit_5(tmp_path, capsys):
    code = main(["simulate", "--config", _write(tmp_path, "c.json", OVERFLOW_FV),
                 "--out", str(tmp_path)])
    assert code == 5
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    OVERFLOW_FV,
    {**OVERFLOW_FV, "dimensions": 2, "cells": [16, 8], "extents": [[0, 1], [0, 1]],
     "boundary_x1": "periodic"},
], ids=["1d", "2d"])
def test_simulate_fv_overflow_exit_5_with_one_line(tmp_path, doc):
    # a flux that overflows ends the run with exit 5 and one stderr line, no numpy warning
    proc = subprocess.run([sys.executable, "-m", "smhd.cli", *_argv(tmp_path, SIMULATE, doc),
                           "--out", str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 5
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("simulate: non-finite conservation defect")
    assert not (tmp_path / "timeseries.csv").exists()


def test_simulate_linear_non_finite_exit_5(tmp_path):
    # norms that overflow end the run with exit 5 and one stderr line, no numpy warning
    doc = _with(LINEAR_RUN, pulse={"p_amplitude": 1e200})
    proc = subprocess.run([sys.executable, "-m", "smhd.cli", *_argv(tmp_path, SIMULATE, doc),
                           "--out", str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 5
    err = proc.stderr.splitlines()
    assert len(err) == 1 and err[0].startswith("simulate: ") and "non-finite" in err[0]
    assert not (tmp_path / "timeseries.csv").exists()


def test_simulate_linear_kind(tmp_path, capsys):
    cfg = {"kind": "linear",
           "shock": {"h_minus": 1.0, "ratio": 2.0, "b1_plus": 0.5, "b2": 0.0, "g": 1.0},
           "cells": [64, 8], "extents": [[0.0, 8.0], [0.0, 4.0]],
           "end_time": 1.0, "output_interval": 0.25,
           "pulse": {"center": [3.0, 2.0], "width": 0.5, "p_amplitude": 1.0,
                     "potential_amplitude": 0.4}}
    code = main(["simulate", "--config", _write(tmp_path, "c.json", cfg),
                 "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "norm ratio" in out
    assert (tmp_path / "timeseries.csv").read_text().startswith("t,l2U,h1U")


def test_console_script_help():
    proc = subprocess.run([sys.executable, "-m", "smhd.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "smhd" in proc.stdout


RIEMANN_1D = {"kind": "fv", "dimensions": 1, "cells": [32], "extents": [[-1.0, 1.0]],
              "end_time": 0.1,
              "initial": {"type": "riemann", "minus": RATIONAL_PAIR["minus"],
                          "plus": RATIONAL_PAIR["plus"]}}

LINEAR_RUN = {"kind": "linear",
              "shock": {"h_minus": 1.0, "ratio": 2.0, "b1_plus": 0.5, "b2": 0.0, "g": 1.0},
              "cells": [16, 8], "extents": [[0.0, 8.0], [0.0, 4.0]], "end_time": 0.1}

VORTEX_2D = {"kind": "fv", "dimensions": 2, "cells": [8, 8], "extents": [[0.0, 1.0], [0.0, 1.0]],
             "end_time": 0.01, "boundary_x1": "periodic", "initial": {"type": "vortex"}}

SHOCK_2D = {"kind": "fv", "dimensions": 2, "cells": [24, 8], "extents": [[0.0, 6.0], [0.0, 1.0]],
            "end_time": 0.2, "output_interval": 0.05, "boundary_x1": ["inflow", "outflow"],
            "initial": {"type": "perturbed_shock", "minus": RATIONAL_PAIR["minus"],
                        "plus": RATIONAL_PAIR["plus"], "front_position": 2.0,
                        "amplitude": 0.01, "wavelengths": 1}}

LAX_SWEEP = {"verdict": "lax", "x_axis": {"name": "ratio", "min": 0.5, "max": 2.0, "count": 3},
             "y_axis": {"name": "b1_plus", "min": 0.1, "max": 1.0, "count": 2}}


def _with(doc, path=(), **changes):
    """A deep copy of ``doc`` with ``changes`` merged into the object at ``path``."""
    out = json.loads(json.dumps(doc))
    target = out
    for key in path:
        target = target[key]
    target.update(changes)
    return out


MINUS = ("initial", "minus")
NAN = float("nan")

# name -> (argv, document for the file that ends argv, or None)
BAD_INPUTS = {
    "nsc-g-zero": (["stability", "nsc", "--g", "0"], None),
    "nsc-infinite-jump": (["stability", "nsc", "--v2-jump", "inf"], None),
    # b^2 + g h underflows to 0
    "nsc-underflow": (["stability", "nsc", "--v2-jump", "1", "--b2-plus", "1e-200", "--h", "1e-300",
                       "--g", "1e-300"], None),
    "shock-g-zero": (["shock", "1", "2", "0.5", "0", "--g", "0"], None),
    "shock-b1-overflow": (["shock", "1", "2", "1e200", "0"], None),
    "classify-g-zero": (["classify", "--input"], _with(RATIONAL_PAIR, g=0)),
    "classify-slope-text": (["classify", "--input"], _with(RATIONAL_PAIR, ("front",), slope="x")),
    "classify-unknown-pair-key": (["classify", "--input"], _with(RATIONAL_PAIR, gg=5.0)),
    "classify-unknown-state-key": (["classify", "--input"],
                                   _with(RATIONAL_PAIR, ("plus",), B2=0.0)),
    "linear-lax-violation": (["simulate", "--config"], _with(LINEAR_RUN, ("shock",), ratio=0.5)),
    "linear-negative-b1": (["simulate", "--config"], _with(LINEAR_RUN, ("shock",), b1_plus=-1)),
    "linear-g-zero": (["simulate", "--config"], _with(LINEAR_RUN, ("shock",), g=0)),
    "linear-one-extent": (["simulate", "--config"], _with(LINEAR_RUN, extents=[[0.0, 8.0]])),
    "fv-negative-h": (["simulate", "--config"], _with(RIEMANN_1D, MINUS, h=-1)),
    "fv-infinite-v": (["simulate", "--config"], _with(RIEMANN_1D, MINUS, v=[float("inf"), 0.0])),
    "fv-short-v": (["simulate", "--config"], _with(RIEMANN_1D, MINUS, v=[1.0])),
    "fv-dt-fixed-text": (["simulate", "--config"], _with(RIEMANN_1D, dt_fixed="x")),
    "fv-dt-fixed-negative": (["simulate", "--config"], _with(RIEMANN_1D, dt_fixed=-0.01)),
    "linear-output-interval-text": (["simulate", "--config"],
                                    _with(LINEAR_RUN, output_interval="0.1")),
    "linear-wave-check-text": (["simulate", "--config"], _with(LINEAR_RUN, wave_check_time="x")),
    "linear-infinite-end-time": (["simulate", "--config"],
                                 _with(LINEAR_RUN, end_time=float("inf"))),
    "linear-flat-x2-extent": (["simulate", "--config"],
                              _with(LINEAR_RUN, extents=[[0.0, 8.0], [1.0, 1.0]])),
    "linear-reversed-x1-extent": (["simulate", "--config"],
                                  _with(LINEAR_RUN, extents=[[0, -8], [0, 4]])),
    "classify-array": (["classify", "--input"], [RATIONAL_PAIR]),
    "stability-array": (["stability", "cvs", "--input"], [CVS_PAIR]),
    "sweep-array": (["sweep", "--spec"], []),
    "sweep-unknown-key": (["sweep", "--spec"], {
        "verdict": "lax", "x_axis": {"name": "ratio", "min": 0.5, "max": 2.0, "count": 3},
        "y_axis": {"name": "b1_plus", "min": 0.1, "max": 1.0, "count": 2}, "fixd": {"g": -2.0}}),
    "sweep-axis-unknown-key": (["sweep", "--spec"], {
        "verdict": "lax", "x_axis": {"name": "ratio", "min": 0.5, "max": 2.0, "count": 3},
        "y_axis": {"name": "b1_plus", "min": 0.1, "max": 1.0, "count": 2, "cout": 9}}),
    "simulate-array": (["simulate", "--config"], [RIEMANN_1D]),
    "pulse-center-number": (["simulate", "--config"], _with(LINEAR_RUN, pulse={"center": 3})),
    "pulse-center-triple": (["simulate", "--config"],
                            _with(LINEAR_RUN, pulse={"center": [1.0, 2.0, 3.0]})),
    "vortex-lx-zero": (["simulate", "--config"], _with(VORTEX_2D, ("initial",), lx=0)),
    "vortex-ly-infinite": (["simulate", "--config"],
                           _with(VORTEX_2D, ("initial",), ly=float("inf"))),
    "pulse-width-zero": (["simulate", "--config"], _with(LINEAR_RUN, pulse={"width": 0})),
    "pulse-width-nan": (["simulate", "--config"], _with(LINEAR_RUN, pulse={"width": NAN})),
    "pulse-width-negative": (["simulate", "--config"], _with(LINEAR_RUN, pulse={"width": -0.4})),
    "pulse-center-outside": (["simulate", "--config"],
                             _with(LINEAR_RUN, pulse={"center": [100.0, 2.0]})),
    "pulse-center-nan": (["simulate", "--config"], _with(LINEAR_RUN, pulse={"center": [NAN, 2.0]})),
    "pulse-zero-amplitudes": (["simulate", "--config"],
                              _with(LINEAR_RUN, pulse={"p_amplitude": 0})),
    "pulse-p-amplitude-infinite": (["simulate", "--config"],
                                   _with(LINEAR_RUN, pulse={"p_amplitude": float("inf")})),
    "vortex-h0-negative": (["simulate", "--config"], _with(VORTEX_2D, ("initial",), h0=-1)),
    "vortex-h-amp-nan": (["simulate", "--config"], _with(VORTEX_2D, ("initial",), h_amp=NAN)),
    "vortex-v0-nan": (["simulate", "--config"], _with(VORTEX_2D, ("initial",), v0=[NAN, 0.2])),
    "riemann-interface-nan": (["simulate", "--config"],
                              _with(RIEMANN_1D, ("initial",), interface=NAN)),
    "perturbed-shock-amplitude-nan": (["simulate", "--config"],
                                      _with(SHOCK_2D, ("initial",), amplitude=NAN)),
    "linear-end-time-true": (["simulate", "--config"], _with(LINEAR_RUN, end_time=True)),
    "fv-output-interval-true": (["simulate", "--config"], _with(RIEMANN_1D, output_interval=True)),
    "fv-fractional-cells": (["simulate", "--config"], _with(RIEMANN_1D, cells=[40.7])),
    "sweep-fractional-count": (["sweep", "--spec"], _with(LAX_SWEEP, ("x_axis",), count=2.9)),
    "sweep-fixed-true": (["sweep", "--spec"], _with(LAX_SWEEP, fixed={"g": True})),
    "sweep-axis-min-text": (["sweep", "--spec"], _with(LAX_SWEEP, ("x_axis",), min="x")),
    "sweep-axis-count-text": (["sweep", "--spec"], _with(LAX_SWEEP, ("x_axis",), count="ab")),
    # derived shock values overflow: a0 = -inf, then an x2 speed of ~1e300 (a ~1e-301 step)
    "linear-ratio-huge": (["simulate", "--config"], _with(LINEAR_RUN, ("shock",), ratio=1e300)),
    "linear-b2-huge": (["simulate", "--config"], _with(LINEAR_RUN, ("shock",), b2=1e300)),
    # finite, but the wave speeds ask for ~1e6 steps, beyond linear.MAX_STEPS
    "linear-ratio-1e12": (["simulate", "--config"], _with(LINEAR_RUN, ("shock",), ratio=1e12)),
    "fv-x1-wall": (["simulate", "--config"], _with(RIEMANN_1D, boundary_x1="wall")),
    "fv-x1-periodic-one-end": (["simulate", "--config"],
                               _with(RIEMANN_1D, boundary_x1=["periodic", "outflow"])),
    "fv-x2-inflow": (["simulate", "--config"], _with(VORTEX_2D, boundary_x2="inflow")),
    "fv-1d-vortex": (["simulate", "--config"], _with(RIEMANN_1D, initial={"type": "vortex"})),
    "riemann-minus-number": (["simulate", "--config"], _with(RIEMANN_1D, ("initial",), minus=3)),
    "riemann-without-plus": (["simulate", "--config"],
                             _with(RIEMANN_1D, initial={"type": "riemann",
                                                        "minus": RATIONAL_PAIR["minus"]})),
    "fv-interval-beyond-run": (["simulate", "--config"],
                               _with(RIEMANN_1D, end_time=1e300, output_interval=1e-300)),
    "simulate-unknown-kind": (["simulate", "--config"], _with(RIEMANN_1D, kind="spectral")),
    "classify-no-input": (["classify"], None),
    "stability-cvs-no-input": (["stability", "cvs"], None),
    "sweep-axis-name-number": (["sweep", "--spec"], _with(LAX_SWEEP, ("x_axis",), name=3)),
    "sweep-axis-reversed": (["sweep", "--spec"], _with(LAX_SWEEP, ("x_axis",), min=2.0, max=0.5)),
    "sweep-unknown-verdict": (["sweep", "--spec"], _with(LAX_SWEEP, verdict="foo")),
    "classify-slope-infinite": (["classify", "--input"],
                                _with(RATIONAL_PAIR, ("front",), slope=1e400)),
    "fv-inflow-uniform": (["simulate", "--config"],
                          _with(RIEMANN_1D, boundary_x1=["inflow", "outflow"],
                                initial={"type": "uniform", "state": RATIONAL_PAIR["minus"]})),
}

SIMULATE, SWEEP = ["simulate", "--config"], ["sweep", "--spec"]
INITIAL, X_AXIS = ("initial",), ("x_axis",)

# name -> (argv, document, the field its one stderr line names): a value of the wrong
# type (a JSON string or boolean is never a number) or out of its range
BAD_VALUES = {
    "fv-dimensions-true": (SIMULATE, _with(RIEMANN_1D, dimensions=True), "dimensions"),
    "fv-g-true": (SIMULATE, _with(RIEMANN_1D, g=True), "g"),
    "fv-g-infinite": (SIMULATE, _with(RIEMANN_1D, g=float("inf")), "g"),
    "fv-end-time-huge-integer": (SIMULATE, _with(RIEMANN_1D, end_time=10**400), "end_time"),
    "classify-g-huge-integer": (["classify", "--input"], _with(RATIONAL_PAIR, g=10**400),
                                "gravitational acceleration"),
    "perturbed-shock-wavelengths-fraction": (SIMULATE, _with(SHOCK_2D, INITIAL, wavelengths=1.5),
                                             "wavelengths"),
    "perturbed-shock-wavelengths-true": (SIMULATE, _with(SHOCK_2D, INITIAL, wavelengths=True),
                                         "wavelengths"),
    "perturbed-shock-amplitude-text": (SIMULATE, _with(SHOCK_2D, INITIAL, amplitude="0.01"),
                                       "amplitude"),
    "perturbed-shock-front-position-text": (SIMULATE,
                                            _with(SHOCK_2D, INITIAL, front_position="2"),
                                            "front_position"),
    "riemann-interface-true": (SIMULATE, _with(RIEMANN_1D, INITIAL, interface=True), "interface"),
    "vortex-h0-text": (SIMULATE, _with(VORTEX_2D, INITIAL, h0="1"), "h0"),
    "vortex-h0-true": (SIMULATE, _with(VORTEX_2D, INITIAL, h0=True), "h0"),
    "fv-state-h-true": (SIMULATE, _with(RIEMANN_1D, MINUS, h=True), "minus h"),
    "linear-ratio-text": (SIMULATE, _with(LINEAR_RUN, ("shock",), ratio="2"), "ratio"),
    "linear-g-true": (SIMULATE, _with(LINEAR_RUN, ("shock",), g=True), "g"),
    "linear-b2-nan": (SIMULATE, _with(LINEAR_RUN, ("shock",), b2=NAN), "b2"),
    "sweep-axis-min-true": (SWEEP, _with(LAX_SWEEP, X_AXIS, min=True), "min"),
    "sweep-axis-min-number-text": (SWEEP, _with(LAX_SWEEP, X_AXIS, min="0.5"), "min"),
    "sweep-fixed-g-text": (SWEEP, _with(LAX_SWEEP, fixed={"g": "1"}), "fixed g"),
    "fv-cells-huge": (SIMULATE, _with(RIEMANN_1D, cells=[1e300]), "cells"),
    "linear-cells-beyond-total": (SIMULATE, _with(LINEAR_RUN, cells=[2**20, 8]), "cells"),
    "sweep-axis-count-huge": (SWEEP, _with(LAX_SWEEP, X_AXIS, count=1e300), "count"),
    "sweep-axis-count-beyond-max": (SWEEP, _with(LAX_SWEEP, X_AXIS, count=1025), "count"),
}
BAD_INPUTS.update({name: (argv, doc) for name, (argv, doc, _) in BAD_VALUES.items()})


def _argv(tmp_path, argv, doc):
    return argv if doc is None else [*argv, _write(tmp_path, "input.json", doc)]


@pytest.mark.parametrize("argv, doc", BAD_INPUTS.values(), ids=BAD_INPUTS.keys())
def test_bad_input_exits_1_with_one_line(tmp_path, capsys, argv, doc):
    assert main([*_argv(tmp_path, argv, doc), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"{argv[0]}: ")


@pytest.mark.parametrize("argv, doc, field", BAD_VALUES.values(), ids=BAD_VALUES.keys())
def test_bad_value_names_its_field(tmp_path, capsys, argv, doc, field):
    assert main([*_argv(tmp_path, argv, doc), "--out", str(tmp_path)]) == 1
    assert f"{field} must" in capsys.readouterr().err


# g h underflows to 0, so every wave speed is 0 and the CFL rule has no finite step
ZERO_SPEED_STATE = {"h": 1e-300, "v": [0.0, 0.0], "B": [0.0, 0.0]}


@pytest.mark.parametrize("doc", [
    {"kind": "fv", "dimensions": 1, "cells": [32], "extents": [[-1.0, 1.0]], "g": 1e-300,
     "end_time": 0.1, "initial": {"type": "uniform", "state": ZERO_SPEED_STATE}},
    {"kind": "fv", "dimensions": 2, "cells": [8, 8], "extents": [[0.0, 1.0], [0.0, 1.0]],
     "g": 1e-300, "end_time": 0.1, "initial": {"type": "uniform", "state": ZERO_SPEED_STATE}},
], ids=["1d", "2d"])
def test_simulate_zero_wave_speeds_exit_5(tmp_path, capsys, doc):
    assert main([*_argv(tmp_path, SIMULATE, doc), "--out", str(tmp_path)]) == 5
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("simulate: all wave speeds are 0 at t=0")
    assert not (tmp_path / "timeseries.csv").exists()
    doc = _with(doc, dt_fixed=0.05)
    assert main([*_argv(tmp_path, SIMULATE, doc), "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize("data", [b'\xff\xfe{"a": 1}', b'{"a": ' + b"[" * 100000],
                         ids=["not-utf8", "nested-too-deep"])
@pytest.mark.parametrize("argv", [["classify", "--input"], SIMULATE, SWEEP],
                         ids=["classify", "simulate", "sweep"])
def test_unreadable_document_exits_1_with_one_line(tmp_path, capsys, argv, data):
    path = tmp_path / "input.json"
    path.write_bytes(data)
    assert main([*argv, str(path), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"{argv[0]}: invalid JSON in {path}: ")


@pytest.mark.parametrize("argv, doc", [
    (["shock", "1", "2", "0.5", "0"], None),
    (["classify", "--input"], RATIONAL_PAIR),
    (SWEEP, LAX_SWEEP),
    (SIMULATE, RIEMANN_1D),
], ids=["shock", "classify", "sweep", "simulate"])
def test_out_naming_a_file_exits_1_with_one_line(tmp_path, capsys, argv, doc):
    out = tmp_path / "taken"
    out.write_text("")
    assert main([*_argv(tmp_path, argv, doc), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no partial report before the failure
    assert captured.err.strip().splitlines() == [
        f"{argv[0]}: cannot write to --out {out}: File exists"]


def test_tiny_output_interval_records_every_step(tmp_path):
    # an interval far below dt records once per step instead of stalling the cadence
    doc = _with(RIEMANN_1D, cells=[16], output_interval=1e-300)
    proc = subprocess.run([sys.executable, "-m", "smhd.cli", *_argv(tmp_path, SIMULATE, doc),
                           "--out", str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    steps = int(re.search(r"run: (\d+) steps", proc.stdout).group(1))
    rows = (tmp_path / "timeseries.csv").read_text().splitlines()[1:]
    assert len(rows) == steps + 1


def test_fv_run_beyond_max_steps_exit_1(tmp_path, capsys, monkeypatch):
    # a run that needs more steps than the cap stops there instead of running on
    steps = simulate_1d(SimConfig.from_dict(RIEMANN_1D)).steps
    monkeypatch.setattr(smhd.fv, "MAX_STEPS", steps)
    assert simulate_1d(SimConfig.from_dict(RIEMANN_1D)).steps == steps
    doc = _with(RIEMANN_1D, end_time=1e300, output_interval=1e299)
    assert main(["simulate", "--config", _write(tmp_path, "c.json", doc),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"simulate: the run needs more than MAX_STEPS = {steps} ")
    assert not (tmp_path / "timeseries.csv").exists()


def test_fv_run_beyond_max_steps_at_first_step(tmp_path, capsys, monkeypatch):
    # the first dt already shows that the run needs more than MAX_STEPS steps: no step is taken
    calls = []
    check = smhd.fv._check_positive
    monkeypatch.setattr(smhd.fv, "_check_positive", lambda q, t: calls.append(t) or check(q, t))
    assert main(["simulate", "--config", _write(tmp_path, "c.json", VORTEX_2D),
                 "--out", str(tmp_path / "short")]) == 0
    assert calls
    calls.clear()
    doc = _with(VORTEX_2D, cells=[256, 256], end_time=1e300)
    assert main(["simulate", "--config", _write(tmp_path, "c.json", doc),
                 "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"simulate: the run needs more than MAX_STEPS = {MAX_STEPS} ")
    assert calls == []
    assert not (tmp_path / "timeseries.csv").exists()


def test_bad_input_prints_no_traceback(tmp_path):
    for name, message in [("linear-lax-violation", "simulate: Froude window violated"),
                          ("pulse-center-number", "simulate: pulse center must be a pair"),
                          ("vortex-lx-zero", "simulate: vortex lx must lie in (0, inf)")]:
        argv, doc = BAD_INPUTS[name]
        proc = subprocess.run([sys.executable, "-m", "smhd.cli", *_argv(tmp_path, argv, doc),
                               "--out", str(tmp_path)], capture_output=True, text=True)
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith(message)


@pytest.mark.parametrize("doc", [_with(RIEMANN_1D, cfll=0.3),
                                 _with(LINEAR_RUN, pulsee={}),
                                 _with(RIEMANN_1D, positivity_floor=1e-10)],
                         ids=["fv", "linear", "fv-positivity-floor"])
def test_simulate_unknown_key_exit_1(tmp_path, capsys, doc):
    assert main(["simulate", "--config", _write(tmp_path, "c.json", doc),
                 "--out", str(tmp_path)]) == 1
    assert "unknown config key" in capsys.readouterr().err
    assert not (tmp_path / "timeseries.csv").exists()


@pytest.mark.parametrize("doc, key", [
    (_with(LINEAR_RUN, ("shock",), b_2=3.0), "b_2"),
    (_with(LINEAR_RUN, pulse={"widht": 0.3}), "widht"),
    (_with(VORTEX_2D, ("initial",), amplitdue=0.1), "amplitdue"),
    (_with(RIEMANN_1D, ("initial",), front_position=0.0), "front_position"),
], ids=["linear-shock", "linear-pulse", "fv-vortex", "fv-riemann"])
def test_simulate_unknown_nested_key_exit_1(tmp_path, capsys, doc, key):
    assert main(["simulate", "--config", _write(tmp_path, "c.json", doc),
                 "--out", str(tmp_path)]) == 1
    assert f"key {key!r}" in capsys.readouterr().err
    assert not (tmp_path / "timeseries.csv").exists()


def test_exit_code_table_matches_docs(capsys):
    text = (Path(__file__).parents[1] / "docs" / "schemas.md").read_text(encoding="utf-8")
    table = text.split("## Exit codes", 1)[1]
    documented = {int(code) for code in re.findall(r"^\|\s*(\d+)\s*\|", table, flags=re.M)}
    assert documented == {0, 1, 2, *EXIT_CODES.values()}
    usage_code = int(re.search(r"usage\s+message and exits (\d)", table).group(1))
    with pytest.raises(SystemExit) as exc:
        main(["shock", "1"])
    assert exc.value.code == usage_code == 1


@pytest.mark.parametrize("argv, code", [
    (["shock", "1"], 1),
    (["stability", "nsc", "--g", "abc"], 1),
    (["sweep"], 1),
    (["shock", "--help"], 0),
    (["classify", "--tol", "1e-6"], 1),
    (["stability", "nsc", "--tol", "1e-6"], 1),
    # each stability mode takes only its own flags
    (["stability", "nsc", "--input", "missing.json"], 1),
    (["stability", "cvs", "--input", "missing.json", "--v2-jump", "3"], 1),
])
def test_parser_exit_codes(capsys, argv, code):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == code
    if code == 1:  # the usage line of the (sub)command that was chosen
        command = " ".join(argv[:2] if argv[0] == "stability" else argv[:1])
        assert capsys.readouterr().err.startswith(f"usage: smhd {command} ")


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    spec = _write(tmp_path, "s.json", LAX_SWEEP)
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path)]) == 0
    built, init = [], argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    assert main(["sweep", "--spec", spec, "--out", str(tmp_path)]) == 0
    assert built == [] and build_parser() is build_parser()
    # a usage error after a successful call still exits 1 with its own usage line
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--spec", spec, "--tol", "1"])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("usage: smhd sweep ")


def _plain_csv(header, rows):
    """Reference CSV bytes: each value as format(float(v), ".17g"), ',' separated, LF ends."""
    lines = [header, *(",".join(format(float(v), ".17g") for v in row) for row in rows)]
    return "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize("doc", [RIEMANN_1D, SHOCK_2D, VORTEX_2D, LINEAR_RUN],
                         ids=["fv-1d", "fv-2d-shock", "fv-2d-vortex", "linear"])
def test_simulate_csv_matches_plain_rendering(tmp_path, doc):
    assert main(["simulate", "--config", _write(tmp_path, "c.json", doc),
                 "--out", str(tmp_path)]) == 0
    series = (tmp_path / "timeseries.csv").read_bytes()
    if doc["kind"] == "linear":
        res = linear_halfplane_simulate(*LinearConfig.from_dict(doc))
        assert series == _plain_csv("t,l2U,h1U,traceNorm,frontNorm,energy", zip(
            res.times, res.l2_u, res.h1_u, res.trace_norm, res.front_norm, res.energy))
        return
    cfg = SimConfig.from_dict(doc)
    res = simulate_1d(cfg) if cfg.dimensions == 1 else simulate_2d(cfg)
    assert series == _plain_csv(
        "t,mass,momX,momY,fluxBx,fluxBy,divNorm,frontAmp,energy",
        ((t, *res.conserved[i], res.div_norm[i], res.front_amplitude[i], res.energy[i])
         for i, t in enumerate(res.times)))
    q, x = res.snapshot, res.grid["x"]
    if q.ndim == 2:
        snapshot = _plain_csv("x,h,momX,momY,fluxBx,fluxBy",
                              ((xv, *q[:, i]) for i, xv in enumerate(x)))
    else:
        snapshot = _plain_csv("x,y,h,momX,momY,fluxBx,fluxBy",
                              ((xv, yv, *q[:, i, j]) for i, xv in enumerate(x)
                               for j, yv in enumerate(res.grid["y"])))
    assert (tmp_path / "snapshot.csv").read_bytes() == snapshot


# sha256 of (timeseries.csv, snapshot.csv) written by the fv simulator for three tiny
# documents: the byte-determinism promise, pinned across changes to the step kernels
# (re-recorded only by a change that declares its new rounding)
PINNED_OUTPUTS = {
    "riemann-1d": (_with(RIEMANN_1D, cells=[64], end_time=0.3, output_interval=0.05),
                   "c0dc29465047cc24d800911f69bd64456b576439946fb14d4bde5e35051469e5",
                   "a7d6baba89ba0d2a8eedda6053c10d0b2c2daa7456db12903eb50f9e4d03cb5a"),
    "perturbed-shock-32x8": (_with(SHOCK_2D, cells=[32, 8], end_time=0.3),
                             "e8cc0bb71196d255d01790461ebcf1d1c44ecb7daefd6dfad1a801cfef247476",
                             "0ba7789e0e9a4ae3f41aa1590610e985210d37eec819bb5fcb84ed951b851833"),
    "vortex-16x16": (_with(VORTEX_2D, cells=[16, 16], end_time=0.1, output_interval=0.025),
                     "df6fa9fac2f1d421431967e79e44e1854764d1e11a5848fe6773222a25b7e9cc",
                     "f5f08c531fc919146000d75a9f80b5641f2ddcaae52f82d719359218a619b23e"),
}


@pytest.mark.parametrize("doc, series, snapshot", PINNED_OUTPUTS.values(),
                         ids=PINNED_OUTPUTS.keys())
def test_simulate_outputs_pinned_by_hash(tmp_path, capsys, doc, series, snapshot):
    assert main(["simulate", "--config", _write(tmp_path, "c.json", doc),
                 "--out", str(tmp_path)]) == 0
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("timeseries.csv", "snapshot.csv")}
    assert digest == {"timeseries.csv": series, "snapshot.csv": snapshot}


# sha256 of timeseries.csv written by the linear solver for the tiny grid of the
# small-grids benchmark, with a pulse that reaches the boundary within the run, so every
# norm column moves: the byte-determinism promise of the linear step (re-recorded only
# by a change that declares its new rounding)
PINNED_LINEAR = (_with(LINEAR_RUN, cells=[24, 8], end_time=1.0, cfl=0.45, output_interval=0.025,
                       pulse={"center": [1.5, 1.7], "width": 0.4, "p_amplitude": 1.0,
                              "potential_amplitude": 0.5}),
                 "2e034949836d43504768dfe0f1ed6238f2dc342dbb671a9234223dcd49ac7376")


def test_linear_output_pinned_by_hash(tmp_path, capsys):
    doc, series = PINNED_LINEAR
    assert main(["simulate", "--config", _write(tmp_path, "c.json", doc),
                 "--out", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / "timeseries.csv").read_bytes()).hexdigest() == series


# sha256 of (sweep.csv, sweep.svg) for three tiny sweeps: the byte-determinism promise
# of both writers.  The cvs-nsc map draws its six curves and has more rows than one
# write_rows_csv block; the cvs-sufficient map has b2_plus on x and invalid points.
PINNED_SWEEPS = {
    "cvs-nsc-curves": ({"verdict": "cvs-nsc",
                        "x_axis": {"name": "v2_jump", "min": 0.0, "max": 6.0, "count": 40},
                        "y_axis": {"name": "b2_plus", "min": -2.0, "max": 2.0, "count": 30},
                        "fixed": {"h": 1.0, "g": 1.0}},
                       "6c9aab40da0bd1fc54c9a036ad652208fe4f88ef5b7c832162b35d5846f9aa23",
                       "85f2cce1f3c5250dbe17a2a590fe44ec5cb9fd57e2fb15fa5a07c92b00611d57"),
    "cvs-sufficient": ({"verdict": "cvs-sufficient",
                        "x_axis": {"name": "b2_plus", "min": -2.0, "max": 2.0, "count": 9},
                        "y_axis": {"name": "v2_jump", "min": 0.0, "max": 6.0, "count": 8},
                        "fixed": {"h": 1.0, "epsilon": 1e-6}},
                       "1ac164a8f9d5f4885a1bd3917d33dcd838c95300e33062d56ab56b4af780a2d2",
                       "8cad764d44f2c4b5748757983585b7a4c47f443df8ff6cb59f513226f8e23029"),
    "lax": ({"verdict": "lax",
             "x_axis": {"name": "ratio", "min": 0.2, "max": 3.0, "count": 10},
             "y_axis": {"name": "b1_plus", "min": 0.1, "max": 2.0, "count": 8},
             "fixed": {"h_minus": 1.0, "b2": 0.1, "g": 1.0}},
            "682587c317648fac4f9afde0d70184eb4222558091c850b86f8fd9dd2190ca03",
            "ea6b6c2ffa26562a94349562f70082c2f8233f5953f8f382cdf4c6eceb4eb481"),
}


@pytest.mark.parametrize("spec, csv, svg", PINNED_SWEEPS.values(), ids=PINNED_SWEEPS.keys())
def test_sweep_outputs_pinned_by_hash(tmp_path, capsys, spec, csv, svg):
    assert main(["sweep", "--spec", _write(tmp_path, "s.json", spec),
                 "--out", str(tmp_path)]) == 0
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("sweep.csv", "sweep.svg")}
    assert digest == {"sweep.csv": csv, "sweep.svg": svg}


# sha256 of (sweep.csv, sweep.svg) of the two bundled sweeps.  The cvs-nsc map has
# 40000 rows, so its axis values repeat across many write_rows_csv blocks, which the
# tiny PINNED_SWEEPS maps (at most two blocks) cannot show.
BUNDLED_SWEEPS = {
    "sweep_cvs_nsc.json": {
        "sweep.csv": "13d99ac3e5918ba341079cc63559f1b4ba3f5a2edbb4f6faab537ac0391a9d71",
        "sweep.svg": "3900d9f5575ea3388ba00fcee17dd095a379787e460310e8241396283c69e52b"},
    "sweep_lax.json": {
        "sweep.csv": "fc8845912e362dd024a4b50c09a6b3b5b3e1af83aedb6459aea768001aad14ca",
        "sweep.svg": "88d55d06bfd2db2f0c4da4a1c130f4e14b9442401863645edb1d7ff59abaa6dd"},
}


@pytest.mark.parametrize("argv", [
    ["simulate", "--config", "rational_shock_1d.json"],
    ["simulate", "--config", "linear_halfplane.json"],
    ["sweep", "--spec", "sweep_cvs_nsc.json"],
    ["sweep", "--spec", "sweep_lax.json"],
], ids=lambda argv: argv[-1])
def test_bundled_config_runs(tmp_path, capsys, argv):
    # ACCEPT-09 and ACCEPT-10 run vortex_2d.json and perturbed_shock_2d.json
    path = Path(__file__).parents[1] / "configs" / argv[-1]
    assert main([*argv[:-1], str(path), "--out", str(tmp_path)]) == 0
    pinned = BUNDLED_SWEEPS.get(argv[-1], {})
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in pinned} == pinned
