"""Seeded job lists for the benchmark workloads.

A job is one ``smhd`` command line plus the generated document it reads.
The seed jitters physical parameters inside the ranges the acceptance
criteria cover (the rectilinear shock family around h-/h+ = 1/2,
B1+ = 0.5 and the sheet/shock sweeps at g h ~ 1); it never changes a grid
size.  Simulation end times are rescaled from the initial wave speeds so
that every seed takes about the same number of CFL steps: the seed moves
values, not the amount of work.

Why each workload exists (see README.md for the layer table):

* ``shock2d``: one 256x64 perturbed-shock slab to T = 1.5 (about 790
  steps, 30% of configs/perturbed_shock_2d.json, so that a run holds
  about ten passes).  Large arrays, so the ``fv`` array kernels dominate;
  the front has a supersonic upstream and a subsonic downstream, so every
  branch of the HLL flux runs.
* ``small-grids``: the 200x40 linearized half-plane run plus eight 400-cell
  1D Riemann shocks.  Small arrays, so per-step call overhead dominates;
  this is where ``linear`` does its work and where ``fv`` runs in 1D.
* ``sweeps``: the 200x200 cvs-nsc and cvs-sufficient maps and the 60x40
  Lax map, each written as CSV and SVG.  Per-point scalar work in
  ``sweep``/``symmetrization``/``shock``/``jumps``/``core``; no simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("shock2d", "small-grids", "sweeps")

# Reference shock of configs/perturbed_shock_2d.json and rational_shock_1d.json.
_REF_SHOCK = {"h_minus": 1.0, "ratio": 2.0, "b1_plus": 0.5, "g": 1.0}
_N_SHOCKS_1D = 8


@dataclass
class Job:
    """One CLI call: ``argv`` (without ``--out``) and the document it reads."""

    name: str
    kind: str          # "fv1d", "fv2d", "linear" or "sweep"
    argv: list[str]
    doc: dict


def rectilinear_states(h_minus: float, ratio: float, b1_plus: float, g: float) -> tuple[dict, dict]:
    """(minus, plus) states of the stationary rectilinear shock, b2 = 0.

    Closed form: (v1+)^2 = (B1+)^2 + (g h-/2)(1 + 1/R), v1- = R v1+,
    B1- = R B1+, h+ = R h-.
    """
    v1p = math.sqrt(b1_plus**2 + 0.5 * g * h_minus * (1.0 + 1.0 / ratio))
    minus = {"h": h_minus, "v": [ratio * v1p, 0.0], "B": [ratio * b1_plus, 0.0]}
    plus = {"h": ratio * h_minus, "v": [v1p, 0.0], "B": [b1_plus, 0.0]}
    return minus, plus


def _cfl_rate(states: list[dict], g: float, dx: float, dy: float | None = None) -> float:
    """sum over axes of max |extreme wave speed| / spacing, over the given states."""
    sx = max(abs(s["v"][0]) + math.sqrt(s["B"][0] ** 2 + g * s["h"]) for s in states)
    rate = sx / dx
    if dy is not None:
        rate += max(abs(s["v"][1]) + math.sqrt(s["B"][1] ** 2 + g * s["h"]) for s in states) / dy
    return rate


def _shock_params(rng: np.random.Generator) -> dict:
    return {"h_minus": rng.uniform(0.9, 1.1), "ratio": rng.uniform(1.8, 2.2),
            "b1_plus": rng.uniform(0.4, 0.6), "g": 1.0}


def _fv_end_time(shock: dict, t_ref: float, dx: float, dy: float | None) -> float:
    """End time giving the same CFL step count as the reference shock at t_ref."""
    ref = _cfl_rate(list(rectilinear_states(**_REF_SHOCK)), 1.0, dx, dy)
    cur = _cfl_rate(list(rectilinear_states(**shock)), shock["g"], dx, dy)
    return t_ref * ref / cur


def _shock2d(rng: np.random.Generator, tiny: bool) -> list[Job]:
    nx, ny = (32, 8) if tiny else (256, 64)
    shock = _shock_params(rng)
    minus, plus = rectilinear_states(**shock)
    end_time = _fv_end_time(shock, 0.5 if tiny else 1.5, 6.0 / nx, 1.0 / ny)
    doc = {
        "kind": "fv", "dimensions": 2, "cells": [nx, ny],
        "extents": [[0.0, 6.0], [0.0, 1.0]],
        "end_time": end_time, "cfl": 0.45, "g": shock["g"],
        "output_interval": end_time / 20.0,
        "boundary_x1": ["inflow", "outflow"], "boundary_x2": "periodic",
        "initial": {"type": "perturbed_shock", "minus": minus, "plus": plus,
                    "front_position": rng.uniform(1.9, 2.1),
                    "amplitude": rng.uniform(0.008, 0.012), "wavelengths": 1},
    }
    return [Job("shock2d", "fv2d", ["simulate", "--config"], doc)]


def _small_grids(rng: np.random.Generator, tiny: bool) -> list[Job]:
    cells = [24, 8] if tiny else [200, 40]
    end_time = 1.0 if tiny else 10.0
    # The shock is fixed (it sets dt); only the pulse moves with the seed.
    linear = {
        "kind": "linear",
        "shock": {"h_minus": 1.0, "ratio": 2.0, "b1_plus": 0.5, "b2": 0.0, "g": 1.0},
        "cells": cells, "extents": [[0.0, 8.0], [0.0, 4.0]],
        "end_time": end_time, "cfl": 0.45, "output_interval": end_time / 40.0,
        "pulse": {"center": [rng.uniform(2.7, 3.3), rng.uniform(1.8, 2.2)],
                  "width": rng.uniform(0.36, 0.44),
                  "p_amplitude": rng.uniform(0.8, 1.2),
                  "potential_amplitude": rng.uniform(0.4, 0.6)},
    }
    jobs = [Job("linear", "linear", ["simulate", "--config"], linear)]
    nx = 50 if tiny else 400
    for k in range(_N_SHOCKS_1D):
        shock = _shock_params(rng)
        minus, plus = rectilinear_states(**shock)
        end_time = _fv_end_time(shock, 0.5 if tiny else 5.0, 20.0 / nx, None)
        doc = {
            "kind": "fv", "dimensions": 1, "cells": [nx], "extents": [[-10.0, 10.0]],
            "end_time": end_time, "cfl": 0.45, "g": shock["g"],
            "output_interval": end_time / 10.0,
            "boundary_x1": ["outflow", "outflow"],
            "initial": {"type": "riemann", "minus": minus, "plus": plus,
                        "interface": rng.uniform(-0.5, 0.5)},
        }
        jobs.append(Job(f"shock1d-{k}", "fv1d", ["simulate", "--config"], doc))
    return jobs


def _sweeps(rng: np.random.Generator, tiny: bool) -> list[Job]:
    n_cvs = 12 if tiny else 200
    fixed = {"h": rng.uniform(0.9, 1.1), "g": rng.uniform(0.9, 1.1)}
    axes = {"x_axis": {"name": "v2_jump", "min": 0.0, "max": 6.0, "count": n_cvs},
            "y_axis": {"name": "b2_plus", "min": -2.0, "max": 2.0, "count": n_cvs}}
    nsc = {"verdict": "cvs-nsc", **axes, "fixed": fixed}
    sufficient = {"verdict": "cvs-sufficient", **axes,
                  "fixed": {"h": rng.uniform(0.9, 1.1), "epsilon": 1e-6}}
    lax = {"verdict": "lax",
           "x_axis": {"name": "ratio", "min": 0.2, "max": 3.0, "count": 10 if tiny else 60},
           "y_axis": {"name": "b1_plus", "min": 0.1, "max": 2.0, "count": 8 if tiny else 40},
           "fixed": {"h_minus": rng.uniform(0.9, 1.1), "b2": rng.uniform(-0.2, 0.2),
                     "g": rng.uniform(0.9, 1.1)}}
    argv = ["sweep", "--format", "both", "--spec"]
    return [Job("cvs-nsc", "sweep", argv, nsc),
            Job("cvs-sufficient", "sweep", argv, sufficient),
            Job("lax", "sweep", argv, lax)]


_BUILDERS = {"shock2d": _shock2d, "small-grids": _small_grids, "sweeps": _sweeps}


def build(workload: str, seed: int, config_dir: Path, tiny: bool = False) -> tuple[list[Job], str]:
    """Generate the workload's jobs, write their documents, return (jobs, sha256).

    Each job's ``argv`` ends with the path of its written document.  The
    hash covers the canonical JSON of every document, in job order.
    """
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = _BUILDERS[workload](rng, tiny)
    config_dir.mkdir(parents=True, exist_ok=True)
    digest = hashlib.sha256()
    for job in jobs:
        text = json.dumps(job.doc, sort_keys=True)
        digest.update(text.encode())
        path = config_dir / f"{job.name}.json"
        path.write_text(text + "\n", encoding="utf-8")
        job.argv = [*job.argv, str(path)]
    return jobs, digest.hexdigest()
