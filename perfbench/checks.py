"""Correctness checks for each job's outputs.

Every check returns a list of problems; an empty list is a pass.  The
sweep oracle evaluates the closed-form stability conditions with numpy,
independently of ``smhd.sweep``:

* ``lax``: stable iff h+/h- > 1 (the height increases), margin |h+ - h-|;
  not evaluable (-1) at h+/h- = 1, which admits no shock;
* ``cvs-sufficient``: stable iff |B2+| + |B2-| - |[v2]| >= epsilon (and
  max |B2| >= epsilon), else inconclusive; not evaluable where B2 = 0 on
  both sides;
* ``cvs-nsc``: with a = |[v2]|, b = |B2+|, G = g h, exceptional within a
  relative band of 1e-9 around the six curves a = b, sqrt(b^2+G) - b,
  sqrt(b^2+G), b sqrt((b^2+2G)/(b^2+G)), 2b, 2 sqrt(b^2+2G); otherwise
  stable iff a < 2b or a > 2 sqrt(b^2+2G).
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

STABLE, UNSTABLE, EXCEPTIONAL, INCONCLUSIVE, INVALID = 2, 0, 3, 1, -1
NSC_BAND = 1e-9


def _axis(doc: dict, key: str) -> np.ndarray:
    ax = doc[key]
    return np.linspace(float(ax["min"]), float(ax["max"]), int(ax["count"]))


def sweep_oracle(doc: dict) -> tuple[np.ndarray, np.ndarray | None]:
    """Expected (codes, margins) on the (x, y) grid of a sweep spec.

    Margins are returned where they have a closed form (lax and
    cvs-sufficient), else None.
    """
    xs, ys = _axis(doc, "x_axis"), _axis(doc, "y_axis")
    grid = {doc["x_axis"]["name"]: xs[:, None] + 0.0 * ys[None, :],
            doc["y_axis"]["name"]: 0.0 * xs[:, None] + ys[None, :]}
    fixed = doc.get("fixed", {})
    verdict = doc["verdict"]
    if verdict == "lax":
        ratio = grid["ratio"]
        h_minus = float(fixed.get("h_minus", 1.0))
        codes = np.where(np.abs(ratio - 1.0) <= 1e-9, INVALID,
                         np.where(ratio > 1.0, STABLE, UNSTABLE))
        return codes, np.where(codes == INVALID, 0.0, np.abs(ratio * h_minus - h_minus))
    a = np.abs(grid["v2_jump"])
    b = np.abs(grid["b2_plus"])
    if verdict == "cvs-sufficient":
        eps = float(fixed.get("epsilon", 1e-6))
        total = 2.0 * b
        ok = (total - a >= eps) & (b >= eps)
        codes = np.where(b == 0.0, INVALID, np.where(ok, STABLE, INCONCLUSIVE))
        return codes, np.where(codes == INVALID, 0.0, np.abs(total - a))
    big_g = float(fixed.get("g", 1.0)) * float(fixed.get("h", 1.0))
    outer = 2.0 * np.sqrt(b * b + 2.0 * big_g)
    curves = [b, np.sqrt(b * b + big_g) - b, np.sqrt(b * b + big_g),
              b * np.sqrt((b * b + 2.0 * big_g) / (b * b + big_g)), 2.0 * b, outer]
    band = NSC_BAND * np.maximum(np.maximum(1.0, a), outer)
    exceptional = np.zeros(a.shape, dtype=bool)
    for curve in curves:
        exceptional |= np.abs(a - curve) <= band
    stable = (a < 2.0 * b) | (a > outer)
    return np.where(exceptional, EXCEPTIONAL, np.where(stable, STABLE, UNSTABLE)), None


def _load_csv(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _parse(stdout: str, pattern: str) -> float | None:
    m = re.search(pattern, stdout)
    return float(m.group(1)) if m else None


_NUM = r"([-+0-9.eEinfINFna]+)"


def check_sweep(doc: dict, out: Path) -> list[str]:
    problems = []
    rows = _load_csv(out / "sweep.csv")
    nx, ny = int(doc["x_axis"]["count"]), int(doc["y_axis"]["count"])
    if rows.shape != (nx * ny, 4):
        return [f"sweep.csv has shape {rows.shape}, expected ({nx * ny}, 4)"]
    xs, ys = _axis(doc, "x_axis"), _axis(doc, "y_axis")
    if not (np.array_equal(rows[:, 0], np.repeat(xs, ny)) and
            np.array_equal(rows[:, 1], np.tile(ys, nx))):
        problems.append("sweep.csv grid coordinates differ from the spec axes")
    codes, margins = sweep_oracle(doc)
    got = rows[:, 2].reshape(nx, ny)
    bad = int(np.sum(got != codes))
    if bad:
        problems.append(f"{bad} of {nx * ny} sweep codes differ from the closed-form oracle")
    if not np.all(np.isfinite(rows[:, 3])):
        problems.append("non-finite sweep margins")
    elif margins is not None and not np.allclose(rows[:, 3].reshape(nx, ny), margins,
                                                 rtol=1e-12, atol=1e-12):
        problems.append("sweep margins differ from the closed form")
    svg = (out / "sweep.svg").read_text(encoding="utf-8")
    if not (svg.startswith("<?xml") and svg.rstrip().endswith("</svg>")):
        problems.append("sweep.svg is not a complete SVG document")
    return problems


def check_fv(doc: dict, out: Path, stdout: str) -> list[str]:
    problems = []
    snap = _load_csv(out / "snapshot.csv")
    dims = int(doc["dimensions"])
    cells = int(np.prod(doc["cells"]))
    if snap.shape != (cells, 5 + dims):
        return [f"snapshot.csv has shape {snap.shape}, expected ({cells}, {5 + dims})"]
    if not np.all(np.isfinite(snap)):
        problems.append("non-finite values in the final snapshot")
    if not np.all(snap[:, dims] > 0.0):
        problems.append("non-positive height in the final snapshot")
    defect = _parse(stdout, r"max conservation defect: " + _NUM)
    if defect is None or not defect < 1e-12:
        problems.append(f"conservation defect {defect} is not below 1e-12")
    if dims == 1:
        (x0, x1), = doc["extents"]
        dx = (x1 - x0) / doc["cells"][0]
        drift = _parse(stdout, r"front drift: " + _NUM)
        if drift is None or not drift < 2.0 * dx:
            problems.append(f"front drift {drift} is not below 2 dx = {2.0 * dx}")
    else:
        amp = _load_csv(out / "timeseries.csv")[:, 7]
        amp = amp[np.isfinite(amp)]
        if amp.size < 2 or not amp[0] > 0.0:
            problems.append("no front amplitude recorded")
        elif not amp[-1] / amp[0] <= 3.0:
            problems.append(f"front amplitude ratio a(T)/a(0) = {amp[-1] / amp[0]:.4g} > 3")
    return problems


def check_linear(out: Path, stdout: str) -> list[str]:
    problems = []
    ratio = _parse(stdout, r"norm ratio max_t \|\|U\|\|/\|\|U\(0\)\|\| = " + _NUM)
    if ratio is None or not ratio < 10.0:
        problems.append(f"norm ratio {ratio} is not below 10")
    h1 = _load_csv(out / "timeseries.csv")[:, 2]
    if not (np.all(np.isfinite(h1)) and h1[0] > 0.0 and np.max(h1) / h1[0] < 10.0):
        problems.append("timeseries.csv: H1 norm ratio is not finite and below 10")
    return problems


def check_job(kind: str, doc: dict, code, out: Path, stdout: str) -> list[str]:
    """Problems with one job's exit code and outputs."""
    if code != 0:
        return [f"exit code {code}"]
    try:
        if kind == "sweep":
            return check_sweep(doc, out)
        if kind == "linear":
            return check_linear(out, stdout)
        return check_fv(doc, out, stdout)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
