"""Two-parameter stability sweeps rendered as CSV grids and SVG heatmaps.

Supported verdict functions:

* ``lax``: construct the rectilinear shock for each (parameter) pair and
  evaluate the extreme-shock inequalities;
* ``cvs-sufficient``: the energy-method sufficient condition for a
  rectilinear current-vortex sheet;
* ``cvs-nsc``: the closed-form necessary/sufficient condition of the
  symmetric sheet, with its exceptional curves overplotted.

Verdict codes written to the CSV: 2 stable, 0 unstable, 3 exceptional,
1 inconclusive, -1 not evaluable (degenerate parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import PhysParams, State
from .errors import ConfigError, SmhdError
from .ioutil import fmt
from .shock import lax_verdict, rectilinear_shock
from .symmetrization import (
    CODE_EXCEPTIONAL,
    CODE_INCONCLUSIVE,
    CODE_STABLE,
    CODE_UNSTABLE,
    CvsStability,
    cvs_nsc_kernel,
    cvs_nsc_verdict,
    cvs_sufficient_kernel,
    cvs_sufficient_verdict,
    nsc_curves,
)

CODE_INVALID = -1

_COLORS = {
    CODE_STABLE: "#2a9d3f",
    CODE_UNSTABLE: "#c8311f",
    CODE_EXCEPTIONAL: "#e9c46a",
    CODE_INCONCLUSIVE: "#9a9a9a",
    CODE_INVALID: "#404040",
}

_NSC_CURVE_NAMES = ("a=b", "a=sqrt(b2+G)-b", "a=sqrt(b2+G)", "a=b*sqrt((b2+2G)/(b2+G))",
                    "a=2b", "a=2*sqrt(b2+2G)")

# Axis and fixed parameter names accepted per verdict.
_PARAMETERS = {
    "lax": ("ratio", "b1_plus", "h_minus", "b2", "g"),
    "cvs-sufficient": ("v2_jump", "b2_plus", "h", "g", "epsilon"),
    "cvs-nsc": ("v2_jump", "b2_plus", "h", "g"),
}


@dataclass
class Axis:
    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        self.lo = float(self.lo)
        self.hi = float(self.hi)
        self.count = int(self.count)
        if self.count < 2:
            raise ConfigError(f"axis {self.name!r} needs at least 2 samples")
        if not (np.isfinite(self.lo) and np.isfinite(self.hi) and self.hi > self.lo):
            raise ConfigError(f"axis {self.name!r} has an invalid range [{self.lo}, {self.hi}]")

    @property
    def values(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.count)


@dataclass
class SweepSpec:
    verdict: str
    x_axis: Axis
    y_axis: Axis
    fixed: dict

    def __post_init__(self):
        if self.verdict not in _PARAMETERS:
            raise ConfigError(f"unknown verdict {self.verdict!r}; "
                              f"expected one of {tuple(_PARAMETERS)}")
        if self.x_axis.name == self.y_axis.name:
            raise ConfigError(f"x and y axes are both {self.x_axis.name!r}")
        if not isinstance(self.fixed, dict):
            raise ConfigError("sweep 'fixed' must be an object")
        names = _PARAMETERS[self.verdict]
        for name in (self.x_axis.name, self.y_axis.name, *self.fixed):
            if name not in names:
                raise ConfigError(f"unknown {self.verdict} sweep parameter {name!r}; "
                                  f"expected one of {names}")
        try:
            self.fixed = {name: float(value) for name, value in self.fixed.items()}
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"non-numeric fixed sweep parameter: {exc}") from exc

    @staticmethod
    def from_dict(doc: dict) -> "SweepSpec":
        try:
            ax = doc["x_axis"]
            ay = doc["y_axis"]
            return SweepSpec(
                verdict=doc["verdict"],
                x_axis=Axis(ax["name"], ax["min"], ax["max"], ax["count"]),
                y_axis=Axis(ay["name"], ay["min"], ay["max"], ay["count"]),
                fixed=doc.get("fixed", {}),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"malformed sweep spec: {exc}") from exc


def symmetric_pair(v2_jump: float, b2_plus: float, h: float) -> tuple[State, State]:
    """Sheet sides (plus, minus) with v2 = +-v2_jump/2 and B2 = +-b2_plus, v1 = B1 = 0."""
    plus = State(h=h, v=[0.0, 0.5 * v2_jump], B=[0.0, b2_plus])
    minus = State(h=h, v=[0.0, -0.5 * v2_jump], B=[0.0, -b2_plus])
    return plus, minus


def evaluate_point(spec: SweepSpec, xv: float, yv: float) -> tuple[int, float]:
    """Verdict code and margin at one grid point."""
    p = dict(spec.fixed)
    p[spec.x_axis.name] = xv
    p[spec.y_axis.name] = yv
    g = float(p.get("g", 1.0))
    try:
        if spec.verdict == "lax":
            shock = rectilinear_shock(
                float(p.get("h_minus", 1.0)), float(p["ratio"]),
                float(p.get("b1_plus", 0.5)), float(p.get("b2", 0.0)), PhysParams(g))
            diag = lax_verdict(shock.side_pair())
            return (CODE_STABLE if diag.satisfied else CODE_UNSTABLE, abs(diag.height_jump))
        if spec.verdict == "cvs-sufficient":
            plus, minus = symmetric_pair(float(p["v2_jump"]), float(p["b2_plus"]),
                                         float(p.get("h", 1.0)))
            verdict = cvs_sufficient_verdict(plus, minus, float(p.get("epsilon", 1e-6)))
            code = CODE_STABLE if verdict.tag is CvsStability.SUFFICIENTLY_STABLE \
                else CODE_INCONCLUSIVE
            return code, verdict.margin
        plus, minus = symmetric_pair(float(p["v2_jump"]), float(p["b2_plus"]),
                                     float(p.get("h", 1.0)))
        verdict = cvs_nsc_verdict(plus, minus, PhysParams(g))
        code = {
            CvsStability.NSC_STABLE: CODE_STABLE,
            CvsStability.NSC_UNSTABLE: CODE_UNSTABLE,
            CvsStability.EXCEPTIONAL_POINT: CODE_EXCEPTIONAL,
        }.get(verdict.tag, CODE_INCONCLUSIVE)
        return code, verdict.margin
    except (SmhdError, ArithmeticError):
        return CODE_INVALID, 0.0
    except KeyError as exc:
        raise ConfigError(f"sweep is missing parameter {exc}") from exc


def run_sweep(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the grid; returns (codes, margins) shaped (nx, ny).

    ``lax`` calls ``evaluate_point`` per point.  The cvs verdicts run
    their array kernels on the whole grid, with code -1 wherever
    ``evaluate_point`` would hit a degenerate state: h <= 0, g <= 0
    (nsc), a non-finite parameter, B2 = 0 on both sides (sufficient) or
    b^2 + g h = 0 (nsc).
    """
    xs = spec.x_axis.values
    ys = spec.y_axis.values
    codes = np.empty((xs.size, ys.size), dtype=int)
    margins = np.empty((xs.size, ys.size))
    if spec.verdict == "lax":
        for i, xv in enumerate(xs):
            for j, yv in enumerate(ys):
                codes[i, j], margins[i, j] = evaluate_point(spec, xv, yv)
        return codes, margins
    p = dict(spec.fixed)
    p[spec.x_axis.name] = xs[:, None]
    p[spec.y_axis.name] = ys[None, :]
    try:
        v2_jump, b2_plus = p["v2_jump"], p["b2_plus"]
    except KeyError as exc:
        raise ConfigError(f"sweep is missing parameter {exc}") from exc
    h = p.get("h", 1.0)
    with np.errstate(all="ignore"):
        invalid = ~((h > 0.0) & np.isfinite(h) & np.isfinite(v2_jump) & np.isfinite(b2_plus))
        # |[v2]| of the sides symmetric_pair builds.
        jump = abs(0.5 * v2_jump - (-0.5 * v2_jump))
        if spec.verdict == "cvs-sufficient":
            invalid = invalid | (b2_plus == 0.0)
            code, margin = cvs_sufficient_kernel(jump, b2_plus, -b2_plus, p.get("epsilon", 1e-6))
        else:
            g = p.get("g", 1.0)
            b = abs(b2_plus)
            invalid = invalid | ~((g > 0.0) & np.isfinite(g)) | (b * b + g * h == 0.0)
            code, _, margin = cvs_nsc_kernel(jump, b, g * h)
    codes[...] = np.where(invalid, CODE_INVALID, code)
    margins[...] = np.where(invalid, 0.0, margin)
    return codes, margins


def sweep_csv(spec: SweepSpec, codes: np.ndarray, margins: np.ndarray, path: str | Path) -> None:
    """One row per grid point, x-major, in the 17-digit format of ``ioutil.fmt``."""
    lines = [f"{spec.x_axis.name},{spec.y_axis.name},code,margin"]
    ys = spec.y_axis.values.tolist()
    for xv, code_row, margin_row in zip(spec.x_axis.values.tolist(), codes, margins):
        lines.extend("%.17g,%.17g,%d,%.17g" % (xv, yv, code, margin)
                     for yv, code, margin in zip(ys, code_row.tolist(), margin_row.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _nsc_exception_curves(spec: SweepSpec) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Exceptional/boundary curves (|v2 jump| as a function of b2+)."""
    g = float(spec.fixed.get("g", 1.0))
    h = float(spec.fixed.get("h", 1.0))
    big_g = g * h
    if spec.x_axis.name == "v2_jump" and spec.y_axis.name == "b2_plus":
        b = np.abs(spec.y_axis.values)
        ordinate = spec.y_axis.values
        swap = False
    elif spec.y_axis.name == "v2_jump" and spec.x_axis.name == "b2_plus":
        b = np.abs(spec.x_axis.values)
        ordinate = spec.x_axis.values
        swap = True
    else:
        return []
    out = []
    for name, a in zip(_NSC_CURVE_NAMES, nsc_curves(b, big_g)):
        for sign in (1.0, -1.0):
            if swap:
                out.append((name, ordinate, sign * a))
            else:
                out.append((name, sign * a, ordinate))
    return out


def sweep_svg(spec: SweepSpec, codes: np.ndarray, path: str | Path,
              cell_px: int = 4, margin_px: int = 46) -> None:
    """Self-contained heatmap; one documented metadata comment line."""
    nx, ny = codes.shape
    width = nx * cell_px + 2 * margin_px
    height = ny * cell_px + 2 * margin_px
    xs = spec.x_axis
    ys = spec.y_axis

    def px(xv: float) -> float:
        return margin_px + (xv - xs.lo) / (xs.hi - xs.lo) * nx * cell_px

    def py(yv: float) -> float:
        return height - margin_px - (yv - ys.lo) / (ys.hi - ys.lo) * ny * cell_px

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- metadata: smhd sweep verdict={spec.verdict} grid={nx}x{ny} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    for code in sorted(set(codes.ravel().tolist())):
        color = _COLORS.get(int(code), "#000000")
        ii, jj = np.nonzero(codes == code)
        cells = "".join(f'M{margin_px + i * cell_px} {height - margin_px - (j + 1) * cell_px}'
                        f'h{cell_px}v{cell_px}h-{cell_px}z'
                        for i, j in zip(ii.tolist(), jj.tolist()))
        parts.append(f'<path d="{cells}" fill="{color}"/>')
    if spec.verdict == "cvs-nsc":
        for name, ax_vals, ay_vals in _nsc_exception_curves(spec):
            pts = []
            for xv, yv in zip(np.atleast_1d(ax_vals), np.atleast_1d(ay_vals)):
                if xs.lo <= xv <= xs.hi and ys.lo <= yv <= ys.hi:
                    pts.append(f"{px(xv):.2f},{py(yv):.2f}")
            if len(pts) > 1:
                parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                             f'stroke="#1b2a70" stroke-width="1" '
                             f'stroke-dasharray="3,2"><title>{name}</title></polyline>')
    parts.append(
        f'<text x="{width / 2:.0f}" y="{height - 10}" font-family="monospace" '
        f'font-size="11" text-anchor="middle">{xs.name} in [{fmt(xs.lo)}, {fmt(xs.hi)}]</text>')
    parts.append(
        f'<text x="14" y="{height / 2:.0f}" font-family="monospace" font-size="11" '
        f'text-anchor="middle" transform="rotate(-90 14 {height / 2:.0f})">'
        f'{ys.name} in [{fmt(ys.lo)}, {fmt(ys.hi)}]</text>')
    parts.append(
        f'<text x="{width / 2:.0f}" y="18" font-family="monospace" font-size="12" '
        f'text-anchor="middle">{spec.verdict} sweep '
        f'(green stable / red unstable / yellow exceptional / gray inconclusive)</text>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
