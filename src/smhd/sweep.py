"""Two-parameter stability sweeps rendered as CSV grids and SVG heatmaps.

Supported verdict functions:

* ``lax``: the extreme-shock inequalities of the rectilinear shock
  family (``rectilinear_shock`` + ``lax_verdict``);
* ``cvs-sufficient``: the energy-method sufficient condition for a
  rectilinear current-vortex sheet;
* ``cvs-nsc``: the closed-form necessary/sufficient condition of the
  symmetric sheet, with its exceptional curves overplotted.

``run_sweep`` evaluates each verdict once on the whole grid, with the
array kernel that its pointwise API calls too.

Verdict codes written to the CSV: 2 stable, 0 unstable, 3 exceptional,
1 inconclusive, -1 not evaluable (degenerate parameters).
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import FrontGeometry, State
from .errors import ConfigError
from .ioutil import check_count, check_keys, check_number, fmt, write_rows_csv
from .jumps import KIND_SHOCK, kind_code, side_traces
from .shock import lax_kernel, rectilinear_family
from .symmetrization import (
    CODE_EXCEPTIONAL,
    CODE_INCONCLUSIVE,
    CODE_STABLE,
    CODE_UNSTABLE,
    DEFAULT_EPSILON,
    cvs_nsc_kernel,
    cvs_sufficient_kernel,
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

_AXIS_KEYS = ("name", "min", "max", "count")
# Most points along one sweep axis (a 1024 x 1024 map).
MAX_COUNT = 1024
# Side of one grid cell and width of the frame around the map, in SVG pixels.
CELL_PX, MARGIN_PX = 4, 46

_NSC_CURVE_NAMES = ("a=b", "a=sqrt(b2+G)-b", "a=sqrt(b2+G)", "a=b*sqrt((b2+2G)/(b2+G))",
                    "a=2b", "a=2*sqrt(b2+2G)")

# Axis and fixed parameter names accepted per verdict, with their defaults
# (None: the sweep must set it).
_PARAMETERS = {
    "lax": {"ratio": None, "b1_plus": 0.5, "h_minus": 1.0, "b2": 0.0, "g": 1.0},
    "cvs-sufficient": {"v2_jump": None, "b2_plus": None, "h": 1.0, "g": 1.0,
                       "epsilon": DEFAULT_EPSILON},
    "cvs-nsc": {"v2_jump": None, "b2_plus": None, "h": 1.0, "g": 1.0},
}


@dataclass
class Axis:
    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise ConfigError(f"axis name must be a string, got {self.name!r}")
        self.lo = check_number(self.lo, f"axis {self.name!r} min")
        self.hi = check_number(self.hi, f"axis {self.name!r} max")
        self.count = check_count(self.count, f"axis {self.name!r} count", 2, MAX_COUNT)
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
        if not isinstance(self.verdict, str) or self.verdict not in _PARAMETERS:
            raise ConfigError(f"unknown verdict {self.verdict!r}; "
                              f"expected one of {tuple(_PARAMETERS)}")
        if self.x_axis.name == self.y_axis.name:
            raise ConfigError(f"x and y axes are both {self.x_axis.name!r}")
        names, what = tuple(_PARAMETERS[self.verdict]), f"{self.verdict} sweep parameter"
        check_keys(dict.fromkeys((self.x_axis.name, self.y_axis.name)), names, what)
        self.fixed = {name: check_number(value, f"fixed {name}")
                      for name, value in check_keys(self.fixed, names, what).items()}

    @staticmethod
    def from_dict(doc: dict) -> "SweepSpec":
        keys = ("verdict", "x_axis", "y_axis")
        check_keys(doc, (*keys, "fixed"), "sweep spec key", required=keys)
        ax, ay = (check_keys(doc[axis], _AXIS_KEYS, f"{axis} key", required=_AXIS_KEYS)
                  for axis in ("x_axis", "y_axis"))
        return SweepSpec(verdict=doc["verdict"], x_axis=Axis(*(ax[k] for k in _AXIS_KEYS)),
                         y_axis=Axis(*(ay[k] for k in _AXIS_KEYS)), fixed=doc.get("fixed", {}))


def symmetric_pair(v2_jump: float, b2_plus: float, h: float) -> tuple[State, State]:
    """Sheet sides (plus, minus) with v2 = +-v2_jump/2 and B2 = +-b2_plus, v1 = B1 = 0."""
    plus = State(h=h, v=[0.0, 0.5 * v2_jump], B=[0.0, b2_plus])
    minus = State(h=h, v=[0.0, -0.5 * v2_jump], B=[0.0, -b2_plus])
    return plus, minus


def _grid(spec: SweepSpec) -> dict:
    """Every parameter of the verdict as an array broadcasting to (nx, ny); axes override."""
    values = {**_PARAMETERS[spec.verdict], **spec.fixed,
              spec.x_axis.name: spec.x_axis.values[:, None],
              spec.y_axis.name: spec.y_axis.values[None, :]}
    for name, value in values.items():
        if value is None:
            raise ConfigError(f"sweep is missing parameter {name!r}")
    return {name: np.asarray(value, dtype=float) for name, value in values.items()}


def _lax(p: dict) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(invalid, code, margin) of the rectilinear shock family.

    v1 > 0 and B1+ > 0, so the canonical orientation is the identity.
    Invalid are the points where ``rectilinear_shock`` + ``lax_verdict`` raise.
    """
    h_minus, ratio, b1_plus, b2, g = np.broadcast_arrays(
        p["h_minus"], p["ratio"], p["b1_plus"], p["b2"], p["g"])
    shock = rectilinear_family(h_minus, ratio, b1_plus, b2, g)
    plus, minus = shock.grid_sides()
    front = FrontGeometry()
    satisfied, _, _ = lax_kernel(side_traces(plus, minus, front), plus.h, minus.h, g, front.speed)
    heights = np.array([plus.h, minus.h])
    invalid = (~((g > 0.0) & np.isfinite(g))
               | ~(b1_plus > 0.0)
               | ~np.all(heights > 0.0, axis=0)
               # State's finiteness check; b1_plus * b1_plus overflowing makes v1 infinite
               | ~np.all(np.isfinite([*heights, *plus.v, *plus.B, *minus.v, *minus.B]), axis=0)
               # not a shock; h_mean * h_mean overflowing makes classify's band infinite
               | (kind_code(plus, minus, front, g) != KIND_SHOCK))
    return invalid, np.where(satisfied, CODE_STABLE, CODE_UNSTABLE), abs(plus.h - minus.h)


def _cvs(p: dict, verdict: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(invalid, code, margin) of the sheets of ``symmetric_pair``.

    Invalid are the points where the pointwise verdicts raise.
    """
    v2_jump, b2_plus, h = p["v2_jump"], p["b2_plus"], p["h"]
    invalid = ~((h > 0.0) & np.isfinite(h) & np.isfinite(v2_jump) & np.isfinite(b2_plus))
    # |[v2]| of the sides symmetric_pair builds.
    jump = abs(0.5 * v2_jump - (-0.5 * v2_jump))
    if verdict == "cvs-sufficient":
        code, margin = cvs_sufficient_kernel(jump, b2_plus, -b2_plus, p["epsilon"])
        return invalid | (b2_plus == 0.0), code, margin
    g = p["g"]
    b = abs(b2_plus)
    code, _, margin = cvs_nsc_kernel(jump, b, g * h)
    return invalid | ~((g > 0.0) & np.isfinite(g)) | (b * b + g * h == 0.0), code, margin


def run_sweep(spec: SweepSpec) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the grid with the verdict's kernel; returns (codes, margins) shaped (nx, ny).

    Code -1 (margin 0) marks the points where the pointwise API raises.
    """
    p = _grid(spec)
    with np.errstate(all="ignore"):
        invalid, code, margin = _lax(p) if spec.verdict == "lax" else _cvs(p, spec.verdict)
    codes = np.empty((spec.x_axis.count, spec.y_axis.count), dtype=int)
    margins = np.empty(codes.shape)
    codes[...] = np.where(invalid, CODE_INVALID, code)
    margins[...] = np.where(invalid, 0.0, margin)
    return codes, margins


def sweep_csv(spec: SweepSpec, codes: np.ndarray, margins: np.ndarray, path: str | Path) -> None:
    """One row per grid point, x-major: both axis values, the integer code, the margin."""
    xs, ys = np.meshgrid(spec.x_axis.values, spec.y_axis.values, indexing="ij")
    write_rows_csv(f"{spec.x_axis.name},{spec.y_axis.name},code,margin",
                   (xs.ravel(), ys.ravel(), codes.ravel(), margins.ravel()), path)


def _nsc_exception_curves(spec: SweepSpec) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """Exceptional/boundary curves (|v2 jump| as a function of b2+) on those two axes."""
    if {spec.x_axis.name, spec.y_axis.name} != {"v2_jump", "b2_plus"}:
        return []
    p = _grid(spec)
    b2 = p["b2_plus"].ravel()
    swap = spec.x_axis.name == "b2_plus"
    return [(name, b2, sign * a) if swap else (name, sign * a, b2)
            for name, a in zip(_NSC_CURVE_NAMES, nsc_curves(abs(b2), p["g"] * p["h"]))
            for sign in (1.0, -1.0)]


def sweep_svg(spec: SweepSpec, codes: np.ndarray, path: str | Path) -> None:
    """Self-contained heatmap; one documented metadata comment line.

    One path per verdict code draws that code's cells in row-major order.
    The nx x-offset strings and the ny y-offset strings are formatted once
    per map, and each cell is the concatenation of its two strings.  A
    cvs-nsc map overplots each curve's in-range points as one polyline.
    """
    nx, ny = codes.shape
    width = nx * CELL_PX + 2 * MARGIN_PX
    height = ny * CELL_PX + 2 * MARGIN_PX
    xs = spec.x_axis
    ys = spec.y_axis
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f"<!-- metadata: smhd sweep verdict={spec.verdict} grid={nx}x{ny} -->",
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="#ffffff"/>',
    ]
    # cell (i, j) is the x-offset string i followed by the y-offset string j
    x_cells = np.array([f"M{MARGIN_PX + i * CELL_PX} " for i in range(nx)], dtype=object)
    y_cells = np.array([f"{height - MARGIN_PX - (j + 1) * CELL_PX}"
                        f"h{CELL_PX}v{CELL_PX}h-{CELL_PX}z" for j in range(ny)], dtype=object)
    for code in np.unique(codes).tolist():
        ii, jj = np.nonzero(codes == code)
        cells = "".join((x_cells[ii] + y_cells[jj]).tolist())
        parts.append(f'<path d="{cells}" fill="{_COLORS.get(code, "#000000")}"/>')
    if spec.verdict == "cvs-nsc":
        for name, ax_vals, ay_vals in _nsc_exception_curves(spec):
            inside = ((xs.lo <= ax_vals) & (ax_vals <= xs.hi)
                      & (ys.lo <= ay_vals) & (ay_vals <= ys.hi))
            px = MARGIN_PX + (ax_vals[inside] - xs.lo) / (xs.hi - xs.lo) * nx * CELL_PX
            py = height - MARGIN_PX - (ay_vals[inside] - ys.lo) / (ys.hi - ys.lo) * ny * CELL_PX
            if px.size > 1:
                pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(px.tolist(), py.tolist()))
                parts.append(f'<polyline points="{pts}" fill="none" '
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
