"""First-order finite-volume simulator for the conservation-law form.

Godunov-type updates with HLL fluxes and Davis wave-speed bounds, in 1D
and on a 2D slab that is periodic in x2.  The scheme is deliberately
plain: no reconstruction, no divergence cleaning; div(h B) is recorded
as a one-sided difference diagnostic so that constraint transport can
be observed rather than enforced.  Heights are never clipped (a
non-positive one raises PositivityLoss): with Davis bounds the HLL
intermediate height stays positive (Einfeldt et al., JCP 92 (1991) 273).

``simulate_1d`` and ``simulate_2d`` run the same time loop
(``_simulate``) over their active axes: the CFL rate, the flux-difference
update and the boundary-flux conservation defect are sums over axes.
Each run holds one ghost-padded state (``_PaddedState``), shaped
(5, n1 + 2, n2 + 2) or (5, n + 2) and read flat as (5, L).  A step copies
q into it once, refreshes the ghost cells, and evaluates every cell's
fluxes along both axes (``core.FluxPlan``) and extreme wave speeds
(``core.fast_speed``) once, from one division by h; the flux rows that
are identically zero are written once per run.  The speeds are clamped
once per cell, lo = min(lo, 0) and hi = max(hi, 0): that is the contract
of ``_hll_faces``, whose face speeds min(lo_l, lo_r) and max(hi_l, hi_r)
are then the min and max of the same three numbers as an unclamped
face's min(lo_l, lo_r, 0) and max(hi_l, hi_r, 0).  Cells that neighbour
along an axis lie a fixed flat offset apart (n2 + 2 along x1, 1 along x2
and in 1D), so ``_hll_faces`` forms the faces of either axis from two
contiguous windows of those flat arrays, in a weight form whose clamped
speeds cover the upwind faces without a branch.  Faces that straddle a
ghost column or a row end are computed and never read.  The CFL step
takes its maximum speed from the interior cells of the speed arrays, so
a pinned inflow ghost never sets dt.  A non-finite wave speed or
conservation defect, or zero CFL speeds, aborts with NonFiniteState; the
loop runs with numpy's overflow and invalid-value warnings off, so a flux
that overflows ends the run through that check alone.

Each run has a step plan: every view, reshape and buffer that a step
touches (the state's rows, the flux plan, each axis's face operands, its
flux-difference windows and boundary faces, the cell sums) is built once
when the run starts, and a step then issues only ufunc calls with
``out=`` on them.  At a few hundred cells each numpy call costs more than
its arithmetic, so this, not the arithmetic, sets the cost of a 1D step.
``_hll_faces`` and ``_check_positive`` stay module functions that the
loop calls through the module, once per axis and once per step, so that
a profiler that replaces them sees every call.

The update runs in place: each axis's flux difference is taken over the
flat face array into one buffer allocated per run, scaled by dt / dx and
subtracted from the interior cells of q, so a step makes no full-state
temporary.  q stays its own contiguous array, so the cell sums, taken
once per step, keep their rounding; they are the record row's sums and
the next step's reference for the conservation defect.  The grid and the
record cadence are ``ioutil.cell_grid`` and ``ioutil.Recorder``, shared
with the linear solver.

Each simulation owns its arrays; flux evaluation is vectorized over
cells and reductions use numpy's pairwise summation, so results are
bit-for-bit reproducible for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (FluxPlan, PhysParams, State, conserved_from_primitive, fast_speed, fluxes,
                   normal_speeds)
from .errors import CflViolation, ConfigError, NonFiniteState, PositivityLoss
from .ioutil import (MAX_CELLS, MAX_STEPS, Recorder, cell_grid, check_count, check_float,
                     check_keys, check_number, check_pair, check_run_fields, config_kwargs,
                     state_from_doc)

Array = np.ndarray
# Fraction of the level jump that bounds the band of transition_band_width.
BAND_FRAC = 0.2


# ---------------------------------------------------------------------------
# HLL flux


def hll_flux(left: State, right: State, unit_normal, params: PhysParams) -> Array:
    """HLL numerical flux through a face with the given unit normal.

    Consistent and conservative; wave bounds are the extreme characteristic
    speeds of the two states (Davis estimate).  The face is formed by the
    weight form of ``_hll_faces`` that the simulators run, so equal states and
    faces whose two speeds are both >= 0 return the left state's projected
    flux exactly.
    """
    n = np.asarray(unit_normal, dtype=float).reshape(2)
    q = np.stack([conserved_from_primitive(left), conserved_from_primitive(right)], axis=1)
    f1l, f2l = fluxes(left, params)
    f1r, f2r = fluxes(right, params)
    f = np.stack([n[0] * f1l + n[1] * f2l, n[0] * f1r + n[1] * f2r], axis=1)
    sl_l = normal_speeds(left, params, n)
    sl_r = normal_speeds(right, params, n)
    lo = np.array([sl_l[0], sl_r[0]])
    hi = np.array([sl_l[-1], sl_r[-1]])
    cells = (q, f, np.minimum(lo, 0.0), np.maximum(hi, 0.0))
    faces = _Faces([a[..., :1] for a in cells], [a[..., 1:] for a in cells])
    return _hll_faces(faces)[:, 0].copy()


class _FaceBuffers:
    """Preallocated outputs and temporaries of ``_hll_faces`` for ``size`` faces."""

    def __init__(self, size: int):
        self.flux = np.empty((5, size))
        self.tmp = np.empty((5, size))
        self.s_left = np.empty(size)
        self.s_right = np.empty(size)
        self.denom = np.empty(size)
        self.mask = np.empty(size, dtype=bool)


class _Faces:
    """The operands of ``_hll_faces`` for n faces, built once for fixed arrays.

    ``left`` and ``right`` hold each face's two sides: the conserved fields and
    physical fluxes (5, n) and the extreme speeds lo and hi (n,) of a cell, with
    the speeds already clamped to lo <= 0 <= hi; each was evaluated once per
    cell.  ``buf`` holds n faces; the faces along different axes can share one.
    """

    def __init__(self, left, right, buf: _FaceBuffers | None = None):
        (self.ql, self.fl, self.lo_l, self.hi_l), (self.qr, self.fr, self.lo_r, self.hi_r) = \
            left, right
        self.buf = _FaceBuffers(len(self.lo_l)) if buf is None else buf


def _hll_faces(p: _Faces) -> Array:
    """HLL flux at every face of ``p``, written into ``p.buf.flux``.

    The face speeds are sL = min(lo_l, lo_r) and sR = max(hi_l, hi_r): with
    the cell speeds clamped, these are min(lo_l, lo_r, 0) and max(hi_l, hi_r, 0).
    With den = sR - sL (1 where it is 0), the face flux is, in weight form,

        F = fl + b (fr - fl) - c (qr - ql),   b = -sL / den,  c = -sL sR / den.

    The clamp stands in for the upwind branches: F is exactly fl for equal
    states and where sL >= 0 (b = c = 0), and fl + (fr - fl), within an ulp
    of fr, where sR <= 0 (b = 1, c = 0).
    """
    buf = p.buf
    s_left = np.minimum(p.lo_l, p.lo_r, out=buf.s_left)
    s_right = np.maximum(p.hi_l, p.hi_r, out=buf.s_right)
    # -den, so that b = sL / -den and c = sL sR / -den need no negation; where it
    # is 0, sL = sR = 0 and the guard 1 gives b = c = 0
    neg_denom = np.subtract(s_left, s_right, out=buf.denom)
    if np.count_nonzero(np.equal(neg_denom, 0.0, out=buf.mask)):
        np.copyto(neg_denom, 1.0, where=buf.mask)
    c = np.multiply(s_left, s_right, out=s_right)
    c /= neg_denom
    b = np.divide(s_left, neg_denom, out=s_left)
    out = np.subtract(p.fr, p.fl, out=buf.flux)
    out *= b
    out += p.fl
    tmp = np.subtract(p.qr, p.ql, out=buf.tmp)
    tmp *= c
    out -= tmp
    return out


def _index(ndim: int, axis: int, part) -> tuple:
    """Index of a padded (5, ...) array: ``part`` along ``axis``, the interior along
    every other axis."""
    return (slice(None), *(part if k == axis else slice(1, -1) for k in range(ndim)))


class _PaddedState:
    """The state with one ghost cell at each end of every axis, and the operands of
    every step, allocated once per run.

    The padded array has shape (5, n1 + 2, n2 + 2), or (5, n + 2) in 1D, and
    is read flat as (5, L).  Cells that neighbour along an axis lie a fixed
    flat offset apart: n2 + 2 along x1, 1 along x2 and in 1D.  So along
    either axis the faces k = 0 .. L - 1, between flat cells k and
    k + offset, have their two sides in contiguous (5, L) windows of the
    per-cell arrays, and their fluxes form one contiguous (5, L) array that
    reshapes to the padded shape.  Each per-cell array (the state, the fluxes
    and the speeds) is rows of L cells in one buffer that runs one x1 offset
    past its last row, so the right window of a row reaches into the next row
    or that spare end.  Faces whose right cell lies there, or that straddle a
    ghost column or a row end, are computed and never read.

    ``sides[axis]`` gives the ghost cell at each end of that axis:
    ``"periodic"``, ``"outflow"`` (copy of the edge cell) or a pinned
    conserved 5-vector (inflow), which is written once here and never
    touched again.  The corner cells belong to no face that is read; they
    hold h = 1, and the spare ends 0, so that every cell and face term stays
    finite.

    The flux plan (``core.FluxPlan``), the faces of each axis (``_Faces``,
    sharing one ``_FaceBuffers``) and every view that ``load`` reads are built
    here, so a step issues only ufunc calls on them.  The temporaries of the
    fluxes and speeds live in the face buffers, which are free until the
    faces are formed.
    """

    def __init__(self, cells: tuple[int, ...], sides, g: float):
        ndim = len(cells)
        shape = tuple(n + 2 for n in cells)
        self.g, self.shape = g, shape
        self.size = size = math.prod(shape)
        self.offsets = [math.prod(shape[axis + 1:]) for axis in range(ndim)]
        q, f, lo, hi = (np.zeros(rows * size + self.offsets[0])
                        for rows in (5, 5 * ndim, ndim, ndim))

        def window(a: Array, start: int, rows: int) -> Array:
            return a[start:start + rows * size].reshape(rows, size)

        self.flat = window(q, 0, 5)
        self.flat[0] = 1.0
        self.padded = self.flat.reshape(5, *shape)
        self.inner = (slice(None),) + (slice(1, -1),) * ndim
        self.interior = self.padded[self.inner]
        self.h, self.hq = self.flat[0], self.flat[1:]  # h and (h v, h B)
        self.prim = np.empty((4, size))  # v1, v2, B1, B2
        self.vn, self.bn = self.prim[:ndim], self.prim[2:2 + ndim]
        self.f = window(f, 0, 5 * ndim).reshape(ndim, 5, size)  # its zero rows stay 0
        self.lo, self.hi = window(lo, 0, ndim), window(hi, 0, ndim)  # speeds along each axis
        self.buf = _FaceBuffers(size)
        self.fluxes = FluxPlan(self.flat, self.prim, g, ndim, self.f, self.buf.tmp)
        self.gh = self.buf.denom
        self.interior_speeds = self.cells(self.lo), self.cells(self.hi)
        self.cell_axes = tuple(range(1, ndim + 1))
        self.lo_min, self.hi_max = np.empty((2, ndim))

        def terms(axis: int, k: int) -> tuple:
            """The (q, f, lo, hi) along ``axis`` of the L flat cells from cell k on."""
            start = size * axis + k
            return (window(q, k, 5), window(f, 5 * size * axis + k, 5),
                    lo[start:start + size], hi[start:start + size])

        self.plans = [_Faces(terms(axis, 0), terms(axis, s), self.buf)
                      for axis, s in enumerate(self.offsets)]
        first, last = 1, -2  # edge cells of the interior
        sources = {"outflow": (first, last), "periodic": (last, first)}
        self.copies = []  # (ghost, source) views refreshed every step
        for axis, ends in enumerate(sides):
            for end, side in enumerate(ends):
                ghost = self.padded[_index(ndim, axis, (0, -1)[end])]
                if isinstance(side, str):
                    self.copies.append((ghost, self.padded[_index(ndim, axis,
                                                                   sources[side][end])]))
                else:
                    np.copyto(ghost, np.reshape(side, (5,) + (1,) * (ndim - 1)))

    def load(self, q: Array) -> list[float]:
        """Copy ``q`` in, refresh the ghosts, evaluate every cell's flux along each axis and
        extreme speeds (lo, hi) from one q / h, clamp the speeds to lo <= 0 <= hi, and
        return the largest wave speed of the interior cells per axis: a pinned inflow
        ghost never sets the time step.  As hi >= lo cell by cell, that speed is
        max(hi.max(), -lo.min()), which the clamp leaves unchanged."""
        self.interior[...] = q
        for ghost, src in self.copies:
            ghost[...] = src
        lo, hi = self.lo, self.hi
        np.divide(self.hq, self.h, out=self.prim)
        self.fluxes()
        fast_speed(self.bn, self.h, self.g, out=hi, gh=self.gh)
        np.subtract(self.vn, hi, out=lo)
        np.minimum(lo, 0.0, out=lo)
        np.add(self.vn, hi, out=hi)
        np.maximum(hi, 0.0, out=hi)
        lo_min, hi_max = self.lo_min, self.hi_max
        np.minimum.reduce(self.interior_speeds[0], axis=self.cell_axes, out=lo_min)
        np.maximum.reduce(self.interior_speeds[1], axis=self.cell_axes, out=hi_max)
        np.negative(lo_min, out=lo_min)
        return np.maximum(hi_max, lo_min, out=hi_max).tolist()

    def cells(self, a: Array) -> Array:
        """The interior cells of a flat (k, L) array, shaped (k, *cells)."""
        return a.reshape(len(a), *self.shape)[self.inner]

    def faces(self, axis: int) -> Array:
        """HLL fluxes along ``axis`` of the loaded state, (5, L) and contiguous: column k
        is the face between flat cells k and k + offset."""
        return _hll_faces(self.plans[axis])


# ---------------------------------------------------------------------------
# Configuration


_BOUNDARY_KINDS = ("outflow", "periodic", "inflow")


@dataclass
class SimConfig:
    """Grid, time, boundary, and initial-data description of a run."""

    dimensions: int
    cells: tuple[int, ...]
    extents: tuple[tuple[float, float], ...]
    end_time: float
    initial: dict
    cfl: float = 0.45
    g: float = 1.0
    output_interval: float | None = None
    boundary_x1: tuple[str, str] = ("outflow", "outflow")
    boundary_x2: str = "periodic"
    dt_fixed: float | None = None

    def __post_init__(self):
        self.dimensions = check_count(self.dimensions, "dimensions", 1, 2)
        check_run_fields(self, self.dimensions)
        self.g = check_float(self.g, "g")
        if isinstance(self.boundary_x1, str):
            self.boundary_x1 = (self.boundary_x1, self.boundary_x1)
        if not isinstance(self.boundary_x1, (list, tuple)) or len(self.boundary_x1) != 2 or \
                any(b not in _BOUNDARY_KINDS for b in self.boundary_x1):
            raise ConfigError(f"unknown x1 boundary in {self.boundary_x1}")
        self.boundary_x1 = tuple(self.boundary_x1)
        if "periodic" in self.boundary_x1 and self.boundary_x1 != ("periodic", "periodic"):
            raise ConfigError("periodic x1 boundaries must be used on both ends")
        if self.boundary_x2 not in ("periodic", "outflow"):
            raise ConfigError(f"unknown x2 boundary {self.boundary_x2!r}")
        if not isinstance(self.initial, dict) or "type" not in self.initial:
            raise ConfigError("initial data descriptor must be a dict with a 'type'")
        if self.dt_fixed is not None:
            self.dt_fixed = check_float(self.dt_fixed, "dt_fixed")

    @staticmethod
    def from_dict(doc: dict) -> "SimConfig":
        """Config of a ``"kind": "fv"`` document; unknown or missing keys are ConfigErrors."""
        return SimConfig(**config_kwargs(SimConfig, doc, allowed=("kind",)))


# ---------------------------------------------------------------------------
# Initial data


def _mix(frac: Array, q_left: Array, q_right: Array) -> Array:
    """Volume-of-fluid average: frac is the cell fraction left of the front."""
    return frac[None, ...] * q_left.reshape(5, *([1] * frac.ndim)) + \
        (1.0 - frac[None, ...]) * q_right.reshape(5, *([1] * frac.ndim))


# (required, optional) keys of each initial-data type besides "type"; the last two are 2D only.
_INITIAL_KEYS = {
    "uniform": (("state",), ()),
    "riemann": (("minus", "plus"), ("interface",)),
    "perturbed_shock": (("minus", "plus", "front_position"), ("amplitude", "wavelengths")),
    "vortex": ((), ("lx", "ly", "h0", "h_amp", "b_amp", "v0", "v_amp")),
}


def _initial_data(cfg: SimConfig) -> tuple[Array, float | None, tuple[Array, Array] | None]:
    """(q0, front level, (minus, plus) conserved states) of ``cfg.initial``; the level and
    the states are None unless the data have two states.  Data that are not finite with
    h > 0 are a ConfigError."""
    doc = cfg.initial
    kind = doc["type"]
    ndim = cfg.dimensions
    if kind not in tuple(_INITIAL_KEYS)[:2 * ndim]:
        raise ConfigError(f"unknown {ndim}D initial type {kind!r}")
    required, optional = _INITIAL_KEYS[kind]
    check_keys(doc, ("type", *required, *optional), f"{kind} initial key", required=required)
    centers, widths = cell_grid(cfg)
    level = states = None
    if kind == "uniform":
        q = conserved_from_primitive(state_from_doc(doc["state"]))
        q0 = np.tile(q.reshape((5,) + (1,) * ndim), (1, *cfg.cells))
    elif kind == "vortex":
        q0 = _vortex_data(doc, *centers)
    else:
        states = tuple(conserved_from_primitive(state_from_doc(doc[side], side))
                       for side in ("minus", "plus"))
        x, dx = centers[0], widths[0]
        # x1 position of the front in every x2 row
        if kind == "riemann":
            x_if = check_number(doc.get("interface", 0.5 * (x[0] + x[-1])), "interface")
            front = np.full(cfg.cells[1:], x_if)
        else:
            x_if = check_number(doc["front_position"], "front_position")
            amp = check_number(doc.get("amplitude", 0.0), "amplitude")
            wavelengths = check_count(doc.get("wavelengths", 1), "wavelengths", 1, MAX_CELLS)
            (y0, y1) = cfg.extents[1]
            k = 2.0 * math.pi * wavelengths / (y1 - y0)
            front = x_if + amp * np.cos(k * (centers[1] - y0))
        left_edges = (x - 0.5 * dx).reshape((-1,) + (1,) * (ndim - 1))
        q0 = _mix(np.clip((front - left_edges) / dx, 0.0, 1.0), *states)
        level = 0.5 * (states[0][0] + states[1][0])
    if not (np.all(np.isfinite(q0)) and np.min(q0[0]) > 0.0):
        raise ConfigError(f"{kind} initial data must be finite with h > 0")
    return q0, level, states


def _vortex_data(doc: dict, x: Array, y: Array) -> Array:
    """Smooth doubly periodic data whose h B field is analytically
    divergence free: h B = curl(psi) for psi = (a/2 pi) sin(2 pi x) sin(2 pi y),
    scaled to the domain.

    Default amplitudes are gentle enough that the flow stays smooth well
    past t = 1, so first-order error behavior is observable."""
    kx = 2.0 * math.pi / check_float(doc.get("lx", x[-1] - x[0] + (x[1] - x[0])), "vortex lx")
    ky = 2.0 * math.pi / check_float(doc.get("ly", y[-1] - y[0] + (y[1] - y[0])), "vortex ly")
    h0, h_amp, b_amp, v_amp = (
        check_number(doc.get(key, default), f"vortex {key}")
        for key, default in (("h0", 1.0), ("h_amp", 0.02), ("b_amp", 0.05), ("v_amp", 0.02)))
    v0 = check_pair(doc.get("v0", (0.3, 0.2)), "vortex v0")
    xx, yy = np.meshgrid(x, y, indexing="ij")
    h = h0 + h_amp * np.cos(kx * xx) * np.cos(ky * yy)
    hb1 = b_amp * np.sin(kx * xx) * np.cos(ky * yy) * (ky / kx)
    hb2 = -b_amp * np.cos(kx * xx) * np.sin(ky * yy)
    v1 = v0[0] + v_amp * np.sin(ky * yy)
    v2 = v0[1] + v_amp * np.sin(kx * xx)
    return np.stack([h, h * v1, h * v2, hb1, hb2])


# ---------------------------------------------------------------------------
# Diagnostics


def divergence_residual(q: Array, dx: float, dy: float, periodic_x: bool,
                        periodic_y: bool = True) -> Array:
    """Forward-difference div(h B).

    A periodic axis wraps around; along a non-periodic one the last cell
    has no forward neighbour and is left out, so the result shrinks by
    one along that axis.  The one-sided operator matches the first-order
    accuracy of the scheme, so its value on smooth initial data sets the
    truncation level against which transported divergence is judged.
    """
    d1 = (np.roll(q[3], -1, axis=0) - q[3] if periodic_x else np.diff(q[3], axis=0)) / dx
    d2 = (np.roll(q[4], -1, axis=1) - q[4] if periodic_y else np.diff(q[4], axis=1)) / dy
    return d1[:, :d2.shape[1]] + d2[:d1.shape[0], :]


def front_positions(x: Array, h: Array, level: float) -> Array:
    """Per-row front position: first upward crossing of ``level``.

    ``h`` has shape (nx,) or (nx, ny); linear interpolation between
    cell centers; NaN where no crossing exists.
    """
    h2 = h[:, None] if h.ndim == 1 else h
    cross = (h2[:-1] < level) & (h2[1:] >= level)
    i = np.argmax(cross, axis=0)  # the first crossing of each row, 0 in a row without one
    j = np.arange(h2.shape[1])
    lo, hi = h2[i, j], h2[i + 1, j]
    t = np.divide(level - lo, hi - lo, out=np.full(j.size, np.nan), where=cross[i, j])
    return x[i] + t * (x[i + 1] - x[i])


def transition_band_width(x: Array, h_row: Array, level: float) -> float:
    """Width of the region where h stays within ``BAND_FRAC`` of the level jump."""
    span = np.max(h_row) - np.min(h_row)
    mask = np.abs(h_row - level) <= BAND_FRAC * span
    if not np.any(mask):
        return 0.0
    xs = x[mask]
    return float(xs.max() - xs.min())


# ---------------------------------------------------------------------------
# Results


@dataclass
class SimResult:
    """Recorded time series and the final snapshot of a run."""

    times: Array
    conserved: Array           # (n_records, 5) cell sums times cell volume
    h_min: Array
    div_norm: Array            # max |div(hB)|, zero for 1D runs
    front_position: Array      # NaN when not tracked
    front_amplitude: Array
    energy: Array
    max_conservation_defect: float
    snapshot: Array
    grid: dict
    steps: int


def _energy(q: Array, g: float, cell_volume: float) -> float:
    # q * (q / h) overflows only where h |v|^2 or h |B|^2 itself does
    h = q[0]
    kin = 0.5 * (q[1] * (q[1] / h) + q[2] * (q[2] / h))
    mag = 0.5 * (q[3] * (q[3] / h) + q[4] * (q[4] / h))
    pot = 0.5 * g * h * h
    return float(np.sum(kin + mag + pot)) * cell_volume


def _check_positive(q: Array, t: float) -> None:
    if not np.minimum.reduce(q[0], axis=None) > 0.0:
        raise PositivityLoss(t)


def _check_finite(value: float, t: float, what: str) -> None:
    if not math.isfinite(value):
        raise NonFiniteState(t, f"non-finite {what} at t={t:.6g}")


# ---------------------------------------------------------------------------
# Simulators


def _simulate(cfg: SimConfig, source: Callable[..., Array] | None = None,
              q0: Array | None = None) -> SimResult:
    """The Godunov/HLL time loop over the active axes of a 1D or 2D run.

    Per step: HLL faces and the largest interior wave speed along each
    axis, dt from the Courant number summed over the axes, the
    flux-difference update, and the relative conservation defect (the
    change of each cell sum against the boundary flux).  A run that needs
    more than ``MAX_STEPS`` steps is a ConfigError: at the first step if
    end_time > MAX_STEPS * dt, else at the cap (CFL steps can shrink).
    """
    ndim = cfg.dimensions
    centers, widths = cell_grid(cfg)
    q, level, states = (_initial_data(cfg) if q0 is None else
                        (np.array(q0, dtype=float, order="C"), None, None))
    if q.shape != (5, *cfg.cells):
        raise ConfigError(f"initial data shape {q.shape} does not match the grid")
    if "inflow" in cfg.boundary_x1 and states is None:
        raise ConfigError("inflow boundaries need two-state initial data")
    g = cfg.g
    cell_axes = tuple(range(1, ndim + 1))
    sides = ([states[end] if bc == "inflow" else bc for end, bc in enumerate(cfg.boundary_x1)],
             (cfg.boundary_x2,) * 2)
    state = _PaddedState(cfg.cells, sides[:ndim], g)
    # face area normal to each axis: the product of the other widths (1.0 in 1D)
    areas = [math.prod(widths[:axis] + widths[axis + 1:]) for axis in range(ndim)]
    mesh = np.meshgrid(*centers, indexing="ij") if source is not None else None
    periodic = (cfg.boundary_x1[0] == "periodic", cfg.boundary_x2 == "periodic")
    upd = np.empty((5, state.size))  # one axis's flux difference, then the source term, times dt
    upd_cells = state.cells(upd)
    # Per axis: the flux difference over the flat face and update arrays (cell k has
    # faces k - s and k; the differences that straddle two components are never read),
    # and the faces of the two boundaries normal to the axis, summed along them in 2D.
    flux, upd_flat = state.buf.flux, upd.reshape(-1)
    face_grid, flux_flat = flux.reshape(state.padded.shape), flux.reshape(-1)
    boundary_axes = np.empty((ndim, 5))  # each axis's boundary flux over the step
    boundary = boundary_axes[0]
    plan = []
    for axis, s in enumerate(state.offsets):
        first, last = (face_grid[_index(ndim, axis, k)] for k in (0, -2))
        edge_sums = []  # (faces, their sum) pairs, 2D only
        if ndim == 2:
            edge_sums = [(first, np.empty(5)), (last, np.empty(5))]
            first, last = (total for _, total in edge_sums)
        plan.append((flux_flat[s:], flux_flat[:-s], upd_flat[s:], edge_sums, first, last,
                     boundary_axes[axis]))
    # the cell sums of the current q, those of the step before, and the defect
    sums, before, defect = np.empty((3, 5))
    np.add.reduce(q, axis=cell_axes, out=sums)
    t = 0.0
    steps = 0
    max_defect = 0.0
    rec = Recorder(cfg.output_interval)

    def volume(s, out=None):
        """``s`` times the cell volume, one width at a time: the rounding of s * dx * dy."""
        for d in widths:
            s = np.multiply(s, d, out=out)
        return s

    def row():
        # a 1D run has no divergence, and its point front no amplitude
        div = amp = 0.0
        if ndim == 2:
            div = float(np.max(np.abs(divergence_residual(q, *widths, *periodic))))
            amp = np.nan
        fp = np.nan
        if level is not None:
            rows = front_positions(centers[0], q[0], level)
            good = rows[np.isfinite(rows)]
            if good.size:
                fp = float(np.mean(good))
                amp = float(math.sqrt(2.0) * np.std(good))
        return (t, volume(sums), float(q[0].min()), div, fp, amp,
                _energy(q, g, math.prod(widths)))

    # a flux that overflows shows as a non-finite wave speed or conservation defect,
    # which ends the run with one NonFiniteState, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        rec.offer(t, False, row)
        while t < cfg.end_time - 1e-14:
            speeds = state.load(q)
            _check_finite(sum(speeds), t, "wave speed")
            rate = sum(s / d for s, d in zip(speeds, widths))  # Courant number per unit time
            if cfg.dt_fixed:
                dt = cfg.dt_fixed
            elif (speeds[0] if ndim == 1 else rate) == 0.0:
                raise NonFiniteState(t, f"all wave speeds are 0 at t={t:.6g}: infinite CFL step")
            elif ndim == 1:  # keeps the rounding of cfl * dx / smax
                dt = cfg.cfl * widths[0] / speeds[0]
            else:
                dt = cfg.cfl / rate
            if dt * rate > 1.0 + 1e-12:
                raise CflViolation(f"Courant number {dt * rate:.3f} exceeds 1 at t={t:.4g}")
            dt = min(dt, cfg.end_time - t)
            before, sums = sums, before
            for axis, (right, left, diff, edge_sums, first, last, across) in enumerate(plan):
                state.faces(axis)
                np.subtract(right, left, out=diff)
                diff *= dt / widths[axis]
                q -= upd_cells
                for edge, total in edge_sums:
                    np.add.reduce(edge, axis=1, out=total)
                np.subtract(last, first, out=across)
                across *= dt * areas[axis]
            if ndim == 2:
                boundary += across
            if source is not None:
                s_arr = source(t, *mesh)
                q += np.multiply(dt, s_arr, out=upd_cells)
            np.add.reduce(q, axis=cell_axes, out=sums)
            volume(np.subtract(sums, before, out=defect), out=defect)
            defect += boundary
            if source is not None:
                defect -= volume(dt * s_arr.sum(axis=cell_axes))
            np.absolute(defect, out=defect)
            np.absolute(before, out=before)  # the sums of the step before are not read again
            step_defect = float(np.maximum.reduce(defect)) / max(
                1.0, float(volume(np.maximum.reduce(before))))
            _check_finite(step_defect, t + dt, "conservation defect")
            max_defect = max(max_defect, step_defect)
            if steps == MAX_STEPS or (steps == 0 and cfg.end_time > MAX_STEPS * dt):
                raise ConfigError(f"the run needs more than MAX_STEPS = {MAX_STEPS} time steps "
                                  f"(t = {t:.6g} of end_time {cfg.end_time:g}, dt = {dt:.3g})")
            _check_positive(q, t + dt)
            t += dt
            steps += 1
            rec.offer(t, t >= cfg.end_time - 1e-14, row)

    grid = dict(zip("xy", centers)) | dict(zip(("dx", "dy"), widths))
    # each recorded row holds the time-series fields of SimResult in field order
    return SimResult(*map(np.array, zip(*rec.rows)), max_conservation_defect=max_defect,
                     snapshot=q, grid=grid, steps=steps)


def simulate_1d(cfg: SimConfig) -> SimResult:
    """Godunov/HLL run of the 1D restriction (no x2 variation).

    Conservation is telescoping-exact: per step, the change of each
    conserved cell sum equals the boundary flux difference to round-off;
    the maximum relative defect is recorded.
    """
    if cfg.dimensions != 1:
        raise ConfigError("simulate_1d needs a 1-dimensional config")
    return _simulate(cfg)


def simulate_2d(
    cfg: SimConfig,
    source: Callable[[float, Array, Array], Array] | None = None,
    q0: Array | None = None,
) -> SimResult:
    """Unsplit 2D Godunov/HLL run on a slab periodic in x2.

    ``source`` is an optional cell-centered forcing f(t, xx, yy) added
    explicitly, and ``q0`` an optional conserved-field override; both
    exist for manufactured-solution verification.
    """
    if cfg.dimensions != 2:
        raise ConfigError("simulate_2d needs a 2-dimensional config")
    return _simulate(cfg, source, q0)

