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
Each step makes one pass per axis (``_AxisSweep.faces``): the state
and its ghost cells are copied into a padded buffer allocated once per
run, and ``_cell_terms`` evaluates the flux and the extreme wave speeds
(``core.axis_flux``, ``core.fast_speed``) once per padded cell from one
division by h.  ``_hll_faces`` combines the ``[:-1]``/``[1:]`` slices of
those per-cell terms into preallocated face buffers.  The CFL step
takes its maximum speed from the interior cells of the same speed
arrays, so a pinned inflow ghost never sets dt.  A non-finite wave
speed or conservation defect, or zero CFL speeds, aborts with NonFiniteState.

The update runs in place: each axis's flux difference goes into one
state-shaped buffer allocated per run, is scaled by dt / dx and
subtracted from q, so a step makes no full-state temporary.  The cell
sums are taken once per step; they are the record row's sums and the
next step's reference for the conservation defect.  The grid and the
record cadence are ``ioutil.cell_grid`` and ``ioutil.Recorder``, shared
with the linear solver.

Each simulation owns its arrays; flux evaluation is vectorized over
cells and reductions use numpy's pairwise summation, so results are
bit-for-bit reproducible for identical inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (PhysParams, State, axis_flux, conserved_from_primitive, fast_speed, fluxes,
                   normal_speeds)
from .errors import CflViolation, ConfigError, NonFiniteState, PositivityLoss
from .ioutil import (MAX_CELLS, MAX_STEPS, Recorder, cell_grid, check_count, check_float,
                     check_keys, check_number, check_pair, check_run_fields, config_kwargs,
                     state_from_doc, state_to_doc)
from .shock import RectilinearShock

Array = np.ndarray
# Fraction of the level jump that bounds the band of transition_band_width.
BAND_FRAC = 0.2


# ---------------------------------------------------------------------------
# HLL flux


def hll_flux(left: State, right: State, unit_normal, params: PhysParams) -> Array:
    """HLL numerical flux through a face with the given unit normal.

    Consistent (equal states return the exact projected flux) and
    conservative; wave bounds are the extreme characteristic speeds of
    the two states (Davis estimate).  The face is formed by the same
    ``_hll_faces`` combination that the simulators run.
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
    return _hll_faces(q, f, lo, hi, 0, _FaceBuffers((1,)))[:, 0].copy()


def _cell_terms(q: Array, g: float, axis: int, prim: Array | None = None,
                f: Array | None = None) -> tuple[Array, Array, Array]:
    """Physical flux and extreme wave speeds (lo, hi) of every cell along ``axis``, from
    one q / h; ``prim`` and ``f`` optionally receive v, B and the flux (run buffers)."""
    h = q[0]
    prim = np.divide(q[1:], h, out=prim)  # v1, v2, B1, B2
    v, b = prim[:2], prim[2:]
    cg = fast_speed(b[axis], h, g)
    return axis_flux(q, v, b, g, axis, f), v[axis] - cg, v[axis] + cg


def _index(ndim: int, axis: int, part: slice) -> tuple:
    """Index selecting ``part`` along ``axis`` of an ndim array."""
    idx = [slice(None)] * ndim
    idx[axis] = part
    return tuple(idx)


def _sides(a: Array, axis: int) -> tuple[Array, Array]:
    """Views of ``a`` at the left and the right cell of every face along ``axis``."""
    return a[_index(a.ndim, axis, slice(None, -1))], a[_index(a.ndim, axis, slice(1, None))]


class _FaceBuffers:
    """Preallocated face-shaped outputs and temporaries of ``_hll_faces``."""

    def __init__(self, face_shape: tuple[int, ...]):
        self.flux = np.empty((5, *face_shape))
        self.tmp = np.empty((5, *face_shape))
        self.s_left = np.empty(face_shape)
        self.s_right = np.empty(face_shape)
        self.denom = np.empty(face_shape)
        self.prod = np.empty(face_shape)
        self.mask = np.empty(face_shape, dtype=bool)


def _hll_faces(q: Array, f: Array, lo: Array, hi: Array, axis: int,
               buf: _FaceBuffers) -> Array:
    """HLL flux at every face between neighbouring cells along ``axis``.

    ``q`` and ``f`` are per-cell conserved fields and physical fluxes
    (component first), ``lo``/``hi`` the per-cell extreme speeds; each
    was evaluated once per cell.  The two sides of a face are the slices
    ``[:-1]`` and ``[1:]``.  The result is written into ``buf.flux`` with
    the operation order of the two-sided formula, so it is bit-identical
    to evaluating each face from its two states.
    """
    ql, qr = _sides(q, 1 + axis)
    fl, fr = _sides(f, 1 + axis)
    s_left = np.minimum(*_sides(lo, axis), out=buf.s_left)
    s_right = np.maximum(*_sides(hi, axis), out=buf.s_right)
    denom = np.subtract(s_right, s_left, out=buf.denom)
    np.copyto(denom, 1.0, where=np.equal(denom, 0.0, out=buf.mask))
    out = np.multiply(s_right, fl, out=buf.flux)
    tmp = np.multiply(s_left, fr, out=buf.tmp)
    out -= tmp
    np.subtract(qr, ql, out=tmp)
    tmp *= np.multiply(s_left, s_right, out=buf.prod)
    out += tmp
    out /= denom
    np.copyto(out, fr, where=np.less_equal(s_right, 0.0, out=buf.mask))
    np.copyto(out, fl, where=np.greater_equal(s_left, 0.0, out=buf.mask))
    return out


class _AxisSweep:
    """The padded copy of the state along one axis, allocated once per run.

    ``sides`` gives the ghost cell at each end: ``"periodic"``,
    ``"outflow"`` (copy of the edge cell) or a pinned conserved 5-vector
    (inflow), which is written once here and never touched again.
    """

    def __init__(self, shape: tuple[int, ...], axis: int, sides, g: float):
        self.axis = axis
        self.g = g
        ndim = 1 + len(shape)
        cell = 1 + axis
        padded = list(shape)
        padded[axis] += 2
        self.qg = np.empty((5, *padded))
        self.prim = np.empty((4, *padded))
        self.f = np.empty((5, *padded))
        self.interior = self.qg[_index(ndim, cell, slice(1, -1))]
        self.speed_interior = _index(ndim - 1, axis, slice(1, -1))
        ghosts = (slice(0, 1), slice(-1, None))
        first, last = slice(1, 2), slice(-2, -1)  # edge cells of the interior
        sources = {"outflow": (first, last), "periodic": (last, first)}
        self.copies = []  # (ghost, source) views refreshed every step
        for end, side in enumerate(sides):
            ghost = self.qg[_index(ndim, cell, ghosts[end])]
            if isinstance(side, str):
                self.copies.append((ghost, self.qg[_index(ndim, cell, sources[side][end])]))
            else:
                np.copyto(ghost, np.reshape(side, (5,) + (1,) * (ndim - 1)))
        padded[axis] -= 1
        self.buf = _FaceBuffers(tuple(padded))

    def faces(self, q: Array) -> tuple[Array, float]:
        """HLL face fluxes along the axis and the largest interior wave speed.

        Flux and extreme speeds are evaluated once per cell of the padded
        buffer; ghost cells feed the boundary faces but not the speed,
        so a pinned inflow state never sets the time step.
        """
        np.copyto(self.interior, q)
        for ghost, src in self.copies:
            np.copyto(ghost, src)
        f, lo, hi = _cell_terms(self.qg, self.g, self.axis, self.prim, self.f)
        smax = float(max(np.max(np.abs(lo[self.speed_interior])),
                         np.max(np.abs(hi[self.speed_interior]))))
        return _hll_faces(self.qg, f, lo, hi, self.axis, self.buf), smax


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
    h = q[0]
    kin = 0.5 * (q[1] ** 2 + q[2] ** 2) / h
    mag = 0.5 * (q[3] ** 2 + q[4] ** 2) / h
    pot = 0.5 * g * h * h
    return float(np.sum(kin + mag + pot)) * cell_volume


def _check_positive(q: Array, t: float) -> None:
    if not float(np.min(q[0])) > 0.0:
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
    sweeps = [_AxisSweep(cfg.cells, axis, sides[axis], g) for axis in range(ndim)]
    # face area normal to each axis: the product of the other widths (1.0 in 1D)
    areas = [math.prod(widths[:axis] + widths[axis + 1:]) for axis in range(ndim)]
    mesh = np.meshgrid(*centers, indexing="ij") if source is not None else None
    periodic = (cfg.boundary_x1[0] == "periodic", cfg.boundary_x2 == "periodic")
    upd = np.empty_like(q)  # one axis's flux difference, then the source term, times dt
    sums = q.sum(axis=cell_axes)  # cell sums of the current q
    t = 0.0
    steps = 0
    max_defect = 0.0
    rec = Recorder(cfg.output_interval)

    def volume(s):
        """``s`` times the cell volume, one width at a time: the rounding of s * dx * dy."""
        for d in widths:
            s = s * d
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

    rec.offer(t, False, row)
    while t < cfg.end_time - 1e-14:
        faces, speeds = zip(*(sweep.faces(q) for sweep in sweeps))
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
        before = sums
        boundary = 0.0
        for axis, f in enumerate(faces):
            left, right = _sides(f, 1 + axis)
            np.subtract(right, left, out=upd)
            upd *= dt / widths[axis]
            q -= upd
            first = f[_index(f.ndim, 1 + axis, 0)].sum(axis=cell_axes[:-1])
            last = f[_index(f.ndim, 1 + axis, -1)].sum(axis=cell_axes[:-1])
            boundary = boundary + dt * areas[axis] * (last - first)
        if source is not None:
            s_arr = source(t, *mesh)
            q += np.multiply(dt, s_arr, out=upd)
        sums = q.sum(axis=cell_axes)
        defect = volume(sums - before) + boundary
        if source is not None:
            defect = defect - volume(dt * s_arr.sum(axis=cell_axes))
        step_defect = float(np.max(np.abs(defect)) /
                            max(1.0, float(volume(np.max(np.abs(before))))))
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


def perturbed_shock_experiment(
    shock: RectilinearShock,
    amplitude: float,
    wavelengths: int,
    cfg: SimConfig,
) -> SimResult:
    """Evolve a rectilinear shock whose front is sinusoidally displaced.

    The front is extracted per x2-row as the crossing of the mean height
    level, and the reported amplitude is sqrt(2) times the row-to-row
    standard deviation (equal to the cosine amplitude for a single
    mode).  The left boundary pins the upstream state when that side is
    supersonic toward the front (true for every admissible shock) and
    falls back to outflow otherwise, so inadmissible height ratios can
    still be run to watch the front disintegrate.
    """
    if amplitude > 0.05 * shock.h_minus:
        raise ConfigError("front perturbation must stay below 5% of the upstream height")
    minus = shock.minus_state()
    plus = shock.plus_state()
    (x0, x1), _ = cfg.extents
    doc = {
        "type": "perturbed_shock",
        "minus": state_to_doc(minus),
        "plus": state_to_doc(plus),
        "front_position": cfg.initial.get("front_position", 0.5 * (x0 + x1)),
        "amplitude": amplitude,
        "wavelengths": wavelengths,
    }
    upstream_supersonic = normal_speeds(minus, PhysParams(g=shock.g), [1.0, 0.0])[0] > 0.0
    run_cfg = replace(cfg, dimensions=2, initial=doc, g=shock.g,
                      boundary_x1=("inflow" if upstream_supersonic else "outflow", "outflow"),
                      boundary_x2="periodic")
    return simulate_2d(run_cfg)
