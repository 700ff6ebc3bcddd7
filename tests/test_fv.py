import math
import warnings

import numpy as np
import pytest

import smhd.fv
from smhd.core import PhysParams, State, axis_fluxes, conserved_from_primitive, fast_speed, fluxes
from smhd.errors import CflViolation, ConfigError, NonFiniteState, PositivityLoss
from smhd.fv import (
    SimConfig,
    _Faces,
    _PaddedState,
    _check_positive,
    _hll_faces,
    divergence_residual,
    front_positions,
    hll_flux,
    simulate_1d,
    simulate_2d,
    transition_band_width,
)
from smhd.linear import LinearConfig, linear_halfplane_simulate
from smhd.shock import linearized_setup, rectilinear_shock

from conftest import random_state

RATIONAL_MINUS = {"h": 1.0, "v": [2.0, 0.0], "B": [1.0, 0.0]}
RATIONAL_PLUS = {"h": 2.0, "v": [1.0, 0.0], "B": [0.5, 0.0]}


def _riemann_cfg(cells=200, extents=(-5.0, 5.0), end_time=1.0, minus=None, plus=None, **kw):
    return SimConfig(
        dimensions=1, cells=(cells,), extents=(extents,), end_time=end_time,
        initial={"type": "riemann", "minus": minus or RATIONAL_MINUS,
                 "plus": plus or RATIONAL_PLUS, "interface": 0.0},
        **kw)


def test_hll_consistency(rng):
    p = PhysParams(g=1.0)
    for _ in range(50):
        u = random_state(rng)
        f = hll_flux(u, u, [1.0, 0.0], p)
        assert np.max(np.abs(f - fluxes(u, p)[0])) < 1e-14
        n = rng.normal(size=2)
        n /= np.linalg.norm(n)
        f = hll_flux(u, u, n, p)
        f1, f2 = fluxes(u, p)
        assert np.max(np.abs(f - (n[0] * f1 + n[1] * f2))) < 1e-13


def test_hll_supersonic_upwind():
    p = PhysParams(g=1.0)
    left = State(h=1.0, v=[5.0, 0.0], B=[0.2, 0.0])
    right = State(h=1.2, v=[5.5, 0.1], B=[0.3, 0.1])
    f = hll_flux(left, right, [1.0, 0.0], p)
    assert np.array_equal(f, fluxes(left, p)[0])


def test_hll_zero_wave_speeds():
    # at rest with B = 0 and g h underflowing to 0 both face speeds vanish; the guarded
    # denominator keeps the face finite and equal to the exact flux
    p = PhysParams(g=1e-200)
    u = State(h=1e-200, v=[0.0, 0.0], B=[0.0, 0.0])
    assert np.array_equal(hll_flux(u, u, [1.0, 0.0], p), fluxes(u, p)[0])


def test_hll_reflected_pair_symmetry():
    p = PhysParams(g=1.0)
    u = State(h=1.5, v=[0.8, 0.3], B=[0.0, 0.4])
    mirror = State(h=1.5, v=[-0.8, 0.3], B=[0.0, 0.4])
    f = hll_flux(mirror, u, [1.0, 0.0], p)
    assert abs(f[0]) < 1e-14           # no mass crosses a symmetric face
    assert abs(f[2]) < 1e-14           # nor tangential momentum
    back = hll_flux(u, mirror, [-1.0, 0.0], p)
    assert abs(f[1] - (-back[1])) < 1e-13  # normal momentum flux reflects


def _cell_terms(q, g, axis):
    """Flux along ``axis`` and extreme wave speeds (lo, hi) of every cell."""
    v, b = q[1:3] / q[0], q[3:] / q[0]
    cg = fast_speed(b[axis], q[0], g)
    return axis_fluxes(q, v, b, g)[axis], v[axis] - cg, v[axis] + cg


def _two_sided_faces(ql, qr, g, axis):
    """Reference HLL faces in the kernel's weight form: flux and speeds evaluated from
    each face's two states."""
    fl, lo_l, hi_l = _cell_terms(ql, g, axis)
    fr, lo_r, hi_r = _cell_terms(qr, g, axis)
    s_left = np.minimum(np.minimum(lo_l, lo_r), 0.0)
    s_right = np.maximum(np.maximum(hi_l, hi_r), 0.0)
    denom = s_right - s_left
    denom = np.where(denom == 0.0, 1.0, denom)
    b = -s_left / denom
    c = -s_left * s_right / denom
    return fl + b * (fr - fl) - c * (qr - ql)


def _masked_faces(ql, qr, g, axis):
    """Second reference: the textbook HLL formula with its two upwind branches."""
    fl, lo_l, hi_l = _cell_terms(ql, g, axis)
    fr, lo_r, hi_r = _cell_terms(qr, g, axis)
    s_left = np.minimum(lo_l, lo_r)
    s_right = np.maximum(hi_l, hi_r)
    denom = s_right - s_left
    denom = np.where(denom == 0.0, 1.0, denom)
    middle = (s_right * fl - s_left * fr + s_left * s_right * (qr - ql)) / denom
    return np.where(s_left >= 0.0, fl, np.where(s_right <= 0.0, fr, middle))


def _random_cells(rng, shape, normal_axis, vn_range):
    """Conserved fields with h in [0.5, 2], |B|, |v_t| <= 1 and v_n drawn from vn_range."""
    h = rng.uniform(0.5, 2.0, size=shape)
    v = rng.uniform(-1.0, 1.0, size=(2, *shape))
    v[normal_axis] = rng.uniform(*vn_range, size=shape)
    b = rng.uniform(-1.0, 1.0, size=(2, *shape))
    return np.stack([h, h * v[0], h * v[1], h * b[0], h * b[1]])


def _faces_of(q, axis):
    n = q.shape[1 + axis]
    left = np.take(q, np.arange(n - 1), axis=1 + axis)
    right = np.take(q, np.arange(1, n), axis=1 + axis)
    return left, right


FACE_G = 1.3  # gravity of the face tests


def _grid_faces(rng, axis, vn_range, vary=(0, 1)):
    """(q, lo, hi, faces) of a flat (5, n1 n2) grid along ``axis`` (flat offset n2
    along x1, 1 along x2); q varies along the axes in ``vary`` only.  The faces
    from the last cell of a row to the first of the next are not read and are
    dropped, so the faces have the shape of ``_faces_of``.  ``_hll_faces`` takes
    the cell speeds clamped to lo <= 0 <= hi; the raw speeds are returned."""
    n1, n2 = shape = (33, 17) if axis == 0 else (17, 33)
    q = _random_cells(rng, shape, axis, vn_range)
    for k in {0, 1} - set(vary):
        q = np.repeat(np.take(q, [0], axis=1 + k), shape[k], axis=1 + k)
    flat = q.reshape(5, -1)
    offset = (n2, 1)[axis]
    f, lo, hi = _cell_terms(flat, FACE_G, axis)
    cells = (flat, f, np.minimum(lo, 0.0), np.maximum(hi, 0.0))
    got = _hll_faces(_Faces([a[..., :-offset] for a in cells], [a[..., offset:] for a in cells]))
    if axis == 0:
        got = got.reshape(5, n1 - 1, n2)
    else:
        got = np.append(got, np.zeros((5, 1)), axis=1).reshape(5, n1, n2)[:, :, :-1]
    return q, lo.reshape(1, *shape), hi.reshape(1, *shape), got


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("regime, vn_range", [
    ("supersonic-left-going", (-30.0, -20.0)),
    ("supersonic-right-going", (20.0, 30.0)),
    ("subsonic", (-0.5, 0.5)),
    ("mixed", (-5.0, 5.0)),
])
def test_hll_faces_bit_identical_to_two_sided_formula(rng, axis, regime, vn_range):
    q, lo, hi, got = _grid_faces(rng, axis, vn_range)
    ql, qr = _faces_of(q, axis)
    assert np.array_equal(got, _two_sided_faces(ql, qr, FACE_G, axis))
    # the weight form agrees with the branched formula to a few ulp of each row's
    # largest face flux, and exactly where both face speeds are >= 0
    masked = _masked_faces(ql, qr, FACE_G, axis)
    faces = tuple(range(1, q.ndim))
    ulp = np.spacing(np.max(np.abs(masked), axis=faces, keepdims=True))
    assert np.all(np.abs(got - masked) <= 4.0 * ulp)
    s_left = np.minimum(*_faces_of(lo, axis))[0]
    s_right = np.maximum(*_faces_of(hi, axis))[0]
    upwind = s_left >= 0.0
    assert np.array_equal(got[:, upwind], masked[:, upwind])
    branches = {"supersonic-right-going": upwind,
                "supersonic-left-going": s_right <= 0.0,
                "subsonic": (s_left < 0.0) & (s_right > 0.0)}
    if regime in branches:
        assert np.all(branches[regime])
    else:
        assert all(np.any(taken) for taken in branches.values())


@pytest.mark.parametrize("axis", [0, 1])
def test_hll_faces_exact_for_equal_states(rng, axis):
    # q varies only across the axis, so every face has two equal states, in every regime
    q, _, _, got = _grid_faces(rng, axis, (-5.0, 5.0), vary=(1 - axis,))
    ql, _ = _faces_of(q, axis)
    f, lo, hi = _cell_terms(ql, FACE_G, axis)
    assert np.any(lo >= 0.0) and np.any(hi <= 0.0) and np.any((lo < 0.0) & (hi > 0.0))
    assert np.array_equal(got, f)


def _pad(q, axis, ends, pinned):
    """``q`` with one ghost cell at each end of ``axis``: the edge cell (outflow), the
    opposite edge cell (periodic) or the pinned state (inflow)."""
    first, last = (np.take(q, [k], axis=1 + axis) for k in (0, -1))
    ghosts = {"outflow": (first, last), "periodic": (last, first),
              "inflow": (np.broadcast_to(pinned.reshape((5,) + (1,) * (q.ndim - 1)),
                                         first.shape),) * 2}
    return np.concatenate([ghosts[ends[0]][0], q, ghosts[ends[1]][1]], axis=1 + axis)


@pytest.mark.parametrize("sides", [
    (("periodic", "periodic"),),
    (("outflow", "outflow"),),
    (("inflow", "outflow"),),
    (("periodic", "periodic"), ("periodic", "periodic")),
    (("outflow", "outflow"), ("periodic", "periodic")),
    (("inflow", "outflow"), ("periodic", "periodic")),
    (("inflow", "outflow"), ("outflow", "outflow")),
], ids=["1d-periodic", "1d-outflow", "1d-inflow", "2d-periodic", "2d-outflow-periodic",
        "2d-inflow-periodic", "2d-inflow-outflow"])
def test_padded_state_ghosts_faces_and_interior_speed(rng, sides):
    g = 1.0
    shape = (24, 6)[:len(sides)]
    # left-going along x1 and right-going along x2: each interior speed comes from lo on
    # one axis and from hi on the other
    q = _random_cells(rng, shape, 0, (-4.0, -2.0))
    q[2] = q[0] * rng.uniform(2.0, 4.0, size=shape)
    pinned = np.array([1.0, 9.0, 0.0, 0.5, 0.0])  # faster than every cell of q
    state = _PaddedState(shape, [[pinned if s == "inflow" else s for s in ends]
                                 for ends in sides], g)
    speeds = state.load(q)
    for axis, ends in enumerate(sides):
        padded = _pad(q, axis, ends, pinned)
        ghosts = (slice(None), *(slice(None) if k == axis else slice(1, -1)
                                 for k in range(len(shape))))
        assert np.array_equal(state.padded[ghosts], padded)
        # face i along the axis lies between padded cells i and i + 1
        faces = state.faces(axis).reshape(state.padded.shape)
        read = (slice(None), *(slice(None, -1) if k == axis else slice(1, -1)
                               for k in range(len(shape))))
        assert np.array_equal(faces[read], _two_sided_faces(*_faces_of(padded, axis), g, axis))
        _, lo, hi = _cell_terms(q, g, axis)
        assert speeds[axis] == max(np.max(np.abs(lo)), np.max(np.abs(hi)))
    assert np.all(np.isfinite(state.flat))


def test_inflow_ghost_does_not_set_time_step():
    # Every cell holds the slow state; the pinned inflow ghost is much faster.
    slow = {"h": 1.0, "v": [0.25, 0.0], "B": [0.75, 0.0]}
    fast = {"h": 1.0, "v": [6.0, 0.0], "B": [1.0, 0.0]}
    cells, cfl = 64, 0.45
    dx = 1.0 / cells
    dt_interior = cfl * dx / (0.25 + math.sqrt(0.75 * 0.75 + 1.0))
    cfg = SimConfig(dimensions=1, cells=(cells,), extents=((0.0, 1.0),),
                    end_time=dt_interior, cfl=cfl, boundary_x1=("inflow", "outflow"),
                    initial={"type": "riemann", "minus": fast, "plus": slow,
                             "interface": -1.0})
    res = simulate_1d(cfg)
    assert res.steps == 1
    assert res.times[-1] == dt_interior


@pytest.mark.parametrize("ndim", [1, 2])
def test_timed_kernels_called_through_the_module_every_step(monkeypatch, ndim):
    # perfbench times fv._hll_faces and fv._check_positive by replacing those module
    # attributes, so the loop must call them through the module: once per axis and once
    # per step.  A loop that inlined either would leave its metric reading 0.
    calls = dict.fromkeys(("_hll_faces", "_check_positive"), 0)
    for name in calls:
        def counted(*args, _name=name, _kernel=getattr(smhd.fv, name)):
            calls[_name] += 1
            return _kernel(*args)
        monkeypatch.setattr(smhd.fv, name, counted)
    if ndim == 1:
        res = simulate_1d(_riemann_cfg(cells=40, end_time=0.5))
    else:
        res = simulate_2d(SimConfig(dimensions=2, cells=(12, 8), extents=((0.0, 1.0), (0.0, 1.0)),
                                    end_time=0.15, boundary_x1="periodic",
                                    initial={"type": "vortex"}))
    assert res.steps > 5
    assert calls == {"_hll_faces": ndim * res.steps, "_check_positive": res.steps}


def test_uniform_state_is_fixed_point():
    cfg = SimConfig(dimensions=1, cells=(64,), extents=((0.0, 1.0),), end_time=0.5,
                    initial={"type": "uniform",
                             "state": {"h": 1.3, "v": [0.4, -0.2], "B": [0.7, 0.1]}})
    res = simulate_1d(cfg)
    q0 = conserved_from_primitive(State(h=1.3, v=[0.4, -0.2], B=[0.7, 0.1]))
    assert np.max(np.abs(res.snapshot - q0[:, None])) == 0.0


def test_uniform_state_fixed_point_2d():
    cfg = SimConfig(dimensions=2, cells=(16, 12), extents=((0.0, 1.0), (0.0, 1.0)),
                    end_time=0.2, boundary_x1="periodic",
                    initial={"type": "uniform",
                             "state": {"h": 0.9, "v": [0.4, -0.2], "B": [0.7, 0.1]}})
    res = simulate_2d(cfg)
    q0 = conserved_from_primitive(State(h=0.9, v=[0.4, -0.2], B=[0.7, 0.1]))
    assert np.max(np.abs(res.snapshot - q0[:, None, None])) == 0.0


def test_stationary_shock_front_and_conservation():
    res = simulate_1d(_riemann_cfg(cells=200, end_time=2.0))
    dx = res.grid["dx"]
    drift = np.nanmax(np.abs(res.front_position - res.front_position[0]))
    assert drift < 2 * dx
    assert res.max_conservation_defect < 1e-12
    assert np.all(np.diff(res.times) > 0)
    assert np.all(res.h_min > 0)


def test_expansion_data_spread_linearly():
    res_t1 = simulate_1d(_riemann_cfg(cells=400, extents=(-8.0, 8.0), end_time=1.0,
                                      minus=RATIONAL_PLUS, plus=RATIONAL_MINUS))
    res_t2 = simulate_1d(_riemann_cfg(cells=400, extents=(-8.0, 8.0), end_time=2.0,
                                      minus=RATIONAL_PLUS, plus=RATIONAL_MINUS))
    x = res_t1.grid["x"]
    w1 = transition_band_width(x, res_t1.snapshot[0], 1.5)
    w2 = transition_band_width(x, res_t2.snapshot[0], 1.5)
    dx = res_t1.grid["dx"]
    assert w2 > 10 * dx
    assert 1.4 < w2 / w1 < 2.6  # roughly linear growth


def test_2d_reduces_to_1d_columnwise():
    dt = 2e-3
    cfg1 = _riemann_cfg(cells=64, extents=(-2.0, 2.0), end_time=0.2, dt_fixed=dt)
    res1 = simulate_1d(cfg1)
    cfg2 = SimConfig(dimensions=2, cells=(64, 8), extents=((-2.0, 2.0), (0.0, 1.0)),
                     end_time=0.2, dt_fixed=dt,
                     initial={"type": "riemann", "minus": RATIONAL_MINUS,
                              "plus": RATIONAL_PLUS, "interface": 0.0})
    res2 = simulate_2d(cfg2)
    for j in range(8):
        assert np.array_equal(res2.snapshot[:, :, j], res1.snapshot)


def test_record_rules_per_dimension():
    # 1D runs record no divergence and a zero front amplitude, tracked or not;
    # an untracked 2D run records a NaN amplitude.
    uniform = {"type": "uniform", "state": {"h": 1.3, "v": [0.4, -0.2], "B": [0.7, 0.1]}}
    riemann = simulate_1d(_riemann_cfg(cells=64, end_time=0.5))
    flat = simulate_1d(SimConfig(dimensions=1, cells=(32,), extents=((0.0, 1.0),),
                                 end_time=0.2, initial=uniform))
    for res in (riemann, flat):
        assert np.all(res.div_norm == 0.0)
        assert np.all(res.front_amplitude == 0.0)
    assert np.all(np.isfinite(riemann.front_position))
    assert np.all(np.isnan(flat.front_position))
    flat2d = simulate_2d(SimConfig(dimensions=2, cells=(16, 12), extents=((0.0, 1.0), (0.0, 1.0)),
                                   end_time=0.1, boundary_x1="periodic", initial=uniform))
    assert np.all(np.isnan(flat2d.front_amplitude))
    assert np.all(np.isnan(flat2d.front_position))


def _cadence(step_times, interval):
    """t = 0, the first step time >= k * interval - 1e-12 for each k >= 1, the last step."""
    times = [0.0]
    for k in range(1, int(step_times[-1] / interval) + 2):
        due = [t for t in step_times if t >= k * interval - 1e-12]
        if due and due[0] != times[-1]:
            times.append(due[0])
    if times[-1] != step_times[-1]:
        times.append(step_times[-1])
    return times


@pytest.mark.parametrize("solver", ["fv-1d", "linear"])
def test_record_cadence(solver):
    # both simulators record on the same cadence, built here from their step times
    interval, steps, t = 0.05, [], 0.0
    if solver == "fv-1d":
        dt, end = 0.013, 0.5
        res = simulate_1d(_riemann_cfg(cells=32, end_time=end, dt_fixed=dt,
                                       output_interval=interval))
        while t < end - 1e-14:
            t += min(dt, end - t)
            steps.append(t)
    else:
        cfg = LinearConfig(cells=(32, 16), extents=((0.0, 8.0), (0.0, 4.0)), end_time=0.5,
                           output_interval=interval)
        res = linear_halfplane_simulate(linearized_setup(rectilinear_shock(
            1.0, 2.0, 0.5, 0.0, PhysParams()), PhysParams()), cfg)
        for _ in range(res.steps):
            t += res.dt
            steps.append(t)
    assert res.steps == len(steps)
    assert res.times.tolist() == _cadence(steps, interval)


def test_vortex_divergence_stays_near_truncation_level():
    cfg = SimConfig(dimensions=2, cells=(64, 64), extents=((0.0, 1.0), (0.0, 1.0)),
                    end_time=0.5, boundary_x1="periodic",
                    initial={"type": "vortex"})
    res = simulate_2d(cfg)
    assert res.div_norm[0] > 0.0
    assert np.max(res.div_norm) <= 10.0 * res.div_norm[0]
    assert res.max_conservation_defect < 1e-12


def _manufactured_state(t, xx, yy):
    two_pi = 2 * math.pi
    s = np.sin(two_pi * (xx + yy - t))
    c = np.cos(two_pi * (xx - 0.5 * t))
    h = 2.0 + 0.3 * s
    v1 = 0.4 + 0.1 * c
    v2 = -0.2 + 0.1 * s
    b1 = 0.3 + 0.05 * s
    b2 = 0.15 + 0.05 * c
    return np.stack([h, h * v1, h * v2, h * b1, h * b2])


def _manufactured_flux(t, xx, yy, g, axis):
    q = _manufactured_state(t, xx, yy)
    h = q[0]
    v1, v2, b1, b2 = q[1] / h, q[2] / h, q[3] / h, q[4] / h
    pres = 0.5 * g * h * h
    w = q[3] * v2 - q[4] * v1
    if axis == 0:
        return np.stack([q[1], q[1] * v1 - q[3] * b1 + pres, q[1] * v2 - q[3] * b2,
                         np.zeros_like(h), -w])
    return np.stack([q[2], q[1] * v2 - q[3] * b2, q[2] * v2 - q[4] * b2 + pres,
                     w, np.zeros_like(h)])


def _manufactured_source(g):
    eps = 1e-5

    def src(t, xx, yy):
        dqdt = (_manufactured_state(t + eps, xx, yy)
                - _manufactured_state(t - eps, xx, yy)) / (2 * eps)
        df1 = (_manufactured_flux(t, xx + eps, yy, g, 0)
               - _manufactured_flux(t, xx - eps, yy, g, 0)) / (2 * eps)
        df2 = (_manufactured_flux(t, xx, yy + eps, g, 1)
               - _manufactured_flux(t, xx, yy - eps, g, 1)) / (2 * eps)
        return dqdt + df1 + df2

    return src


def test_manufactured_convergence():
    g = 1.0
    errors = []
    hs = []
    for n in (24, 48, 96):
        x = (np.arange(n) + 0.5) / n
        xx, yy = np.meshgrid(x, x, indexing="ij")
        cfg = SimConfig(dimensions=2, cells=(n, n), extents=((0.0, 1.0), (0.0, 1.0)),
                        end_time=0.2, boundary_x1="periodic", g=g, cfl=0.4,
                        initial={"type": "vortex"})
        res = simulate_2d(cfg, source=_manufactured_source(g),
                          q0=_manufactured_state(0.0, xx, yy))
        exact = _manufactured_state(res.times[-1], xx, yy)
        errors.append(float(np.mean(np.abs(res.snapshot[0] - exact[0]))))
        hs.append(1.0 / n)
    rate = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    assert rate >= 0.8, f"observed L1 rate {rate:.3f}"


def test_perturbed_shock_flat_front_stays_flat():
    cfg = SimConfig.from_dict({
        "dimensions": 2, "cells": [96, 16], "extents": [[0.0, 6.0], [0.0, 1.0]], "end_time": 1.0,
        "boundary_x1": ["inflow", "outflow"],
        "initial": {"type": "perturbed_shock", "minus": RATIONAL_MINUS, "plus": RATIONAL_PLUS,
                    "front_position": 2.0, "amplitude": 0.0}})
    res = simulate_2d(cfg)
    dx = res.grid["dx"]
    assert np.nanmax(res.front_amplitude) <= 2 * dx


def test_energy_finite_where_h_v_squared_is():
    # h v^2 = 1e160 and g h^2 = 1e160 per cell, though (h v)^2 = 1e320 overflows
    cfg = SimConfig.from_dict({
        "dimensions": 1, "cells": [16], "extents": [[0.0, 1.0]], "end_time": 0.1,
        "g": 1e-160, "initial": {"type": "uniform",
                                 "state": {"h": 1e160, "v": [1.0, 0.0], "B": [0.0, 0.0]}}})
    res = simulate_1d(cfg)
    assert np.allclose(res.energy, 1e160, rtol=1e-12, atol=0.0)


def _near_dry_1d(minus, plus, cfl):
    cfg = SimConfig(dimensions=1, cells=(200,), extents=((-1.0, 1.0),), end_time=0.3, cfl=cfl,
                    initial={"type": "riemann", "minus": minus, "plus": plus, "interface": 0.0})
    return simulate_1d(cfg)


def _near_dry_2d(h, v, hb, cfl, end_time):
    """A 64x64 doubly periodic run from conserved fields built from h, v and hB."""
    cfg = SimConfig(dimensions=2, cells=h.shape, extents=((-1.0, 1.0), (-1.0, 1.0)),
                    end_time=end_time, cfl=cfl, boundary_x1="periodic",
                    initial={"type": "vortex"})
    return simulate_2d(cfg, q0=np.stack([h, h * v[0], h * v[1], *hb]))


@pytest.mark.parametrize("cfl", [0.45, 0.9])
def test_near_dry_runs_stay_positive(cfl):
    # HLL with Davis bounds keeps h > 0 without any floor.  1D: dam breaks into
    # h = 1e-8 and 1e-12 with hB1 constant (the 1D constraint), and a double
    # rarefaction with |v| = 20 and B1 = 1e-6.
    runs = [_near_dry_1d({"h": 1.0, "v": [0.0, 0.0], "B": [0.1 * dry, 0.3]},
                         {"h": dry, "v": [0.0, 0.0], "B": [0.1, 0.0]}, cfl)
            for dry in (1e-8, 1e-12)]
    rarefaction = _near_dry_1d({"h": 1.0, "v": [-20.0, 0.0], "B": [1e-6, 0.2]},
                               {"h": 1.0, "v": [20.0, 0.0], "B": [1e-6, -0.2]}, cfl)
    assert rarefaction.h_min.min() < 1e-6
    # 2D: a magnetized disk dam break into h = 1e-8, and a radial rarefaction with |v| = 20.
    x = -1.0 + 2.0 * (np.arange(64) + 0.5) / 64
    xx, yy = np.meshgrid(x, x, indexing="ij")
    r = np.hypot(xx, yy)
    disk = np.where(r < 0.5, 1.0, 1e-8)
    radial = 20.0 * np.minimum(r / 0.5, 1.0) / r
    ones = np.ones_like(r)
    runs += [rarefaction,
             _near_dry_2d(disk, np.zeros((2, *r.shape)), (0.1 * disk, 0.05 * disk), cfl, 0.2),
             _near_dry_2d(ones, (radial * xx, radial * yy), (0.1 * ones, 0.0 * ones), cfl, 0.25)]
    assert runs[-1].h_min.min() < 0.01
    for res in runs:
        assert np.all(np.isfinite(res.snapshot))
        assert res.h_min.min() > 0.0 and np.min(res.snapshot[0]) > 0.0


def test_positivity_guard():
    q = np.ones((5, 4))
    q[0, 2] = -0.1
    with pytest.raises(PositivityLoss):
        _check_positive(q, 1.0)


def test_non_finite_state_raises_1d():
    # The momentum flux overflows, so the first update leaves NaN momentum
    # behind while every height stays positive.
    cfg = SimConfig(dimensions=1, cells=(32,), extents=((0.0, 1.0),), end_time=1.0,
                    initial={"type": "uniform",
                             "state": {"h": 1.0, "v": [1e155, 0.0], "B": [0.0, 0.0]}})
    with pytest.raises(NonFiniteState):
        simulate_1d(cfg)


def test_non_finite_state_raises_2d():
    cfg = SimConfig(dimensions=2, cells=(16, 8), extents=((0.0, 1.0), (0.0, 1.0)),
                    end_time=0.2, boundary_x1="periodic",
                    initial={"type": "vortex"})
    q0 = np.ones((5, 16, 8))
    q0[1, 5, 3] = np.nan
    with pytest.raises(NonFiniteState) as info:
        simulate_2d(cfg, q0=q0)
    assert info.value.time == 0.0


def test_cfl_validation():
    with pytest.raises(CflViolation):
        _riemann_cfg(cfl=1.5)
    with pytest.raises(CflViolation):
        simulate_1d(_riemann_cfg(cells=32, end_time=0.5, dt_fixed=1.0))


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        _riemann_cfg(cells=4)
    with pytest.raises(ConfigError):
        _riemann_cfg(end_time=-1.0)
    with pytest.raises(ConfigError):
        SimConfig(dimensions=1, cells=(32,), extents=((0, 1),), end_time=1.0,
                  initial={"no_type": True})
    with pytest.raises(ConfigError):
        SimConfig(dimensions=3, cells=(8, 8, 8), extents=((0, 1),) * 3, end_time=1.0,
                  initial={"type": "uniform"})
    # run fields that are not finite, not positive or not numbers
    for bad in [{"output_interval": 0.0}, {"output_interval": -0.1}, {"output_interval": "0.1"},
                {"end_time": math.inf}, {"end_time": math.nan}, {"extents": (1.0, 1.0)},
                {"extents": (-math.inf, 1.0)}, {"dt_fixed": -0.01}, {"dt_fixed": 0.0}]:
        with pytest.raises(ConfigError):
            _riemann_cfg(**bad)
    # a q0 override of the wrong shape, and a config of the other dimension
    vortex = SimConfig(dimensions=2, cells=(16, 8), extents=((0.0, 1.0), (0.0, 1.0)),
                       end_time=0.1, initial={"type": "vortex"})
    with pytest.raises(ConfigError, match="does not match the grid"):
        simulate_2d(vortex, q0=np.ones((5, 8, 16)))
    with pytest.raises(ConfigError, match="simulate_1d needs a 1-dimensional config"):
        simulate_1d(vortex)
    with pytest.raises(ConfigError, match="simulate_2d needs a 2-dimensional config"):
        simulate_2d(_riemann_cfg(cells=16))


def test_front_positions_interpolation():
    x = np.array([0.0, 1.0, 2.0, 3.0])
    h = np.array([1.0, 1.0, 2.0, 2.0])
    pos = front_positions(x, h, 1.5)
    assert pos.shape == (1,)
    assert abs(pos[0] - 1.5) < 1e-14


def _front_positions_per_row(x, h, level):
    """The per-row loop that front_positions replaced, kept as its oracle."""
    h2 = h[:, None] if h.ndim == 1 else h
    cross = (h2[:-1, :] < level) & (h2[1:, :] >= level)
    out = np.full(h2.shape[1], np.nan)
    for j in range(h2.shape[1]):
        idx = np.nonzero(cross[:, j])[0]
        if idx.size == 0:
            continue
        i = idx[0]
        t = (level - h2[i, j]) / (h2[i + 1, j] - h2[i, j])
        out[j] = x[i] + t * (x[i + 1] - x[i])
    return out


def test_front_positions_rows_match_per_row_loop(rng):
    x = np.cumsum(rng.uniform(0.5, 1.5, 8))
    rows = [
        [1.0, 1.2, 1.4, 1.3, 1.1, 1.0, 1.2, 1.4],  # never reaches 1.5
        [1.0, 2.0, 1.0, 2.0, 2.0, 1.0, 2.0, 2.0],  # two upward crossings: the first wins
        [1.0, 1.5, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0],  # reaches the level at a cell centre
        [1.5] * 8,                                 # flat at the level
        [2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],  # downward crossing only
        [1.0] * 7 + [1.5],                         # crosses at the last face
    ]
    h = np.column_stack(rows + [rng.uniform(1.0, 2.0, 8) for _ in range(6)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pos = front_positions(x, h, 1.5)
    assert np.array_equal(pos.view(np.int64), _front_positions_per_row(x, h, 1.5).view(np.int64))
    assert np.isnan(pos[[0, 3, 4]]).all()
    assert pos[1] == x[0] + 0.5 * (x[1] - x[0]) and pos[2] == x[1] and pos[5] == x[7]
    for col in (0, 1, 6):
        assert np.array_equal(front_positions(x, h[:, col], 1.5),
                              _front_positions_per_row(x, h[:, col], 1.5), equal_nan=True)


def test_transition_band_width_without_cells_in_band():
    assert transition_band_width(np.arange(4.0), np.array([1.0, 1.0, 2.0, 2.0]), 10.0) == 0.0


def test_divergence_residual_zero_for_uniform():
    q = np.ones((5, 16, 16))
    r = divergence_residual(q, 0.1, 0.1, periodic_x=True)
    assert np.max(np.abs(r)) == 0.0


def test_divergence_residual_does_not_wrap_outflow_x2():
    q = np.zeros((5, 8, 8))
    q[4] = 0.5 * np.arange(8)[None, :]  # linear h B2 ramp: div(h B) = 1
    r = divergence_residual(q, 0.25, 0.5, periodic_x=True, periodic_y=False)
    assert r.shape == (8, 7)
    assert np.all(r == 1.0)
    r = divergence_residual(q, 0.25, 0.5, periodic_x=False, periodic_y=False)
    assert r.shape == (7, 7)
    assert np.all(r == 1.0)
    wrapped = divergence_residual(q, 0.25, 0.5, periodic_x=True)
    assert wrapped.shape == (8, 8)
    assert np.all(wrapped[:, -1] == -7.0)
