import math

import numpy as np
import pytest
import scipy.linalg as sla

from smhd.core import PhysParams
from smhd.errors import ConfigError, ConstraintViolation
from smhd.linear import (
    LinearConfig,
    boundary_condition_matrix,
    constraint_residual,
    linear_halfplane_simulate,
    make_constraint_pulse,
    system_matrices,
    wave_operator_residual,
)
from smhd.shock import linearized_setup, rectilinear_shock


def _setup(g=1.0, ratio=2.0, b1_plus=0.5, b2=0.0):
    p = PhysParams(g)
    return linearized_setup(rectilinear_shock(1.0, ratio, b1_plus, b2, p), p)


def _cfg(cells=(100, 16), end_time=2.0, **kw):
    return LinearConfig(cells=cells, extents=((0.0, 8.0), (0.0, 4.0)), end_time=end_time,
                        pulse={"center": [3.0, 2.0], "width": 0.5, "p_amplitude": 1.0,
                               "potential_amplitude": 0.4}, **kw)


def test_system_matrices_symmetric_and_signature():
    setup = _setup()
    a0, a1, a2 = system_matrices(setup)
    assert np.array_equal(a1, a1.T) and np.array_equal(a2, a2.T)
    assert np.min(np.linalg.eigvalsh(a0)) > 0
    lam = np.sort(sla.eigh(a1, a0, eigvals_only=True))
    # one outgoing, four incoming characteristics in the normal direction
    assert lam[0] < 0 < lam[1]
    # closed-form speeds: 1 -+ m_star/M, 1 -+ m1/M, 1
    m = setup.froude
    expected = np.sort([1 - setup.m_star / m, 1 - setup.m1 / m, 1.0,
                        1 + setup.m1 / m, 1 + setup.m_star / m])
    assert np.max(np.abs(lam - expected)) < 1e-12


def test_boundary_matrix_shape_and_rational_values():
    setup = _setup()
    c = boundary_condition_matrix(setup)
    assert c.shape == (4, 5)
    assert abs(c[0, 0] - 1.625) < 1e-14       # d0
    assert c[0, 2] == 0.0                     # ell0 = 0 for b2 = 0
    assert abs(c[2, 0] - setup.m1) < 1e-15


def test_zero_data_stay_zero():
    setup = _setup()
    cfg = _cfg(end_time=0.5)
    res = linear_halfplane_simulate(setup, cfg, u0=np.zeros((5, 100, 16)))
    assert np.max(np.abs(res.u_final)) == 0.0
    assert np.max(np.abs(res.phi_final)) == 0.0
    assert res.l2_u[-1] == 0.0


def test_pulse_satisfies_constraint_exactly():
    setup = _setup(b2=0.3)
    cfg = _cfg()
    u0 = make_constraint_pulse(cfg, setup)
    r = constraint_residual(u0, setup, 8.0 / 100, 4.0 / 16)
    assert np.max(np.abs(r)) < 1e-12


def test_constraint_violation_rejected():
    setup = _setup()
    cfg = _cfg(end_time=0.5)
    u0 = make_constraint_pulse(cfg, setup)
    u0[3] += 0.5 * u0[0] + 0.1 * np.exp(-((np.arange(100) - 50) ** 2 / 50.0))[:, None]
    with pytest.raises(ConstraintViolation):
        linear_halfplane_simulate(setup, cfg, u0=u0)


def test_bounded_norms_short_run():
    setup = _setup()
    res = linear_halfplane_simulate(setup, _cfg(end_time=3.0))
    assert res.norm_ratio_max < 10.0
    assert np.max(res.energy) <= res.energy[0] * 10.0


def test_front_responds_then_settles():
    setup = _setup()
    res = linear_halfplane_simulate(setup, _cfg(cells=(160, 24), end_time=6.0))
    assert np.max(res.front_norm) > 0.0
    assert np.isfinite(res.front_norm).all()


def test_wave_equation_residual_truncation_order():
    setup = _setup()
    ratios = []
    for n in ((120, 24), (240, 48)):
        cfg = _cfg(cells=n, end_time=1.5, wave_check_time=1.0)
        res = linear_halfplane_simulate(setup, cfg)
        r = wave_operator_residual(res, setup)
        x = res.grid["x"][1:-1]
        window = (x > 1.0) & (x < 7.0)
        rw = r[window, :]
        # compare against the magnitude of the operator pieces themselves
        pm, p0, pp = res.p_triple
        dt, dx, dy = res.dt, res.grid["dx"], res.grid["dy"]
        lap = ((p0[2:, 1:-1] - 2 * p0[1:-1, 1:-1] + p0[:-2, 1:-1]) / dx**2
               + (p0[1:-1, 2:] - 2 * p0[1:-1, 1:-1] + p0[1:-1, :-2]) / dy**2)
        scale = np.sqrt(np.mean(lap[window, :] ** 2))
        ratios.append(np.sqrt(np.mean(rw**2)) / scale)
    assert ratios[0] < 0.5
    assert ratios[1] < 0.8 * ratios[0]


def test_config_validation():
    with pytest.raises(ConfigError):
        LinearConfig(cells=(4, 4), extents=((0, 8), (0, 4)), end_time=1.0, pulse={})
    with pytest.raises(ConfigError):
        LinearConfig(cells=(32, 8), extents=((1.0, 8.0), (0, 4)), end_time=1.0, pulse={})
    for bad in [{"output_interval": 0.0}, {"output_interval": -0.1}, {"output_interval": "0.1"},
                {"end_time": math.inf}, {"wave_check_time": "x"},
                {"extents": ((0.0, 8.0), (1.0, 1.0))}, {"extents": ((0.0, -8.0), (0.0, 4.0))}]:
        with pytest.raises(ConfigError):
            LinearConfig(**{"cells": (32, 8), "extents": ((0.0, 8.0), (0.0, 4.0)),
                            "end_time": 1.0, **bad})
    setup = _setup()
    with pytest.raises(ConfigError):
        linear_halfplane_simulate(setup, _cfg(end_time=0.5), u0=np.zeros((5, 7, 7)))
