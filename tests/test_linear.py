import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg as sla

import smhd.linear
from smhd.core import PhysParams
from smhd.errors import ConfigError, ConstraintViolation, LaxViolation, NonFiniteState
from smhd.linear import (
    LinearConfig,
    _Differences,
    _upwind_split,
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
        cfg = _cfg(cells=n, end_time=1.0)
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


def test_wave_operator_residual_needs_three_time_levels():
    setup = _setup()
    res = linear_halfplane_simulate(setup, _cfg(cells=(16, 8), end_time=1e-6))
    assert res.steps == 1 and res.p_triple is None
    with pytest.raises(ValueError, match="no three time levels"):
        wave_operator_residual(res, setup)


def test_config_validation():
    with pytest.raises(ConfigError):
        LinearConfig(cells=(4, 4), extents=((0, 8), (0, 4)), end_time=1.0, pulse={})
    with pytest.raises(ConfigError):
        LinearConfig(cells=(32, 8), extents=((1.0, 8.0), (0, 4)), end_time=1.0, pulse={})
    for bad in [{"output_interval": 0.0}, {"output_interval": -0.1}, {"output_interval": "0.1"},
                {"end_time": math.inf},
                {"extents": ((0.0, 8.0), (1.0, 1.0))}, {"extents": ((0.0, -8.0), (0.0, 4.0))}]:
        with pytest.raises(ConfigError):
            LinearConfig(**{"cells": (32, 8), "extents": ((0.0, 8.0), (0.0, 4.0)),
                            "end_time": 1.0, **bad})
    setup = _setup()
    with pytest.raises(ConfigError):
        linear_halfplane_simulate(setup, _cfg(end_time=0.5), u0=np.zeros((5, 7, 7)))


def _random_setups(n, seed):
    """Admissible shocks (ratio > 1) with b2 != 0 over a range of scales."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        g = rng.uniform(0.3, 3.0)
        p = PhysParams(g)
        yield linearized_setup(rectilinear_shock(rng.uniform(0.3, 3.0), rng.uniform(1.01, 6.0),
                                                 rng.uniform(0.05, 3.0), rng.uniform(-3.0, 3.0),
                                                 p), p)


def test_upwind_split_matches_generalized_eigh():
    # oracle: scipy's generalized symmetric eigensolver on the pencil (A, A0); the
    # eigenvector signs are free, so the projectors G+- are compared, not the basis
    for setup in _random_setups(40, seed=11):
        a0, a1, a2 = system_matrices(setup)
        for a in (a1, a2):
            lam, vecs = sla.eigh(a, a0)
            g_plus, g_minus, v, inv, lam_np = _upwind_split(a, a0)
            scale = max(1.0, np.max(np.abs(lam)))
            assert np.max(np.abs(lam_np - lam)) <= 1e-12 * scale
            assert np.max(np.abs(inv @ v - np.eye(5))) <= 1e-12
            for g, part in ((g_plus, np.maximum(lam, 0.0)), (g_minus, np.minimum(lam, 0.0))):
                ref = vecs @ np.diag(part) @ vecs.T @ a0
                assert np.max(np.abs(g - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))


def test_one_step_product_matches_einsum_roll_step():
    rng = np.random.default_rng(5)
    n1, n2 = 13, 7
    u, ub = rng.standard_normal((5, n1, n2)), rng.standard_normal((5, n2))
    g1p, g1m, g2p, g2m = rng.standard_normal((4, 5, 5))
    c1, c2 = 0.3, 0.2
    # reference: ghost columns by concatenation, periodic x2 differences by np.roll
    ug = np.concatenate([ub[:, None, :], u, u[:, -1:, :]], axis=1)
    dm1, dp1 = ug[:, 1:-1] - ug[:, :-2], ug[:, 2:] - ug[:, 1:-1]
    dm2, dp2 = u - np.roll(u, 1, axis=2), np.roll(u, -1, axis=2) - u
    ref = u - c1 * (np.einsum("ij,jxy->ixy", g1p, dm1) + np.einsum("ij,jxy->ixy", g1m, dp1)) \
        - c2 * (np.einsum("ij,jxy->ixy", g2p, dm2) + np.einsum("ij,jxy->ixy", g2m, dp2))
    d = np.full((4, 5, n1, n2), np.nan)
    _Differences(d, u, ub)()
    for block, diff in zip(d, (dm1, dp1, dm2, dp2)):
        assert np.array_equal(block, diff)
    k = np.hstack([c1 * g1p, c1 * g1m, c2 * g2p, c2 * g2m])
    new = u - (k @ d.reshape(20, -1)).reshape(u.shape)
    assert np.max(np.abs(new - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_import_cli_loads_no_scipy():
    code = "import smhd.cli, sys; assert 'scipy' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


@pytest.mark.parametrize("module", ["smhd.core", "smhd.jumps"])
def test_import_analysis_module_loads_no_simulator(module):
    heavy = ["smhd.fv", "smhd.linear", "smhd.sweep", "smhd.elastic"]
    code = (f"import {module}, sys; loaded = set({heavy}) & set(sys.modules); "
            "assert not loaded, loaded")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def test_two_outgoing_characteristics_rejected():
    # M = 0.1 < m1: the x1 = 0 boundary has two negative speeds, 1 - m_star/M and 1 - m1/M
    with pytest.raises(LaxViolation, match="exactly one outgoing"):
        linear_halfplane_simulate(dataclasses.replace(_setup(), froude=0.1), _cfg(end_time=0.1))


def test_run_beyond_max_steps_rejected(monkeypatch):
    monkeypatch.setattr(smhd.linear, "MAX_STEPS", 10)
    cfg = _cfg(cells=(32, 8), end_time=2.0)
    with pytest.raises(ConfigError, match="MAX_STEPS"):
        linear_halfplane_simulate(_setup(), cfg)
    cfg.end_time = 0.05
    assert linear_halfplane_simulate(_setup(), cfg).steps <= 10


def test_non_finite_state_raises():
    setup = _setup()
    u0 = make_constraint_pulse(_cfg(end_time=0.5), setup)
    u0[1, 50, 3] = np.inf
    with pytest.raises(NonFiniteState):
        linear_halfplane_simulate(setup, _cfg(end_time=0.5), u0=u0)
    # a flipped d0 makes the boundary problem unstable: the state overflows mid-run
    # and the final record, not a returned inf, reports it
    unstable = dataclasses.replace(setup, d0=-setup.d0)
    with pytest.raises(NonFiniteState) as info:
        linear_halfplane_simulate(unstable, _cfg(end_time=20.0, output_interval=20.0))
    assert info.value.time == pytest.approx(20.0)


def test_wide_pulse_is_uniform():
    cfg = _cfg()
    cfg.pulse = {"width": 1e300, "p_amplitude": 0.5}
    u = make_constraint_pulse(cfg, _setup())
    assert np.all(u[0] == 0.5)
