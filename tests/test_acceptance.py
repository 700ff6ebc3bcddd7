"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines; criteria 8-11 are desk-scale simulation experiments and dominate
the runtime.
"""

import math
import time
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from smhd.core import (
    PRESSURE,
    FrontGeometry,
    PhysParams,
    State,
    boundary_matrix,
    fluxes,
    normal_speeds,
    quasilinear_matrices,
)
from smhd.elastic import elastic_fluxes, elastic_quasilinear_matrices, embed_elastodynamics
from smhd.errors import ConstraintViolation
from smhd.fv import SimConfig, simulate_1d, simulate_2d, transition_band_width
from smhd.ioutil import load_json
from smhd.jumps import SidePair
from smhd.linear import LinearConfig, linear_halfplane_simulate, make_constraint_pulse
from smhd.shock import (
    det_boundary_matrix_closed_form,
    hugoniot_downstream,
    lax_verdict,
    linearized_setup,
    rectilinear_shock,
)
from smhd.symmetrization import (
    CvsStability,
    cvs_nsc_verdict,
    cvs_sufficient_verdict,
    secondary_matrices,
    secondary_residual_decomposition,
)

from conftest import random_state

CONFIGS = Path(__file__).parents[1] / "configs"


def _random_front(rng):
    return FrontGeometry(slope=rng.uniform(-2, 2), speed=rng.uniform(-3, 3))


def _random_hugoniot_pair(rng, p):
    while True:
        minus = State(h=rng.uniform(0.1, 10.0), v=rng.uniform(-3, 3, 2),
                      B=rng.uniform(-3, 3, 2))
        ratio = rng.uniform(0.1, 10.0)
        if abs(ratio - 1.0) > 0.02:
            break
    slope = rng.uniform(-2, 2)
    sign = 1 if rng.uniform() < 0.5 else -1
    plus, speed = hugoniot_downstream(minus, slope, ratio * minus.h, p, mass_flux_sign=sign)
    return SidePair(plus=plus, minus=minus, front=FrontGeometry(slope, speed), params=p)


def test_c01_lax_equivalent_to_height_increase():
    rng = np.random.default_rng(101)
    p = PhysParams(1.0)
    t0 = time.monotonic()
    disagreements = 0
    n = 10_000
    for _ in range(n):
        diag = lax_verdict(_random_hugoniot_pair(rng, p))
        if diag.satisfied != (diag.height_jump > 0):
            disagreements += 1
    elapsed = time.monotonic() - t0
    assert disagreements == 0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s exceeds 5s"
    print(f"\nACCEPT-01 lax-equivalence: PASS ({n} pairs, 0 disagreements, {elapsed:.2f}s)")


def test_c02_determinant_oracle():
    rng = np.random.default_rng(102)
    p = PhysParams(1.0)
    kept = 0
    worst = 0.0
    for _ in range(10_000):
        u = random_state(rng)
        f = _random_front(rng)
        dc = det_boundary_matrix_closed_form(u, f, p)
        dn = np.linalg.det(boundary_matrix(u, f, p))
        if abs(dc) > 1e-8 * max(1.0, abs(dn)):
            kept += 1
            worst = max(worst, abs(dn - dc) / abs(dc))
    assert kept > 9_000
    assert worst < 1e-9

    # sign changes across each root factor, checked against the numeric det
    u = State(h=1.3, v=[0.8, -0.2], B=[0.6, 0.1])
    slope = 0.4
    vn = u.v[0] - u.v[1] * slope
    bn = u.B[0] - u.B[1] * slope
    roots = [vn, vn - bn, vn + bn,
             vn - math.sqrt(bn**2 + p.g * (1 + slope**2) * u.h),
             vn + math.sqrt(bn**2 + p.g * (1 + slope**2) * u.h)]
    for root in roots:
        lo = FrontGeometry(slope, root - 1e-3)
        hi = FrontGeometry(slope, root + 1e-3)
        c_lo, c_hi = (det_boundary_matrix_closed_form(u, f, p) for f in (lo, hi))
        n_lo, n_hi = (np.linalg.det(boundary_matrix(u, f, p)) for f in (lo, hi))
        assert np.sign(c_lo) != np.sign(c_hi)
        assert np.sign(c_lo) == np.sign(n_lo) and np.sign(c_hi) == np.sign(n_hi)
    print(f"\nACCEPT-02 determinant-oracle: PASS ({kept} samples kept, "
          f"worst rel err {worst:.2e}, sign changes at all 5 roots)")


def test_c03_eigenvalue_oracle():
    rng = np.random.default_rng(103)
    p = PhysParams(1.0)
    worst = 0.0
    for _ in range(10_000):
        u = random_state(rng)
        f = _random_front(rng)
        a0, a1, a2 = quasilinear_matrices(u, p)
        lam = np.sort(sla.eigh(a1 - f.slope * a2, a0, eigvals_only=True))
        worst = max(worst, float(np.max(np.abs(lam - normal_speeds(u, p, f.normal)))))
    assert worst < 1e-10
    print(f"\nACCEPT-03 eigenvalue-oracle: PASS (10000 samples, worst abs err {worst:.2e})")


def test_c04_elastodynamics_embedding():
    rng = np.random.default_rng(104)
    p = PhysParams(1.0)
    worst = 0.0
    for _ in range(10_000):
        u = random_state(rng)
        es = embed_elastodynamics(u, p)
        f1, f2 = fluxes(u, p)
        e1, e2 = elastic_fluxes(es)
        worst = max(worst, float(np.max(np.abs(f1 - e1[:5]))),
                    float(np.max(np.abs(f2 - e2[:5]))))
        a0e, a1e, a2e = elastic_quasilinear_matrices(es)
        a0, a1, a2 = quasilinear_matrices(u, p, PRESSURE)
        worst = max(worst,
                    float(np.max(np.abs(a0e[:5, :5] - a0))),
                    float(np.max(np.abs(a1e[:5, :5] - a1))),
                    float(np.max(np.abs(a2e[:5, :5] - a2))))
    # speeds on a subsample (third independent route through the eigensolver)
    for _ in range(1_000):
        u = random_state(rng)
        s = rng.uniform(-2, 2)
        a0e, a1e, a2e = elastic_quasilinear_matrices(embed_elastodynamics(u, p))
        lam = np.sort(sla.eigh(a1e[:5, :5] - s * a2e[:5, :5], a0e[:5, :5],
                               eigvals_only=True))
        cf = normal_speeds(u, p, FrontGeometry(slope=s).normal)
        worst = max(worst, float(np.max(np.abs(lam - cf))))
    assert worst < 1e-12 or worst < 1e-10  # matrices/fluxes exact; speeds to 1e-10
    assert worst < 1e-10
    print(f"\nACCEPT-04 elastodynamics-embedding: PASS (worst discrepancy {worst:.2e})")


def test_c05_secondary_symmetrization():
    rng = np.random.default_rng(105)
    p = PhysParams(1.0)
    worst = 0.0
    for _ in range(10_000):
        u = random_state(rng)
        lam = rng.uniform(-2, 2)
        dt, dx1, dx2 = rng.normal(size=(3, 5)) * 3.0
        d = secondary_residual_decomposition(u, dt, dx1, dx2, lam, p)
        scale = max(1.0, float(np.max(np.abs(d.secondary_residual))))
        worst = max(worst, d.reconstruction_error / scale)
    assert worst < 1e-12

    u = random_state(rng)
    for b, a in zip(secondary_matrices(u, 0.0, p), quasilinear_matrices(u, p), strict=True):
        assert np.array_equal(b, a)

    mismatches = 0
    for h in np.linspace(0.0, 3.0, 50):
        for lam in np.linspace(-1.0, 1.0, 50):
            expected = h > 0.0 and abs(lam) < 1.0
            if h > 0.0:
                b0, _, _ = secondary_matrices(State(h=h, v=[0.3, -0.1], B=[0.2, 0.4]), lam, p)
                pd = bool(np.min(np.linalg.eigvalsh(b0)) > 0.0)
            else:
                pd = False
            if pd != expected:
                mismatches += 1
    assert mismatches == 0
    print(f"\nACCEPT-05 secondary-symmetrization: PASS (identity worst {worst:.2e}, "
          f"lam=0 reduction exact, 50x50 definiteness grid clean)")


def test_c06_exact_rational_shock_fixture():
    p = PhysParams(1.0)
    shock = rectilinear_shock(1.0, 2.0, 0.5, 0.0, p)
    setup = linearized_setup(shock, p)
    sp = shock.side_pair()
    tq_m = sp.minus.h * sp.minus.v[0]
    tq_b = sp.minus.h * sp.minus.B[0]
    checks = {
        "v1_plus": (shock.v1_plus, 1.0),
        "v1_minus": (shock.v1_minus, 2.0),
        "b1_minus": (shock.b1_minus, 1.0),
        "mass_flux": (tq_m, 2.0),
        "magnetic_flux": (tq_b, 1.0),
        "froude": (setup.froude, 1 / math.sqrt(2)),
        "m_star": (setup.m_star, math.sqrt(1.125)),
        "d0": (setup.d0, 1.625),
        "a0": (setup.a0, -1.25),
        "ell0": (setup.ell0, 0.0),
    }
    for name, (got, want) in checks.items():
        assert abs(got - want) <= 1e-14 * max(1.0, abs(want)), f"{name}: {got} != {want}"
    print("\nACCEPT-06 rational-shock-fixture: PASS (10 values at 1e-14)")


def test_c07_cvs_verdicts_and_containment():
    def pair(a, b, h=1.0):
        return (State(h=h, v=[0, 0.5 * a], B=[0, b]),
                State(h=h, v=[0, -0.5 * a], B=[0, -b]))

    # worked examples
    plus, minus = pair(0.5, 1.0)
    v = cvs_sufficient_verdict(plus, minus, epsilon=0.1)
    assert v.tag is CvsStability.SUFFICIENTLY_STABLE and abs(v.margin - 1.5) < 1e-15
    assert cvs_nsc_verdict(*pair(0.5, 1.0), PhysParams(1.0)).tag is CvsStability.NSC_STABLE
    assert cvs_nsc_verdict(*pair(3.0, 1.0), PhysParams(1.0)).tag is CvsStability.NSC_UNSTABLE
    exc = cvs_nsc_verdict(*pair(1.0, 1.0), PhysParams(1.0))
    assert exc.tag is CvsStability.EXCEPTIONAL_POINT and exc.index == 1

    # 200 x 200 sweep: sufficient region contained in stable-or-exceptional
    p = PhysParams(1.0)
    violations = 0
    sufficient = 0
    for a in np.linspace(0.0, 6.0, 200):
        for b in np.linspace(-2.0, 2.0, 200):
            if b == 0.0:
                continue
            plus, minus = pair(a, b)
            suff = cvs_sufficient_verdict(plus, minus, epsilon=1e-6)
            if suff.tag is not CvsStability.SUFFICIENTLY_STABLE:
                continue
            sufficient += 1
            nsc = cvs_nsc_verdict(plus, minus, p)
            if nsc.tag not in (CvsStability.NSC_STABLE, CvsStability.EXCEPTIONAL_POINT):
                violations += 1
    assert sufficient > 5_000
    assert violations == 0
    print(f"\nACCEPT-07 cvs-verdicts: PASS (examples exact; containment on "
          f"{sufficient} sufficient points, 0 violations)")


def test_c08_1d_shock_persistence():
    t0 = time.monotonic()
    cfg = SimConfig(
        dimensions=1, cells=(400,), extents=((-10.0, 10.0),), end_time=5.0,
        cfl=0.45, g=1.0, output_interval=0.25,
        initial={"type": "riemann",
                 "minus": {"h": 1.0, "v": [2.0, 0.0], "B": [1.0, 0.0]},
                 "plus": {"h": 2.0, "v": [1.0, 0.0], "B": [0.5, 0.0]},
                 "interface": 0.0})
    res = simulate_1d(cfg)
    elapsed = time.monotonic() - t0
    dx = res.grid["dx"]
    drift = float(np.nanmax(np.abs(res.front_position - res.front_position[0])))
    assert drift < 2 * dx, f"front drift {drift} >= {2 * dx}"
    assert res.max_conservation_defect < 1e-12
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s exceeds 10s"
    print(f"\nACCEPT-08 1d-shock-persistence: PASS (drift {drift:.4f} < {2 * dx}, "
          f"defect {res.max_conservation_defect:.1e}, {elapsed:.1f}s)")


def test_c09_2d_divergence_transport():
    t0 = time.monotonic()
    results = {}
    doc = load_json(CONFIGS / "vortex_2d.json")
    for n in (128, 256):
        res = simulate_2d(SimConfig.from_dict({**doc, "cells": [n, n]}))
        results[n] = (res.div_norm[0], float(np.max(res.div_norm)))
    elapsed = time.monotonic() - t0
    for n, (tau0, peak) in results.items():
        assert peak <= 10.0 * tau0, f"{n}: peak {peak} > 10 x initial {tau0}"
    ratio = results[256][1] / results[128][1]
    assert 0.35 <= ratio <= 0.65, f"refinement ratio {ratio:.3f} outside halving band"
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    print(f"\nACCEPT-09 2d-divergence-transport: PASS "
          f"(128: peak/initial {results[128][1] / results[128][0]:.2f}; "
          f"doubling ratio {ratio:.3f}; {elapsed:.1f}s)")


def test_c10_perturbed_shock_boundedness():
    t0 = time.monotonic()
    doc = load_json(CONFIGS / "perturbed_shock_2d.json")
    res = simulate_2d(SimConfig.from_dict(doc))
    a0 = res.front_amplitude[0]
    aT = res.front_amplitude[-1]
    assert a0 > 0
    assert aT / a0 <= 3.0, f"a(T)/a(0) = {aT / a0:.2f}"

    # expansion configuration, the states of rectilinear_shock(2.0, 0.5, 1.0, 0.0): the height
    # falls across the front, the subsonic upstream side has outflow ends, and no sharp
    # front is trackable by t ~ 1
    res_exp = simulate_2d(SimConfig.from_dict({
        **doc, "end_time": 1.0, "output_interval": 0.5, "boundary_x1": ["outflow", "outflow"],
        "initial": {"type": "perturbed_shock",
                    "minus": {"h": 2.0, "v": [1.0, 0.0], "B": [0.5, 0.0]},
                    "plus": {"h": 1.0, "v": [2.0, 0.0], "B": [1.0, 0.0]},
                    "front_position": 3.0, "amplitude": 0.01, "wavelengths": 1}}))
    x = res_exp.grid["x"]
    dx = res_exp.grid["dx"]
    widths = [transition_band_width(x, res_exp.snapshot[0][:, j], 1.5)
              for j in range(res_exp.snapshot.shape[2])]
    width = float(np.median(widths))
    assert width > 10 * dx, f"expansion band width {width} <= {10 * dx}"
    elapsed = time.monotonic() - t0
    assert elapsed < 300.0, f"runtime {elapsed:.1f}s exceeds 5min"
    print(f"\nACCEPT-10 perturbed-shock: PASS (a(T)/a(0) = {aT / a0:.3f} <= 3; "
          f"expansion band {width / dx:.1f} dx > 10 dx; {elapsed:.1f}s)")


def test_c11_linear_halfplane_boundedness():
    t0 = time.monotonic()
    p = PhysParams(1.0)
    setup = linearized_setup(rectilinear_shock(1.0, 2.0, 0.5, 0.0, p), p)
    ratios = {}
    for cells in ((200, 32), (400, 64)):
        cfg = LinearConfig(cells=cells, extents=((0.0, 8.0), (0.0, 4.0)), end_time=10.0,
                           output_interval=0.25,
                           pulse={"center": [3.0, 2.0], "width": 0.4,
                                  "p_amplitude": 1.0, "potential_amplitude": 0.5})
        res = linear_halfplane_simulate(setup, cfg)
        ratios[cells] = res.norm_ratio_max
        assert res.norm_ratio_max < 10.0
    r_coarse = ratios[(200, 32)]
    r_fine = ratios[(400, 64)]
    assert 0.5 <= r_fine / r_coarse <= 1.5, f"refinement drift {r_fine / r_coarse:.2f}"

    # non-compliant initial data are rejected
    cfg = LinearConfig(cells=(64, 8), extents=((0.0, 8.0), (0.0, 4.0)), end_time=1.0,
                       pulse={"center": [3.0, 2.0], "width": 0.5})
    bad = make_constraint_pulse(cfg, setup)
    bad[3] += bad[0] * 0.7
    rejected = False
    try:
        linear_halfplane_simulate(setup, cfg, u0=bad)
    except ConstraintViolation:
        rejected = True
    assert rejected
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s exceeds 2min"
    print(f"\nACCEPT-11 linear-halfplane: PASS (max norm ratios "
          f"{r_coarse:.3f} / {r_fine:.3f}, constraint rejection works; {elapsed:.1f}s)")
