import math

import numpy as np
import pytest

from smhd.core import PhysParams, State, quasilinear_matrices
from smhd.errors import (
    ConstraintViolation,
    HeightMismatch,
    NotSymmetricCase,
    ZeroTangentialField,
)
from smhd.symmetrization import (
    CvsStability,
    boundary_energy_term,
    cvs_nsc_verdict,
    cvs_sufficient_verdict,
    lambda_for_cvs,
    secondary_hyperbolic,
    secondary_matrices,
    secondary_residual_decomposition,
)

from conftest import random_state


def test_lambda_zero_recovers_primary(rng):
    p = PhysParams(g=1.9)
    for _ in range(100):
        u = random_state(rng)
        for b, a in zip(secondary_matrices(u, 0.0, p), quasilinear_matrices(u, p), strict=True):
            assert np.array_equal(b, a)


def test_secondary_matrices_symmetric(rng):
    p = PhysParams(1.0)
    for _ in range(100):
        u = random_state(rng)
        lam = rng.uniform(-1.5, 1.5)
        for m in secondary_matrices(u, lam, p):
            assert np.array_equal(m, m.T)


def test_b0_spectrum_boundary():
    p = PhysParams(1.0)
    u = State(h=1.0, v=[0, 0], B=[0, 0])
    b0, _, _ = secondary_matrices(u, 0.5, p)
    assert abs(np.min(np.linalg.eigvalsh(b0)) - 0.5) < 1e-14
    b0, _, _ = secondary_matrices(u, 1.0, p)
    assert abs(np.min(np.linalg.eigvalsh(b0))) < 1e-14


def test_hyperbolic_flag_values():
    assert secondary_hyperbolic(1.0, 0.999)
    assert not secondary_hyperbolic(1.0, 1.0)
    assert not secondary_hyperbolic(0.0, 0.0)
    assert not secondary_hyperbolic(-1.0, 0.5)


def test_hyperbolic_flag_matches_eigensolve(rng):
    p = PhysParams(g=1.0)
    for _ in range(1000):
        h = rng.uniform(0.01, 3.0)
        lam = rng.uniform(-1.5, 1.5)
        u = State(h=h, v=rng.uniform(-2, 2, 2), B=rng.uniform(-2, 2, 2))
        b0, _, _ = secondary_matrices(u, lam, p)
        pd = np.min(np.linalg.eigvalsh(b0)) > 0.0
        assert secondary_hyperbolic(h, lam) == pd


def test_residual_zero_for_zero_derivatives(rng):
    p = PhysParams(1.0)
    u = random_state(rng)
    z = np.zeros(5)
    d = secondary_residual_decomposition(u, z, z, z, 0.7, p)
    assert np.array_equal(d.primary_residual, z)
    assert d.divergence_term == 0.0
    assert np.array_equal(d.secondary_residual, z)
    assert d.reconstruction_error == 0.0


def test_residual_zero_on_solutions_with_divergence_free_data(rng):
    p = PhysParams(1.0)
    for _ in range(200):
        u = random_state(rng, h_range=(0.3, 4.0))
        lam = rng.uniform(-0.95, 0.95)
        dx1 = rng.normal(size=5)
        dx2 = rng.normal(size=5)
        dx1[3] = -(u.B[0] * dx1[0] + u.B[1] * dx2[0] + u.h * dx2[4]) / u.h
        a0, a1, a2 = quasilinear_matrices(u, p)
        dt = -np.linalg.solve(a0, a1 @ dx1 + a2 @ dx2)
        d = secondary_residual_decomposition(u, dt, dx1, dx2, lam, p)
        scale = max(1.0, np.max(np.abs(np.concatenate([dt, dx1, dx2]))))
        assert np.max(np.abs(d.secondary_residual)) < 1e-12 * scale
        assert abs(d.divergence_term) < 1e-13 * scale


def test_reconstruction_identity_random_tuples(rng):
    p = PhysParams(g=2.3)
    for _ in range(2000):
        u = random_state(rng)
        lam = rng.uniform(-2.0, 2.0)
        dt, dx1, dx2 = rng.normal(size=(3, 5)) * 3.0
        d = secondary_residual_decomposition(u, dt, dx1, dx2, lam, p)
        scale = max(1.0, float(np.max(np.abs(d.secondary_residual))))
        assert d.reconstruction_error < 1e-12 * scale


def test_lambda_choice_trivial_jump():
    plus = State(h=1, v=[0, 0.5], B=[0, 1.0])
    minus = State(h=1, v=[0, 0.5], B=[0, -0.4])
    ch = lambda_for_cvs(plus, minus)
    assert ch.lambda_plus == 0.0 and ch.lambda_minus == 0.0
    assert ch.hyperbolic_plus and ch.hyperbolic_minus


def test_lambda_choice_worked_example():
    plus = State(h=1, v=[0, 0.25], B=[0, 1.0])
    minus = State(h=1, v=[0, -0.25], B=[0, -1.0])
    ch = lambda_for_cvs(plus, minus)
    assert abs(ch.lambda_plus) == 0.25 and abs(ch.lambda_minus) == 0.25
    assert abs(ch.lambda_plus * 1.0 - ch.lambda_minus * (-1.0) - 0.5) < 1e-15
    assert ch.hyperbolic_plus and ch.hyperbolic_minus


def test_lambda_choice_boundary_not_hyperbolic():
    plus = State(h=1, v=[0, 1.0], B=[0, 0.6])
    minus = State(h=1, v=[0, -1.0], B=[0, -1.4])
    ch = lambda_for_cvs(plus, minus)  # |[v2]| = 2 = |B2+| + |B2-|
    assert abs(ch.lambda_plus) == 1.0 and abs(ch.lambda_minus) == 1.0
    assert not ch.hyperbolic_plus and not ch.hyperbolic_minus


def test_lambda_choice_defining_equation(rng):
    for _ in range(2000):
        b2p, b2m = rng.uniform(-3, 3, 2)
        if abs(b2p) + abs(b2m) == 0.0:
            continue
        v2p, v2m = rng.uniform(-3, 3, 2)
        plus = State(h=1, v=[0, v2p], B=[0, b2p])
        minus = State(h=1, v=[0, v2m], B=[0, b2m])
        ch = lambda_for_cvs(plus, minus)
        jump = v2p - v2m
        assert abs(ch.lambda_plus * b2p - ch.lambda_minus * b2m - jump) \
            < 1e-14 * max(1.0, abs(jump))
        strict = abs(jump) < abs(b2p) + abs(b2m)
        assert ch.hyperbolic_plus == strict
        assert ch.hyperbolic_minus == strict


def test_lambda_choice_zero_field_error():
    plus = State(h=1, v=[0, 1.0], B=[0, 0.0])
    minus = State(h=1, v=[0, 0.0], B=[0, 0.0])
    with pytest.raises(ZeroTangentialField):
        lambda_for_cvs(plus, minus)


def test_sufficient_verdict_worked_example():
    plus = State(h=1, v=[0, 0.25], B=[0, 1.0])
    minus = State(h=1, v=[0, -0.25], B=[0, -1.0])
    v = cvs_sufficient_verdict(plus, minus, epsilon=0.1)
    assert v.tag is CvsStability.SUFFICIENTLY_STABLE
    assert abs(v.margin - 1.5) < 1e-15


def test_sufficient_verdict_inconclusive():
    plus = State(h=1, v=[0, 1.25], B=[0, 1.0])
    minus = State(h=1, v=[0, -1.25], B=[0, -1.0])
    v = cvs_sufficient_verdict(plus, minus, epsilon=0.1)
    assert v.tag is CvsStability.INCONCLUSIVE


def test_sufficient_verdict_errors():
    with pytest.raises(ZeroTangentialField):
        cvs_sufficient_verdict(State(h=1, v=[0, 1], B=[0, 0]),
                               State(h=1, v=[0, 0], B=[0, 0]), 0.1)
    with pytest.raises(HeightMismatch):
        cvs_sufficient_verdict(State(h=2, v=[0, 1], B=[0, 1]),
                               State(h=1, v=[0, 0], B=[0, -1]), 0.1)


def _nsc(v2_jump, b2_plus, h=1.0, g=1.0):
    plus = State(h=h, v=[0, 0.5 * v2_jump], B=[0, b2_plus])
    minus = State(h=h, v=[0, -0.5 * v2_jump], B=[0, -b2_plus])
    return cvs_nsc_verdict(plus, minus, PhysParams(g))


def test_nsc_worked_examples():
    assert _nsc(0.5, 1.0).tag is CvsStability.NSC_STABLE
    v = _nsc(3.0, 1.0)
    assert v.tag is CvsStability.NSC_UNSTABLE  # 2 < 3 < 2 sqrt(3)
    v = _nsc(1.0, 1.0)
    assert v.tag is CvsStability.EXCEPTIONAL_POINT and v.index == 1


def test_nsc_exceptional_curves():
    b, g_big = 1.0, 1.0
    hits = {
        2: math.sqrt(b * b + g_big) - b,
        3: math.sqrt(b * b + g_big),
        4: b * math.sqrt((b * b + 2 * g_big) / (b * b + g_big)),
        5: 2 * b,
        6: 2 * math.sqrt(b * b + 2 * g_big),
    }
    for idx, a in hits.items():
        v = _nsc(a, b)
        assert v.tag is CvsStability.EXCEPTIONAL_POINT and v.index == idx


def test_nsc_outer_stability_branch():
    assert _nsc(4.0, 1.0).tag is CvsStability.NSC_STABLE  # 4 > 2 sqrt(3)


def test_nsc_requires_symmetric_case():
    plus = State(h=1, v=[0, 0.5], B=[0, 1.0])
    minus = State(h=1, v=[0, -0.5], B=[0, -0.5])
    with pytest.raises(NotSymmetricCase):
        cvs_nsc_verdict(plus, minus, PhysParams(1.0))


def test_sufficient_implies_nsc_stable_or_exceptional(rng):
    for _ in range(2000):
        a = rng.uniform(0.0, 6.0)
        b = rng.uniform(0.05, 2.0)
        plus = State(h=1, v=[0, 0.5 * a], B=[0, b])
        minus = State(h=1, v=[0, -0.5 * a], B=[0, -b])
        suff = cvs_sufficient_verdict(plus, minus, epsilon=1e-6)
        if suff.tag is CvsStability.SUFFICIENTLY_STABLE:
            nsc = cvs_nsc_verdict(plus, minus, PhysParams(1.0))
            assert nsc.tag in (CvsStability.NSC_STABLE, CvsStability.EXCEPTIONAL_POINT)


def _compliant_perturbation(hat, slope_pert, front_speed_pert, h_pert, v2_pert, b2_pert):
    return np.array([
        h_pert,
        front_speed_pert + hat.v[1] * slope_pert,
        v2_pert,
        hat.B[1] * slope_pert,
        b2_pert,
    ])


def test_boundary_term_vanishes_for_matched_lambda(rng):
    p = PhysParams(g=1.0)
    for _ in range(100):
        b2p, b2m = rng.uniform(0.2, 2.0), -rng.uniform(0.2, 2.0)
        v2p, v2m = rng.uniform(-1, 1, 2)
        plus = State(h=1.2, v=[0, v2p], B=[0, b2p])
        minus = State(h=1.2, v=[0, v2m], B=[0, b2m])
        ch = lambda_for_cvs(plus, minus)
        s = rng.uniform(-0.5, 0.5)
        speed = rng.uniform(-0.5, 0.5)
        hp = rng.uniform(-0.5, 0.5)
        up = _compliant_perturbation(plus, s, speed, hp, rng.uniform(-1, 1), rng.uniform(-1, 1))
        um = _compliant_perturbation(minus, s, speed, hp, rng.uniform(-1, 1), rng.uniform(-1, 1))
        val = boundary_energy_term(plus, minus, ch, up, um, s, p)
        assert abs(val) < 1e-12


def test_boundary_term_zero_lambda_closed_form(rng):
    from smhd.symmetrization import SymmetrizerChoice
    p = PhysParams(g=1.0)
    plus = State(h=1.0, v=[0, 0.25], B=[0, 1.0])
    minus = State(h=1.0, v=[0, -0.25], B=[0, -1.0])
    zero = SymmetrizerChoice(0.0, 0.0, True, True)
    s, speed, hp = 0.3, 0.1, 0.4
    up = _compliant_perturbation(plus, s, speed, hp, 0.7, -0.2)
    um = _compliant_perturbation(minus, s, speed, hp, -0.1, 0.5)
    val = boundary_energy_term(plus, minus, zero, up, um, s, p)
    # 2 g h_pert [hat v2] * slope perturbation
    assert abs(val - 2.0 * p.g * hp * 0.5 * s) < 1e-14


def test_boundary_term_zero_slope(rng):
    from smhd.symmetrization import SymmetrizerChoice
    p = PhysParams(g=1.0)
    plus = State(h=1.0, v=[0, 0.25], B=[0, 1.0])
    minus = State(h=1.0, v=[0, -0.25], B=[0, -1.0])
    choice = SymmetrizerChoice(0.37, -0.11, True, True)
    up = _compliant_perturbation(plus, 0.0, 0.2, 0.5, 0.1, 0.3)
    um = _compliant_perturbation(minus, 0.0, 0.2, 0.5, -0.4, 0.9)
    assert abs(boundary_energy_term(plus, minus, choice, up, um, 0.0, p)) < 1e-15


_SHEET_PLUS = State(h=1.0, v=[0, 0.25], B=[0, 1.0])
_SHEET_MINUS = State(h=1.0, v=[0, -0.25], B=[0, -1.0])
_UP = _compliant_perturbation(_SHEET_PLUS, 0.1, 0.2, 0.3, 0.1, 0.4)
_UM = _compliant_perturbation(_SHEET_MINUS, 0.1, 0.2, 0.3, -0.2, 0.5)


@pytest.mark.parametrize("plus, minus, up, um, error, message", [
    (State(h=1.0, v=[0.1, 0.25], B=[0, 1.0]), _SHEET_MINUS, _UP, _UM,
     ConstraintViolation, "rectilinear sheet"),
    (_SHEET_PLUS, State(h=1.5, v=[0, -0.25], B=[0, -1.0]), _UP, _UM,
     HeightMismatch, "heights differ"),
    (_SHEET_PLUS, _SHEET_MINUS, _UP + [0.1, 0, 0, 0, 0], _UM, ConstraintViolation, r"\[h\] = 0"),
    (_SHEET_PLUS, _SHEET_MINUS, _UP, _UM + [0, 0, 0, 0.1, 0], ConstraintViolation,
     "field constraint"),
], ids=["normal-velocity", "heights", "height-jump", "field-constraint"])
def test_boundary_term_rejects_each_violated_condition(plus, minus, up, um, error, message):
    p = PhysParams(g=1.0)
    ch = lambda_for_cvs(_SHEET_PLUS, _SHEET_MINUS)
    assert abs(boundary_energy_term(_SHEET_PLUS, _SHEET_MINUS, ch, _UP, _UM, 0.1, p)) < 1e-12
    with pytest.raises(error, match=message):
        boundary_energy_term(plus, minus, ch, up, um, 0.1, p)


def test_boundary_term_rejects_noncompliant():
    p = PhysParams(g=1.0)
    plus = State(h=1.0, v=[0, 0.25], B=[0, 1.0])
    minus = State(h=1.0, v=[0, -0.25], B=[0, -1.0])
    ch = lambda_for_cvs(plus, minus)
    up = np.array([0.3, 0.5, 0.0, 0.9, 0.0])  # B1 inconsistent with slope
    um = np.array([0.3, 0.5, 0.0, 0.9, 0.0])
    with pytest.raises(ConstraintViolation):
        boundary_energy_term(plus, minus, ch, up, um, 0.1, p)
