import math

import numpy as np
import pytest
import scipy.linalg as sla

from smhd.core import (
    PRESSURE,
    PRIMITIVE_HEIGHT,
    FrontGeometry,
    PhysParams,
    State,
    axis_fluxes,
    boundary_matrix,
    conserved_from_primitive,
    fast_speed,
    fluxes,
    normal_speeds,
    primitive_from_conserved,
    quasilinear_matrices,
)
from smhd.errors import NonPositiveHeight
from smhd.shock import det_boundary_matrix_closed_form

from conftest import random_state


def test_conserved_zero_velocity_identity():
    q = conserved_from_primitive(State(h=1.0, v=[0, 0], B=[0, 0]))
    assert np.array_equal(q, [1, 0, 0, 0, 0])


def test_conserved_direct_products():
    q = conserved_from_primitive(State(h=2.0, v=[1, 0], B=[0.5, 0]))
    assert np.array_equal(q, [2, 2, 0, 1, 0])


def test_conserved_round_trip(rng):
    worst = 0.0
    for _ in range(10_000):
        u = random_state(rng)
        back = primitive_from_conserved(conserved_from_primitive(u))
        vec = u.as_vector()
        err = np.max(np.abs(back.as_vector() - vec) / np.maximum(1.0, np.abs(vec)))
        worst = max(worst, err)
    assert worst < 1e-14


def test_nonpositive_height_rejected():
    with pytest.raises(NonPositiveHeight):
        State(h=0.0, v=[0, 0], B=[0, 0])
    with pytest.raises(NonPositiveHeight):
        State(h=-1.0, v=[0, 0], B=[0, 0])
    with pytest.raises(NonPositiveHeight):
        primitive_from_conserved([-0.5, 0, 0, 0, 0])


def test_unknown_quasilinear_form_rejected():
    with pytest.raises(ValueError, match="unknown quasilinear form"):
        quasilinear_matrices(State(h=1.0, v=[0, 0], B=[0, 0]), PhysParams(1.0), "conserved")


def test_flux_hydrostatic_rest():
    f1, f2 = fluxes(State(h=1.0, v=[0, 0], B=[0, 0]), PhysParams(1.0))
    assert np.array_equal(f1, [0, 0.5, 0, 0, 0])
    assert np.array_equal(f2, [0, 0, 0.5, 0, 0])


def test_flux_hand_substitution():
    # v1^2 - B1^2 cancels, leaving only the g h^2 / 2 term
    f1, _ = fluxes(State(h=1.0, v=[1, 0], B=[1, 0]), PhysParams(1.0))
    assert np.allclose(f1, [1, 0.5, 0, 0, 0], atol=1e-15)


def test_axis_fluxes_bit_equal_on_scalars_and_arrays(rng):
    # the pointwise fluxes and the simulator's array fluxes are one formula
    states = [random_state(rng) for _ in range(40)]
    q = np.stack([conserved_from_primitive(u) for u in states], axis=1)
    v = np.stack([u.v for u in states], axis=1)
    b = np.stack([u.B for u in states], axis=1)
    arrays = axis_fluxes(q, v, b, 1.7)
    assert np.array_equal(axis_fluxes(q, v, b, 1.7, ndim=1), arrays[:1])
    for k, u in enumerate(states):
        assert np.array_equal(np.stack(fluxes(u, PhysParams(1.7))), arrays[:, :, k])


def test_flux_induction_rows_structure(rng):
    for _ in range(50):
        u = random_state(rng)
        f1, f2 = fluxes(u, PhysParams(2.0))
        assert f1[3] == 0.0
        assert f2[4] == 0.0
        assert f1[4] == -f2[3]


def test_quasilinear_rest_state():
    a0, a1, _ = quasilinear_matrices(State(h=1.0, v=[0, 0], B=[0, 0]), PhysParams(1.0))
    assert np.array_equal(a0, np.eye(5))
    a1_expected = np.zeros((5, 5))
    a1_expected[0, 1] = a1_expected[1, 0] = 1.0
    assert np.array_equal(a1, a1_expected)


def test_matrices_symmetric_and_a0_positive(rng):
    p = PhysParams(g=0.7)
    for _ in range(200):
        u = random_state(rng)
        for form in (PRIMITIVE_HEIGHT, PRESSURE):
            a0, a1, a2 = quasilinear_matrices(u, p, form)
            assert np.array_equal(a1, a1.T)
            assert np.array_equal(a2, a2.T)
            assert np.min(np.linalg.eigvalsh(a0)) > 0.0


def test_forms_share_normal_speeds(rng):
    p = PhysParams(g=1.4)
    for _ in range(300):
        u = random_state(rng)
        s = rng.uniform(-2, 2)
        speeds = None
        for form in (PRIMITIVE_HEIGHT, PRESSURE):
            a0, a1, a2 = quasilinear_matrices(u, p, form)
            lam = np.sort(sla.eigh(a1 - s * a2, a0, eigvals_only=True))
            if speeds is None:
                speeds = lam
            else:
                assert np.max(np.abs(lam - speeds)) < 1e-10


def test_pressure_form_is_the_primitive_form_in_pressure_unknowns(rng):
    # dp = g h dh, so with J = diag(1/(g h), 1, 1, 1, 1) the pressure form is h J A J
    # for A the primitive-height form
    p = PhysParams(g=1.3)
    for _ in range(300):
        u = random_state(rng)
        j = np.diag([1.0 / (p.g * u.h), 1.0, 1.0, 1.0, 1.0])
        prim = quasilinear_matrices(u, p, PRIMITIVE_HEIGHT)
        pres = quasilinear_matrices(u, p, PRESSURE)
        for a, b in zip(prim, pres):
            ref = u.h * j @ a @ j
            assert np.max(np.abs(b - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_boundary_matrix_stationary_flat_front(rng):
    p = PhysParams(1.0)
    u = random_state(rng)
    _, a1, _ = quasilinear_matrices(u, p)
    bm = boundary_matrix(u, FrontGeometry(0.0, 0.0), p)
    assert np.array_equal(bm, a1)


def test_boundary_matrix_symmetric(rng):
    p = PhysParams(1.0)
    for _ in range(100):
        u = random_state(rng)
        f = FrontGeometry(slope=rng.uniform(-2, 2), speed=rng.uniform(-2, 2))
        bm = boundary_matrix(u, f, p)
        assert np.array_equal(bm, bm.T)


def test_boundary_matrix_determinant_oracle(rng):
    p = PhysParams(g=2.2)
    for _ in range(500):
        u = random_state(rng)
        f = FrontGeometry(slope=rng.uniform(-2, 2), speed=rng.uniform(-2, 2))
        dn = np.linalg.det(boundary_matrix(u, f, p))
        dc = det_boundary_matrix_closed_form(u, f, p)
        if abs(dc) > 1e-8 * max(1.0, abs(dn)):
            assert abs(dn - dc) / abs(dc) < 1e-9


def test_fast_speed_without_normal_field():
    # with B_N = 0 the fast speed is the gravity wave speed sqrt(g h)
    assert fast_speed(0.0, 1.0, 1.0) == 1.0
    assert fast_speed(0.0, 2.0, 1.0) == math.sqrt(2)
    assert abs(fast_speed(0.0, 0.25, 9.8) - math.sqrt(2.45)) < 1e-15


def _fd_jacobian(func, x0, eps=1e-7):
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    out = np.empty((func(x0).size, n))
    for j in range(n):
        dp = x0.copy()
        dm = x0.copy()
        dp[j] += eps
        dm[j] -= eps
        out[:, j] = (func(dp) - func(dm)) / (2 * eps)
    return out


def _flux_of_conserved(q, params, which):
    u = primitive_from_conserved(q)
    return fluxes(u, params)[which]


def test_flux_jacobian_matches_quasilinear_modulo_constraint(rng):
    """The conserved-flux Jacobian and the transported quasilinear
    matrices differ exactly by a rank-one term in the h*B column: the
    conservative form absorbs div(hB)-proportional terms that the
    primitive form carries through the constraint.  Adding the known
    correction, the two agree to finite-difference accuracy."""
    p = PhysParams(g=1.0)
    for _ in range(30):
        u = random_state(rng, h_range=(0.5, 3.0), field_range=(-2.0, 2.0))
        q0 = conserved_from_primitive(u)
        a0, a1, a2 = quasilinear_matrices(u, p)
        a0inv = np.linalg.inv(a0)
        # dq/dW for W = (h, v, B)
        t = np.eye(5)
        t[:, 0] = [1.0, *u.v, *u.B]
        t[1, 1] = t[2, 2] = t[3, 3] = t[4, 4] = u.h
        correction = np.array([0.0, u.B[0], u.B[1], u.v[0], u.v[1]])
        for which, col in ((0, 3), (1, 4)):
            jac = _fd_jacobian(lambda q: _flux_of_conserved(q, p, which), q0)
            ai = a1 if which == 0 else a2
            transported = t @ a0inv @ ai @ np.linalg.inv(t)
            transported[:, col] -= correction
            assert np.max(np.abs(jac - transported)) < 1e-6


def test_curl_convention_against_primitive_equations(rng):
    """If the derivative tuples solve the primitive equations with a
    pointwise-zero divergence term, the conservative flux divergence
    (built by chain rule from the componentwise flux expansion)
    vanishes: the curl expansion and the equations agree."""
    p = PhysParams(g=1.7)
    for _ in range(50):
        u = random_state(rng, h_range=(0.5, 3.0), field_range=(-2.0, 2.0))
        dx1 = rng.normal(size=5)
        dx2 = rng.normal(size=5)
        # zero the divergence term by adjusting d1(B1)
        dx1[3] = -(u.B[0] * dx1[0] + u.B[1] * dx2[0] + u.h * dx2[4]) / u.h
        a0, a1, a2 = quasilinear_matrices(u, p)
        dt = -np.linalg.solve(a0, a1 @ dx1 + a2 @ dx2)

        def dq(du):
            return np.array([
                du[0],
                u.v[0] * du[0] + u.h * du[1],
                u.v[1] * du[0] + u.h * du[2],
                u.B[0] * du[0] + u.h * du[3],
                u.B[1] * du[0] + u.h * du[4],
            ])

        jac1 = _fd_jacobian(lambda w: fluxes(State(h=w[0], v=w[1:3], B=w[3:5]), p)[0],
                            u.as_vector())
        jac2 = _fd_jacobian(lambda w: fluxes(State(h=w[0], v=w[1:3], B=w[3:5]), p)[1],
                            u.as_vector())
        residual = dq(dt) + jac1 @ dx1 + jac2 @ dx2
        assert np.max(np.abs(residual)) < 1e-6


def test_normal_speeds_closed_form_vs_eigensolve(rng):
    p = PhysParams(g=1.0)
    for _ in range(500):
        u = random_state(rng)
        f = FrontGeometry(slope=rng.uniform(-2, 2), speed=0.0)
        a0, a1, a2 = quasilinear_matrices(u, p)
        lam = np.sort(sla.eigh(a1 - f.slope * a2, a0, eigvals_only=True))
        assert np.max(np.abs(lam - normal_speeds(u, p, f.normal))) < 1e-10
