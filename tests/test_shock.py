import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from smhd.core import FrontGeometry, PhysParams, State, boundary_matrix, fast_speed, normal_speeds
from smhd.errors import DegenerateHeight, InvalidParameter, InvalidRatio, LaxViolation, NotAShock
from smhd.jumps import (
    DiscontinuityType,
    GridSide,
    SidePair,
    classify,
    residual_scale,
    rh_residual,
    side_traces,
    trace_quantities,
)
from smhd.shock import (
    det_boundary_matrix_closed_form,
    hugoniot_downstream,
    k2_shock_possible,
    lax_kernel,
    lax_verdict,
    linearized_setup,
    rectilinear_family,
    rectilinear_shock,
)

from conftest import random_state


def _pair(plus, minus, slope=0.0, speed=0.0, g=1.0):
    return SidePair(plus=plus, minus=minus, front=FrontGeometry(slope, speed),
                    params=PhysParams(g))


def _random_hugoniot(rng, p, slope_range=(-2.0, 2.0)):
    while True:
        minus = random_state(rng)
        ratio = rng.uniform(0.1, 10.0)
        if abs(ratio - 1.0) > 0.02:
            break
    slope = rng.uniform(*slope_range)
    sign = 1 if rng.uniform() < 0.5 else -1
    plus, speed = hugoniot_downstream(minus, slope, ratio * minus.h, p, mass_flux_sign=sign)
    return SidePair(plus=plus, minus=minus, front=FrontGeometry(slope, speed), params=p)


def test_exact_rational_solution():
    minus = State(h=1.0, v=[2, 0], B=[1, 0])
    plus, speed = hugoniot_downstream(minus, 0.0, 2.0, PhysParams(1.0))
    assert speed == 0.0
    assert plus.h == 2.0
    assert np.allclose(plus.v, [1, 0], atol=1e-15)
    assert np.allclose(plus.B, [0.5, 0], atol=1e-15)
    # substitute back into all five conditions
    assert rh_residual(_pair(plus, minus, speed=speed)).max_abs < 1e-14


def test_continuity_limit():
    minus = State(h=1.0, v=[2, 0], B=[1, 0])
    plus, _ = hugoniot_downstream(minus, 0.0, 1.0 + 1e-9, PhysParams(1.0))
    assert np.max(np.abs(plus.as_vector() - minus.as_vector())) < 1e-8


def test_degenerate_height_rejected():
    minus = State(h=1.0, v=[2, 0], B=[1, 0])
    with pytest.raises(DegenerateHeight):
        hugoniot_downstream(minus, 0.0, 1.0, PhysParams(1.0))
    for h_plus in (0.0, -2.0):
        with pytest.raises(DegenerateHeight, match="downstream height must be positive"):
            hugoniot_downstream(minus, 0.0, h_plus, PhysParams(1.0))
    with pytest.raises(ValueError, match="mass_flux_sign"):
        hugoniot_downstream(minus, 0.0, 2.0, PhysParams(1.0), mass_flux_sign=0)


def test_random_hugoniot_pairs_are_shocks(rng):
    p = PhysParams(g=1.0)
    for _ in range(1000):
        sp = _random_hugoniot(rng, p)
        assert rh_residual(sp).max_abs < 1e-12 * rh_residual(sp).scale
        assert classify(sp).kind is DiscontinuityType.SHOCK


def test_hugoniot_inverse_recovers_upstream(rng):
    p = PhysParams(g=1.0)
    for _ in range(300):
        sp = _random_hugoniot(rng, p, slope_range=(-1.0, 1.0))
        back, speed2 = hugoniot_downstream(sp.plus, sp.front.slope, sp.minus.h, p,
                                           mass_flux_sign=1 if
                                           (sp.minus.v[0] - sp.minus.v[1] * sp.front.slope
                                            - sp.front.speed) > 0 else -1)
        vec = sp.minus.as_vector()
        assert np.max(np.abs(back.as_vector() - vec)) < 1e-12 * max(1.0, np.max(np.abs(vec)))
        assert abs(speed2 - sp.front.speed) < 1e-12 * max(1.0, abs(sp.front.speed))


def test_speeds_magnetic_rest_state():
    got = normal_speeds(State(h=1, v=[0, 0], B=[1, 0]), PhysParams(1.0), FrontGeometry().normal)
    expected = [-math.sqrt(2), -1.0, 0.0, 1.0, math.sqrt(2)]
    assert np.max(np.abs(got - expected)) < 1e-15


def test_speeds_pure_shallow_water(rng):
    p = PhysParams(g=1.0)
    for _ in range(50):
        u = State(h=rng.uniform(0.1, 5), v=rng.uniform(-3, 3, 2), B=[0, 0])
        s = rng.uniform(-2, 2)
        got = normal_speeds(u, p, FrontGeometry(slope=s).normal)
        vn = u.v[0] - u.v[1] * s
        c = math.sqrt(p.g * u.h * (1 + s * s))
        assert np.allclose(got, [vn - c, vn, vn, vn, vn + c], atol=1e-13)


def test_det_closed_form_roots():
    p = PhysParams(1.0)
    u = State(h=1.0, v=[1.0, 0.0], B=[0.5, 0.0])
    # m = 0: front rides the fluid
    assert det_boundary_matrix_closed_form(u, FrontGeometry(0.0, 1.0), p) == 0.0
    # m^2 = b^2: front at the Alfven speed
    assert abs(det_boundary_matrix_closed_form(u, FrontGeometry(0.0, 0.5), p)) < 1e-15


@pytest.mark.parametrize("h", [1e-60, 1e60])
def test_det_closed_form_at_extreme_heights(h):
    # (g / h^6) m (m^2 - b^2) (m^2 - b^2 - g |N|^2 h^3) in exact arithmetic; h^6 itself
    # underflows to 0 at h = 1e-60 and overflows at h = 1e60
    p = PhysParams(1.0)
    u = State(h=h, v=[1.0, 0.2], B=[0.3, -0.1])
    front = FrontGeometry(slope=0.5, speed=-0.4)
    hf, g, nsq = Fraction(h), Fraction(p.g), Fraction(front.norm_sq)
    vn = Fraction(u.v[0]) - Fraction(u.v[1]) * Fraction(front.slope)
    bn = Fraction(u.B[0]) - Fraction(u.B[1]) * Fraction(front.slope)
    m, b = hf * (vn - Fraction(front.speed)), hf * bn
    d = m * m - b * b
    exact = g / hf**6 * m * d * (d - g * nsq * hf**3)
    got = det_boundary_matrix_closed_form(u, front, p)
    assert math.isfinite(got)
    assert abs(Fraction(got) - exact) <= 1e-15 * abs(exact)


def test_det_sign_changes_across_each_root():
    p = PhysParams(1.0)
    u = State(h=1.3, v=[0.8, -0.2], B=[0.6, 0.1], )
    slope = 0.4
    vn = u.v[0] - u.v[1] * slope
    bn = u.B[0] - u.B[1] * slope
    nsq = 1 + slope**2
    roots = [vn,                                  # m = 0
             vn - bn,                             # m = b
             vn - math.sqrt(bn**2 + p.g * nsq * u.h)]  # gravity factor
    for root in roots:
        for delta in (1e-3, 1e-2):
            lo = det_boundary_matrix_closed_form(u, FrontGeometry(slope, root - delta), p)
            hi = det_boundary_matrix_closed_form(u, FrontGeometry(slope, root + delta), p)
            lo_n = np.linalg.det(boundary_matrix(u, FrontGeometry(slope, root - delta), p))
            hi_n = np.linalg.det(boundary_matrix(u, FrontGeometry(slope, root + delta), p))
            assert np.sign(lo) != np.sign(hi)
            assert np.sign(lo) == np.sign(lo_n)
            assert np.sign(hi) == np.sign(hi_n)


def test_lax_verdict_rational_shock():
    minus = State(h=1.0, v=[2, 0], B=[1, 0])
    plus, speed = hugoniot_downstream(minus, 0.0, 2.0, PhysParams(1.0))
    diag = lax_verdict(_pair(plus, minus, speed=speed))
    assert diag.satisfied and diag.k == 1
    assert diag.height_jump == 1.0
    # numerically: 2 > sqrt(1 + 1) on the upstream side, 0.5 < 1 < 1.5 downstream
    assert diag.eigenvalues_minus[0] > speed


def test_lax_verdict_expansion_rejected():
    minus = State(h=1.0, v=[2, 0], B=[1, 0])
    plus, speed = hugoniot_downstream(minus, 0.0, 2.0, PhysParams(1.0))
    diag = lax_verdict(_pair(minus, plus, speed=speed))  # sides swapped
    assert not diag.satisfied
    assert diag.k is None
    assert diag.height_jump == -1.0


def test_lax_not_a_shock():
    u = State(h=1.0, v=[0.3, 0.1], B=[0.2, 0.4])
    with pytest.raises(NotAShock):
        lax_verdict(_pair(u, u, speed=u.v[0]))


def test_lax_equivalent_to_height_increase(rng):
    p = PhysParams(g=1.0)
    for _ in range(1000):
        sp = _random_hugoniot(rng, p)
        diag = lax_verdict(sp)
        assert diag.satisfied == (diag.height_jump > 0)


def test_extreme_shock_upstream_speeds(rng):
    p = PhysParams(g=1.0)
    count = 0
    for _ in range(500):
        sp = _random_hugoniot(rng, p)
        diag = lax_verdict(sp)
        if diag.satisfied:
            count += 1
            assert np.all(diag.eigenvalues_minus > diag.front_speed)
    assert count > 100


def test_k2_window_always_empty(rng):
    p = PhysParams(g=1.0)
    for _ in range(500):
        sp = _random_hugoniot(rng, p)
        assert not k2_shock_possible(sp)


def test_rectilinear_rational_case():
    shock = rectilinear_shock(1.0, 2.0, 0.5, 0.0, PhysParams(1.0))
    assert shock.v1_plus == 1.0
    assert shock.v1_minus == 2.0
    assert shock.b1_minus == 1.0
    assert shock.h_plus == 2.0
    assert classify(shock.side_pair()).kind is DiscontinuityType.SHOCK


def test_rectilinear_invalid_ratio():
    with pytest.raises(InvalidRatio):
        rectilinear_shock(1.0, 1.0, 0.5, 0.0, PhysParams(1.0))


def _one_element(u: State) -> GridSide:
    return GridSide(np.array([u.h]), u.v[:, None], u.B[:, None])


def _differs(scalar, array) -> bool:
    """Whether a one-element array result is not bit-equal to the scalar result."""
    return not (isinstance(scalar, (bool, float)) and np.shape(array) == (1,)
                and array[0] == scalar)


def test_shared_formulas_bit_equal_on_scalars_and_arrays(rng):
    # (h-, ratio, B1+, B2, g); on the first shock, b1_plus**2 through libm pow
    # gave v1+ = 1.8179066218755935 on floats and ...933 on arrays.
    family = [(1.2150208003089658, 4.806664192903473, 1.6033979214195082, 0.0, 1.0)]
    family += [(rng.uniform(0.1, 5.0), rng.uniform(1.01, 6.0), rng.uniform(0.05, 3.0),
                rng.uniform(-2.0, 2.0), rng.uniform(0.2, 3.0)) for _ in range(3000)]
    pairs = [rectilinear_shock(*x[:4], PhysParams(x[4])).side_pair() for x in family[:500]]
    pairs += [_random_hugoniot(rng, PhysParams(rng.uniform(0.2, 3.0))) for _ in range(1000)]
    differ = Counter()
    slanted = 0
    for x in family:
        scalar, array = rectilinear_family(*x), rectilinear_family(*map(np.atleast_1d, x))
        for f in dataclasses.fields(scalar):
            differ[f"rectilinear_family.{f.name}"] += _differs(getattr(scalar, f.name),
                                                               getattr(array, f.name))
    for sp in pairs:
        g, speed = sp.params.g, sp.front.speed
        hs = (sp.plus.h, sp.minus.h)
        tq = trace_quantities(sp)
        tq_array = side_traces(_one_element(sp.plus), _one_element(sp.minus), sp.front)
        for name, s_value, a_value in zip(
                ("satisfied", "cg_plus", "cg_minus"), lax_kernel(tq, *hs, g, speed),
                lax_kernel(tq_array, *map(np.atleast_1d, hs), g, speed)):
            differ[f"lax_kernel.{name}"] += _differs(s_value, a_value)
        differ["residual_scale"] += _differs(residual_scale(tq, g), residual_scale(tq_array, g))
        for bn, h in ((tq.bn_plus, sp.plus.h), (tq.bn_minus, sp.minus.h)):
            args = (bn, h, g, tq.norm_sq)
            array_args = list(map(np.atleast_1d, args))
            differ["fast_speed"] += _differs(fast_speed(*args), fast_speed(*array_args))
            # and into preallocated buffers, as the simulator evaluates it
            differ["fast_speed.out"] += _differs(
                fast_speed(*args), fast_speed(*array_args, out=np.empty(1), gh=np.empty(1)))
            slanted += tq.norm_sq != 1.0
    assert not +differ, dict(differ)
    assert slanted > 0


def test_rectilinear_lax_iff_compressive(rng):
    p = PhysParams(1.0)
    for ratio in np.concatenate([rng.uniform(0.1, 0.95, 40), rng.uniform(1.05, 10.0, 40)]):
        shock = rectilinear_shock(rng.uniform(0.2, 3.0), ratio, rng.uniform(0.05, 2.0),
                                  rng.uniform(-1.5, 1.5), p)
        assert lax_verdict(shock.side_pair()).satisfied == (ratio > 1.0)


def test_linearized_exact_rational_values():
    p = PhysParams(1.0)
    setup = linearized_setup(rectilinear_shock(1.0, 2.0, 0.5, 0.0, p), p)
    assert abs(setup.froude - 1 / math.sqrt(2)) < 1e-14
    assert abs(setup.m1 - 0.5 / math.sqrt(2)) < 1e-14
    assert abs(setup.m_star - math.sqrt(1.125)) < 1e-14
    assert abs(setup.beta - math.sqrt(0.625)) < 1e-14
    assert setup.ratio == 2.0
    assert abs(setup.d0 - 1.625) < 1e-14
    assert setup.ell0 == 0.0
    assert abs(setup.a0 - (-1.25)) < 1e-14


def test_linearized_coefficients_second_route(rng):
    """Recompute the boundary coefficients from raw shock constants
    instead of the scaled numbers; both routes must agree."""
    p = PhysParams(g=1.6)
    for _ in range(100):
        shock = rectilinear_shock(rng.uniform(0.2, 3.0), rng.uniform(1.05, 8.0),
                                  rng.uniform(0.05, 2.0), rng.uniform(-1.5, 1.5), p)
        setup = linearized_setup(shock, p)
        c2 = p.g * shock.h_plus
        beta_sq = (c2 + shock.b1_plus**2 - shock.v1_plus**2) / c2
        d0 = (c2 + shock.b1_plus**2 + shock.v1_plus**2) / (2 * shock.v1_plus**2)
        a0 = -beta_sq * (shock.h_plus / shock.h_minus) * c2 / (2 * shock.v1_plus**2)
        assert abs(setup.beta**2 - beta_sq) < 1e-12
        assert abs(setup.d0 - d0) < 1e-12
        assert abs(setup.a0 - a0) < 1e-12
        assert abs(setup.beta**2 + setup.froude**2 - setup.m_star**2) < 1e-15


def test_linearized_weak_field_limit():
    p = PhysParams(1.0)
    setup = linearized_setup(rectilinear_shock(1.0, 2.0, 1e-8, 0.0, p), p)
    assert setup.m1 < 1e-7
    assert abs(setup.m_star - 1.0) < 1e-14
    assert 0 < setup.froude < 1.0


def test_linearized_rejects_expansion():
    p = PhysParams(1.0)
    with pytest.raises(LaxViolation):
        linearized_setup(rectilinear_shock(1.0, 0.5, 0.5, 0.0, p), p)


@pytest.mark.parametrize("h_minus, ratio, b1_plus, b2, name", [
    (1.0, 1e300, 0.5, 0.0, "a0"),        # a0 = -beta^2 R / (2 M^2) overflows
    (1e10, 1e300, 0.5, 0.0, "h_plus"),   # h+ = R h- overflows
    (1.0, 2.0, 1e200, 0.0, "v1_minus"),  # B1+^2 overflows
    (1.0, 2.0, 0.5, math.nan, "b2"),
])
def test_non_finite_shock_values_raise(h_minus, ratio, b1_plus, b2, name):
    p = PhysParams(1.0)
    with pytest.raises(InvalidParameter, match=name):
        linearized_setup(rectilinear_shock(h_minus, ratio, b1_plus, b2, p), p)
