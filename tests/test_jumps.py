import re

import numpy as np
import pytest

from smhd.core import FrontGeometry, PhysParams, State
from smhd.errors import AmbiguousClassification
from smhd.jumps import (
    DiscontinuityType,
    SidePair,
    classify,
    normal_tangential,
    rh_residual,
    trace_quantities,
)
from smhd.shock import hugoniot_downstream

from conftest import random_state


def _pair(plus, minus, slope=0.0, speed=0.0, g=1.0):
    return SidePair(plus=plus, minus=minus, front=FrontGeometry(slope, speed),
                    params=PhysParams(g))


def test_flat_front_decomposition():
    u = State(h=1.0, v=[0.7, -0.3], B=[0.2, 0.9])
    tq = trace_quantities(_pair(u, u))
    assert tq.vn_plus == 0.7
    assert tq.vtau_plus == -0.3
    assert tq.bn_plus == 0.2
    assert tq.btau_plus == 0.9


def test_45_degree_front():
    u = State(h=1.0, v=[1.0, 1.0], B=[0, 0])
    tq = trace_quantities(_pair(u, u, slope=1.0))
    assert tq.vn_plus == 0.0
    assert tq.vtau_plus == 2.0


def test_mass_flux_substitution():
    u = State(h=2.0, v=[1.0, 0.0], B=[0, 0])
    tq = trace_quantities(_pair(u, u))
    assert tq.m_plus == 2.0


def test_decomposition_reconstructs_vectors(rng):
    for _ in range(200):
        u = random_state(rng)
        s = rng.uniform(-2, 2)
        nsq = 1 + s * s
        vn, vt = normal_tangential(u.v, s)
        assert abs((vn + s * vt) / nsq - u.v[0]) < 1e-14 * max(1, abs(u.v[0]))
        assert abs((vt - s * vn) / nsq - u.v[1]) < 1e-14 * max(1, abs(u.v[1]))


def test_residual_zero_for_continuous_flow():
    u = State(h=1.5, v=[0.4, -1.1], B=[0.3, 0.8])
    sp = _pair(u, u, slope=0.5, speed=u.v[0] - u.v[1] * 0.5)
    assert rh_residual(sp).max_abs == 0.0
    assert classify(sp).kind is DiscontinuityType.CONTINUOUS


def test_residual_zero_on_hugoniot_pair():
    minus = State(h=1.0, v=[2, 0], B=[1, 0])
    plus, speed = hugoniot_downstream(minus, 0.0, 2.0, PhysParams(1.0))
    sp = _pair(plus, minus, speed=speed)
    assert rh_residual(sp).max_abs < 1e-12


def test_residual_localizes_magnetic_flux_violation():
    minus = State(h=1.0, v=[2, 0], B=[1, 0])
    plus, speed = hugoniot_downstream(minus, 0.0, 2.0, PhysParams(1.0))
    broken = State(h=plus.h, v=plus.v, B=[plus.B[0] + 0.1, plus.B[1]])
    r = rh_residual(_pair(broken, minus, speed=speed)).r
    assert abs(r[1]) > 0.1  # [b] violated
    assert abs(r[0]) < 1e-12  # mass flux untouched
    assert abs(r[2]) < 1e-12  # height relation evaluated on the intact side
    assert abs(r[3]) < 1e-12 and abs(r[4]) < 1e-12  # flat front: tangential B unchanged


def test_classify_current_vortex_sheet():
    plus = State(h=1.0, v=[0.0, 1.0], B=[0.0, 0.7])
    minus = State(h=1.0, v=[0.0, -0.5], B=[0.0, -0.2])
    sp = _pair(plus, minus, speed=0.0)
    assert classify(sp).kind is DiscontinuityType.CURRENT_VORTEX_SHEET


def test_classify_alfven():
    plus = State(h=1.0, v=[0.5, 1.0], B=[0.5, 1.0])
    minus = State(h=1.0, v=[0.5, 0.0], B=[0.5, 0.0])
    sp = _pair(plus, minus, speed=0.0)
    tq = trace_quantities(sp)
    assert tq.m_minus == 0.5 and tq.b_minus == 0.5
    assert rh_residual(sp).max_abs < 1e-14
    assert classify(sp).kind is DiscontinuityType.ALFVEN


def test_classify_shock():
    minus = State(h=1.0, v=[2, 0], B=[1, 0])
    plus, speed = hugoniot_downstream(minus, 0.0, 2.0, PhysParams(1.0))
    assert classify(_pair(plus, minus, speed=speed)).kind is DiscontinuityType.SHOCK


def test_classify_inadmissible():
    plus = State(h=2.0, v=[1, 1], B=[0.3, 0])
    minus = State(h=1.0, v=[2, 0], B=[1, 0])
    verdict = classify(_pair(plus, minus))
    assert verdict.kind is DiscontinuityType.INADMISSIBLE
    assert verdict.reason


def test_galilean_boost_invariance(rng):
    p = PhysParams(1.0)
    for _ in range(100):
        minus = random_state(rng, h_range=(0.2, 5.0))
        h_plus = minus.h * rng.uniform(1.1, 4.0)
        plus, speed = hugoniot_downstream(minus, 0.0, h_plus, p)
        base = classify(_pair(plus, minus, speed=speed)).kind
        c = rng.uniform(-5, 5)
        boosted = classify(_pair(
            State(plus.h, plus.v + [0, c], plus.B),
            State(minus.h, minus.v + [0, c], minus.B),
            speed=speed)).kind
        assert boosted is base


def test_reflection_invariance(rng):
    p = PhysParams(1.0)
    for _ in range(100):
        minus = random_state(rng, h_range=(0.2, 5.0))
        slope = rng.uniform(-2, 2)
        h_plus = minus.h * rng.uniform(1.1, 4.0)
        plus, speed = hugoniot_downstream(minus, slope, h_plus, p)
        base = classify(SidePair(plus, minus, FrontGeometry(slope, speed), p)).kind

        def reflect(u):
            return State(u.h, [-u.v[0], u.v[1]], [-u.B[0], u.B[1]])

        mirrored = classify(SidePair(reflect(minus), reflect(plus),
                                     FrontGeometry(-slope, -speed), p)).kind
        assert mirrored is base


def test_tangential_jumps_forced_to_zero_when_noncharacteristic(rng):
    # m x = b y, m y = b x with m^2 != b^2 has only the trivial solution
    for _ in range(200):
        m = rng.uniform(-3, 3)
        b = rng.uniform(-3, 3)
        if abs(m * m - b * b) < 1e-3:
            continue
        sol = np.linalg.solve(np.array([[m, -b], [-b, m]]), np.zeros(2))
        assert np.array_equal(sol, [0.0, 0.0])


@pytest.mark.parametrize("plus, minus, message", [
    (State(h=2.0, v=[0.0, 0.0], B=[0.0, 0.0]), State(h=1.0, v=[0.0, 0.0], B=[0.0, 0.0]),
     "m = b = 0 within tolerance but [h] != 0"),
    (State(h=2.0, v=[0.5, 0.0], B=[0.5, 0.0]), State(h=1.0, v=[1.0, 0.0], B=[1.0, 0.0]),
     "m^2 = b^2 within tolerance but [h] != 0"),
], ids=["sheet", "alfven"])
def test_marginal_data_raise_ambiguous(plus, minus, message):
    # with g = 1e-300 the height term of the residual drops below the band while
    # [h] stays clearly nonzero: contradictory zero flags must not be silently resolved
    sp = _pair(plus, minus, speed=0.0, g=1e-300)
    with pytest.raises(AmbiguousClassification, match=re.escape(message)):
        classify(sp)
