"""Shock construction, characteristic speeds, and admissibility.

Given an upstream state, a front slope, and a downstream height, the
jump conditions have a closed-form solution (the downstream state and
the front speed).  Admissibility of the resulting shock reduces to the
extreme 1-shock inequalities

    v_N(-) - dt phi > c_gN(-),   c_aN(+) < v_N(+) - dt phi < c_gN(+),

with c_gN = sqrt(B_N^2 + g h |N|^2) and c_aN = B_N, evaluated in the
orientation m > 0, B_N >= 0; over the one-parameter downstream-height
family these inequalities hold exactly when the height increases across
the front.  The module also provides the rectilinear reference shock
and the dimensionless coefficients of its linearized boundary
conditions.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import FrontGeometry, PhysParams, State, fast_speed, normal_speeds, sqrt
from .errors import DegenerateHeight, InvalidParameter, InvalidRatio, LaxViolation, NotAShock
from .jumps import (
    DiscontinuityType,
    GridSide,
    SidePair,
    TraceQuantities,
    classify,
    normal_tangential,
    trace_quantities,
)


def hugoniot_downstream(
    minus: State,
    slope: float,
    h_plus: float,
    params: PhysParams,
    mass_flux_sign: int = 1,
) -> tuple[State, float]:
    """Solve the jump conditions for the downstream state and front speed.

    Closed form: b = h- B_N-, m = sign * sqrt(b^2 + (g/2)|N|^2 <h> h+ h-),
    dt phi = v_N- - m/h-, v_N+ = dt phi + m/h+, B_N+ = b/h+, and the
    tangential components carry over unchanged.  The result has a zero
    jump-condition residual to round-off, and m != 0, m^2 != b^2 hold by
    construction.

    Raises DegenerateHeight when h_plus equals the upstream height.
    """
    if not h_plus > 0.0:
        raise DegenerateHeight(f"downstream height must be positive, got {h_plus}")
    if h_plus == minus.h:
        raise DegenerateHeight("equal heights admit no shock")
    if mass_flux_sign not in (1, -1):
        raise ValueError("mass_flux_sign must be +1 or -1")

    s = float(slope)
    norm_sq = 1.0 + s * s
    vn_m, vtau = normal_tangential(minus.v, s)
    bn_m, btau = normal_tangential(minus.B, s)
    b = minus.h * bn_m
    m = mass_flux_sign * math.sqrt(
        b * b + 0.5 * params.g * norm_sq * (h_plus + minus.h) * h_plus * minus.h
    )
    front_speed = vn_m - m / minus.h
    vn_p = front_speed + m / h_plus
    bn_p = b / h_plus
    v_plus = np.array([(vn_p + s * vtau) / norm_sq, (vtau - s * vn_p) / norm_sq])
    b_plus = np.array([(bn_p + s * btau) / norm_sq, (btau - s * bn_p) / norm_sq])
    return State(h=h_plus, v=v_plus, B=b_plus), front_speed


def characteristic_speeds(u: State, front: FrontGeometry, params: PhysParams) -> np.ndarray:
    """Eigenvalues of A0^-1 (A1 - d2(phi) A2), ascending.

    Closed form: v_N -+ c_gN, v_N -+ |B_N|, v_N, already sorted since
    c_gN >= |B_N|; ties from coincident speeds keep this label order.
    """
    return normal_speeds(u, params, front.normal)


def det_boundary_matrix_closed_form(u: State, front: FrontGeometry, params: PhysParams) -> float:
    """Closed-form determinant of the boundary matrix for one side:

        det = (g / h^6) m (m^2 - b^2) (m^2 - b^2 - g |N|^2 h^3),

    vanishing exactly on characteristic fronts (m = 0, Alfven m^2 = b^2,
    or the gravity-wave factor).  Raises InvalidParameter when h^6
    overflows.
    """
    s = front.slope
    vn, _ = normal_tangential(u.v, s)
    bn, _ = normal_tangential(u.B, s)
    m = u.h * (vn - front.speed)
    b = u.h * bn
    g = params.g
    d = m * m - b * b
    try:
        h6 = u.h**6
    except OverflowError:
        raise InvalidParameter(f"h^6 overflows in the boundary determinant, h = {u.h}") from None
    return (g / h6) * m * d * (d - g * front.norm_sq * u.h**3)


def _reflect_state(u: State) -> State:
    return State(h=u.h, v=np.array([-u.v[0], u.v[1]]), B=np.array([-u.B[0], u.B[1]]))


def _flip_field(u: State) -> State:
    return State(h=u.h, v=u.v.copy(), B=-u.B)


def canonical_orientation(sp: SidePair) -> SidePair:
    """Relabel/reflect a shock pair so that m > 0 and B_N >= 0.

    If m < 0, apply the x1 reflection (sides swap, normal components of
    v and B flip, front slope and speed flip).  If the shared magnetic
    flux is then negative, flip the sign of B on both sides; both maps
    preserve the jump conditions.
    """
    tq = trace_quantities(sp)
    if tq.m_minus < 0.0:
        front = FrontGeometry(slope=-sp.front.slope, speed=-sp.front.speed)
        sp = SidePair(plus=_reflect_state(sp.minus), minus=_reflect_state(sp.plus),
                      front=front, params=sp.params)
        tq = trace_quantities(sp)
    if tq.b_minus < 0.0:
        sp = SidePair(plus=_flip_field(sp.plus), minus=_flip_field(sp.minus),
                      front=sp.front, params=sp.params)
    return sp


@dataclass(frozen=True)
class ShockDiagnostics:
    """Eigenvalues, boundary determinants, and the Lax verdict of a shock.

    All quantities refer to the canonical orientation (m > 0, B_N >= 0);
    ``height_jump`` is [h] = h+ - h- after canonicalization, so the
    equivalence ``satisfied == (height_jump > 0)`` is orientation-free.
    """

    eigenvalues_plus: np.ndarray
    eigenvalues_minus: np.ndarray
    cg_plus: float
    cg_minus: float
    ca_plus: float
    ca_minus: float
    det_boundary_plus: float
    det_boundary_minus: float
    satisfied: bool
    k: int | None
    height_jump: float
    front_speed: float


def lax_kernel(tq: TraceQuantities, h_plus, h_minus, g, speed):
    """The extreme 1-shock inequalities of the module docstring on canonically
    oriented trace quantities, scalars or arrays; returns (satisfied, cg_plus, cg_minus).
    """
    cg_plus = fast_speed(tq.bn_plus, h_plus, g, tq.norm_sq)
    cg_minus = fast_speed(tq.bn_minus, h_minus, g, tq.norm_sq)
    rel_plus = tq.vn_plus - speed
    satisfied = (tq.vn_minus - speed > cg_minus) & (tq.bn_plus < rel_plus) & (rel_plus < cg_plus)
    return satisfied, cg_plus, cg_minus


def lax_verdict(sp: SidePair) -> ShockDiagnostics:
    """Evaluate the extreme 1-shock inequalities for a classified shock.

    Raises NotAShock when the pair does not classify as a shock.
    """
    kind = classify(sp)
    if kind.kind is not DiscontinuityType.SHOCK:
        raise NotAShock(f"pair classifies as {kind}")

    csp = canonical_orientation(sp)
    tq = trace_quantities(csp)
    speed = csp.front.speed
    ok, cg_p, cg_m = lax_kernel(tq, csp.plus.h, csp.minus.h, csp.params.g, speed)

    return ShockDiagnostics(
        eigenvalues_plus=characteristic_speeds(csp.plus, csp.front, csp.params),
        eigenvalues_minus=characteristic_speeds(csp.minus, csp.front, csp.params),
        cg_plus=cg_p,
        cg_minus=cg_m,
        ca_plus=tq.bn_plus,
        ca_minus=tq.bn_minus,
        det_boundary_plus=det_boundary_matrix_closed_form(csp.plus, csp.front, csp.params),
        det_boundary_minus=det_boundary_matrix_closed_form(csp.minus, csp.front, csp.params),
        satisfied=ok,
        k=1 if ok else None,
        height_jump=csp.plus.h - csp.minus.h,
        front_speed=speed,
    )


def k2_shock_possible(sp: SidePair) -> bool:
    """Whether the 2-shock inequality window is non-empty for the pair.

    In the canonical orientation the window requires both m > b (from
    the upstream side) and m < b (downstream), which contradict each
    other, so this returns False for every consistent pair; it exists to
    make that contradiction checkable.
    """
    csp = canonical_orientation(sp)
    tq = trace_quantities(csp)
    speed = csp.front.speed
    lower_ok = (tq.vn_minus - tq.bn_minus) > speed  # lambda2(-) > front speed
    upper_ok = (tq.vn_plus - tq.bn_plus) < speed    # lambda2(+) < front speed
    return lower_ok and upper_ok


@dataclass(frozen=True)
class RectilinearShock:
    """Constants of a stationary rectilinear shock at x1 = 0.

    Frame choice: zero tangential velocity on both sides and equal
    tangential field b2.  The constants satisfy

        h+/h- = v1-/v1+ = B1-/B1+,
        (v1+)^2 - (B1+)^2 = (g h-/2) (1 + h-/h+),

    with v1 > 0 and B1 > 0 on both sides.
    """

    h_minus: float
    h_plus: float
    v1_minus: float
    v1_plus: float
    b1_minus: float
    b1_plus: float
    b2: float
    g: float

    @property
    def ratio(self) -> float:
        return self.h_plus / self.h_minus

    def plus_state(self) -> State:
        return State(h=self.h_plus, v=[self.v1_plus, 0.0], B=[self.b1_plus, self.b2])

    def minus_state(self) -> State:
        return State(h=self.h_minus, v=[self.v1_minus, 0.0], B=[self.b1_minus, self.b2])

    def side_pair(self) -> SidePair:
        """The shock as a flat, static two-sided state."""
        return SidePair(plus=self.plus_state(), minus=self.minus_state(),
                        front=FrontGeometry(0.0, 0.0), params=PhysParams(g=self.g))

    def grid_sides(self) -> tuple[GridSide, GridSide]:
        """(plus, minus) sides of a family whose constants are equal-shape arrays."""
        zero = np.zeros_like(self.h_plus)
        return (GridSide(self.h_plus, np.array([self.v1_plus, zero]),
                         np.array([self.b1_plus, self.b2])),
                GridSide(self.h_minus, np.array([self.v1_minus, zero]),
                         np.array([self.b1_minus, self.b2])))


def rectilinear_shock(
    h_minus: float,
    ratio: float,
    b1_plus: float,
    b2: float,
    params: PhysParams,
) -> RectilinearShock:
    """Construct the stationary rectilinear shock from (h-, h+/h-, B1+, B2);
    a derived value that is not finite is an InvalidParameter."""
    if ratio == 1.0:
        raise InvalidRatio("height ratio 1 admits no shock")
    if not (ratio > 0.0 and h_minus > 0.0):
        raise InvalidRatio(f"need positive heights, got h_minus={h_minus}, ratio={ratio}")
    if not b1_plus > 0.0:
        raise InvalidParameter("normalization requires B1+ > 0")
    return _finite(rectilinear_family(h_minus, ratio, b1_plus, b2, params.g))


def _finite(values):
    """The dataclass ``values`` if each of its fields is finite, else InvalidParameter."""
    for name, x in dataclasses.asdict(values).items():
        if not math.isfinite(x):
            raise InvalidParameter(f"the shock's {name} = {x} is not finite")
    return values


def rectilinear_family(h_minus, ratio, b1_plus, b2, g) -> RectilinearShock:
    """``rectilinear_shock`` without its checks, on scalars or equal-shape arrays."""
    v1_plus = sqrt(b1_plus * b1_plus + 0.5 * g * h_minus * (1.0 + 1.0 / ratio))
    return RectilinearShock(h_minus, ratio * h_minus, ratio * v1_plus, v1_plus,
                            ratio * b1_plus, b1_plus, b2, g)


@dataclass(frozen=True)
class LinearizedShockSetup:
    """Dimensionless coefficients of the linearized downstream problem.

    froude is the downstream Froude number M = v1+/c+ with c+ = sqrt(g h+);
    m1 and m2 scale the downstream field by c+; m_star = sqrt(1 + m1^2).
    The admissible window is m1 < M < m_star.  Boundary coefficients:

        d0 = (m_star^2 + M^2) / (2 M^2),   ell0 = m1 m2,
        a0 = -beta^2 R / (2 M^2),          beta = sqrt(m_star^2 - M^2),

    with R = h+/h- > 1 for admissible shocks.
    """

    froude: float
    m1: float
    m2: float
    m_star: float
    ratio: float
    beta: float
    d0: float
    ell0: float
    a0: float


def linearized_setup(shock: RectilinearShock, params: PhysParams) -> LinearizedShockSetup:
    """Dimensionless linearization coefficients of an admissible shock.

    Raises LaxViolation unless m1 < M < m_star, which for this family is
    equivalent to a height ratio above one, and InvalidParameter when a
    coefficient is not finite (a0 overflows for a ratio of 1e300).
    """
    g = params.g
    c_plus = math.sqrt(g * shock.h_plus)
    froude = shock.v1_plus / c_plus
    m1 = shock.b1_plus / c_plus
    m2 = shock.b2 / c_plus
    m_star = math.sqrt(1.0 + m1 * m1)
    if not (m1 < froude < m_star):
        raise LaxViolation(
            f"Froude window violated: m1={m1:.6g}, M={froude:.6g}, m*={m_star:.6g}"
        )
    beta = math.sqrt(m_star**2 - froude**2)
    ratio = shock.ratio
    return _finite(LinearizedShockSetup(
        froude=froude,
        m1=m1,
        m2=m2,
        m_star=m_star,
        ratio=ratio,
        beta=beta,
        d0=(m_star**2 + froude**2) / (2.0 * froude**2),
        ell0=m1 * m2,
        a0=-(beta**2) * ratio / (2.0 * froude**2),
    ))
