"""Rankine-Hugoniot residuals and classification of two-sided states.

For a front x1 = phi(t, x2) with normal N = (1, -d2 phi), each side
carries the mass transfer flux m = h (v_N - dt phi) and the normal
magnetic flux b = h B_N.  A piecewise-smooth weak solution must satisfy

    [m] = 0,  [b] = 0,  [h] (m^2 - b^2 - (g/2)|N|^2 <h> h+ h-) = 0,
    m [v_tau] = b [B_tau],  m [B_tau] = b [v_tau],

with [x] = x(plus) - x(minus) and <h> = h+ + h-.  A zero residual is
then branched into shock ([h] != 0, m != 0, m^2 != b^2), current-vortex
sheet (m = b = 0), Alfven discontinuity (m = +-b != 0), or continuous
flow; everything else is inadmissible.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import FrontGeometry, PhysParams, State, where
from .errors import AmbiguousClassification

DEFAULT_TOL = 1e-9


@dataclass(frozen=True)
class SidePair:
    """Two states separated by a front, plus the gravity parameter."""

    plus: State
    minus: State
    front: FrontGeometry
    params: PhysParams


class GridSide(NamedTuple):
    """An unvalidated ``State`` over a grid; ``v`` and ``B`` stack their components on axis 0."""

    h: np.ndarray
    v: np.ndarray
    B: np.ndarray


@dataclass(frozen=True)
class TraceQuantities:
    """Per-side normal/tangential decompositions at the front.

    v_N = v1 - v2 s and v_tau = v1 s + v2 for slope s; the pair
    (v_N, v_tau) reconstructs v exactly through
    v1 = (v_N + s v_tau)/|N|^2, v2 = (v_tau - s v_N)/|N|^2.
    """

    m_plus: float
    m_minus: float
    b_plus: float
    b_minus: float
    vn_plus: float
    vn_minus: float
    vtau_plus: float
    vtau_minus: float
    bn_plus: float
    bn_minus: float
    btau_plus: float
    btau_minus: float
    h_mean: float
    norm_sq: float


@dataclass(frozen=True)
class RHResidual:
    """Five-component jump-condition residual and its comparison scale.

    Entries 2..4 evaluate m and b on the minus side; once entries 0 and
    1 (the [m] and [b] jumps) vanish the choice of side is immaterial.
    """

    r: np.ndarray
    scale: float

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.r)))


class DiscontinuityType(enum.Enum):
    SHOCK = "shock"
    CURRENT_VORTEX_SHEET = "current-vortex-sheet"
    ALFVEN = "alfven-discontinuity"
    CONTINUOUS = "continuous"
    INADMISSIBLE = "inadmissible"


@dataclass(frozen=True)
class DiscontinuityKind:
    """Classification verdict: a tag plus optional reason/note."""

    kind: DiscontinuityType
    reason: str | None = None
    note: str | None = None

    def __str__(self) -> str:
        s = self.kind.value
        if self.reason:
            s += f" ({self.reason})"
        return s


def normal_tangential(vec, slope: float):
    """Components of a 2-vector along N = (1, -s) and tau = (s, 1); arrays for stacked arrays."""
    vn, vtau = vec[0] - vec[1] * slope, vec[0] * slope + vec[1]
    return (vn, vtau) if np.ndim(vn) else (float(vn), float(vtau))


def trace_quantities(sp: SidePair) -> TraceQuantities:
    """Mass/magnetic fluxes and decompositions on both sides of the front."""
    return side_traces(sp.plus, sp.minus, sp.front)


def side_traces(plus, minus, front: FrontGeometry) -> TraceQuantities:
    """``trace_quantities`` of two ``State``s, or of two ``GridSide``s as arrays."""
    s = front.slope
    vn_p, vtau_p = normal_tangential(plus.v, s)
    vn_m, vtau_m = normal_tangential(minus.v, s)
    bn_p, btau_p = normal_tangential(plus.B, s)
    bn_m, btau_m = normal_tangential(minus.B, s)
    return TraceQuantities(
        m_plus=plus.h * (vn_p - front.speed),
        m_minus=minus.h * (vn_m - front.speed),
        b_plus=plus.h * bn_p,
        b_minus=minus.h * bn_m,
        vn_plus=vn_p,
        vn_minus=vn_m,
        vtau_plus=vtau_p,
        vtau_minus=vtau_m,
        bn_plus=bn_p,
        bn_minus=bn_m,
        btau_plus=btau_p,
        btau_minus=btau_m,
        h_mean=plus.h + minus.h,
        norm_sq=front.norm_sq,
    )


def residual_scale(tq: TraceQuantities, g: float) -> float:
    """Magnitude used for relative zero tests: max(1, |m+|, |b+|, g <h>^2).

    Scalars or arrays; like ``max()``, keeps the earlier value on a tie or a NaN.
    """
    scale = 1.0
    for value in (abs(tq.m_plus), abs(tq.b_plus), g * (tq.h_mean * tq.h_mean)):
        scale = where(value > scale, value, scale)
    return scale


def _residual_rows(tq: TraceQuantities, h_plus, h_minus, g) -> np.ndarray:
    """The five jump-condition residuals, stacked on axis 0."""
    hj = h_plus - h_minus
    m, b = tq.m_minus, tq.b_minus
    dvt = tq.vtau_plus - tq.vtau_minus
    dbt = tq.btau_plus - tq.btau_minus
    return np.array([
        tq.m_plus - tq.m_minus,
        tq.b_plus - tq.b_minus,
        hj * (m * m - b * b - 0.5 * g * tq.norm_sq * tq.h_mean * h_plus * h_minus),
        m * dvt - b * dbt,
        m * dbt - b * dvt,
    ])


def rh_residual(sp: SidePair) -> RHResidual:
    """Residual vector of the five jump conditions; zero iff they hold."""
    tq = trace_quantities(sp)
    g = sp.params.g
    return RHResidual(r=_residual_rows(tq, sp.plus.h, sp.minus.h, g), scale=residual_scale(tq, g))


# ``classify``'s outcome per ``kind_code``: one per test, in test order, then
# the shock.  A string is the message of an AmbiguousClassification.
_OUTCOMES = (
    DiscontinuityKind(DiscontinuityType.INADMISSIBLE),
    DiscontinuityKind(DiscontinuityType.CONTINUOUS),
    DiscontinuityKind(DiscontinuityType.CURRENT_VORTEX_SHEET),
    "m = b = 0 within tolerance but [h] != 0: residual band too loose",
    DiscontinuityKind(DiscontinuityType.CONTINUOUS,
                      note="m = 0 with b != 0 admits no discontinuity; residual-consistent "
                           "data are continuous up to tolerance"),
    DiscontinuityKind(DiscontinuityType.ALFVEN),
    "m^2 = b^2 within tolerance but [h] != 0",
    DiscontinuityKind(DiscontinuityType.CONTINUOUS,
                      note="[h] = 0 with m^2 != b^2 forces [v] = [B] = 0"),
    DiscontinuityKind(DiscontinuityType.SHOCK),
)
KIND_INADMISSIBLE, KIND_SHOCK = 0, len(_OUTCOMES) - 1


def kind_code(plus, minus, front: FrontGeometry, g, tol: float = DEFAULT_TOL):
    """Outcome index of ``classify`` for ``State``s or ``GridSide``s: the first test that holds."""
    tq = side_traces(plus, minus, front)
    band = tol * residual_scale(tq, g)
    m, b = tq.m_minus, tq.b_minus
    h_jump = plus.h - minus.h
    h_zero = abs(h_jump) <= band
    m_zero = abs(m) <= band
    sheet = m_zero & (abs(b) <= band)
    alfven = abs(abs(m) - abs(b)) <= band
    state_jump = np.concatenate(([h_jump], plus.v - minus.v, plus.B - minus.B))
    tests = (np.max(np.abs(_residual_rows(tq, plus.h, minus.h, g)), axis=0) > band,
             np.max(np.abs(state_jump), axis=0) <= band,
             sheet & h_zero, sheet, m_zero, alfven & h_zero, alfven, h_zero)
    code = KIND_SHOCK
    for k in reversed(range(KIND_SHOCK)):
        code = where(tests[k], k, code)
    return code


def classify(sp: SidePair, tol: float = DEFAULT_TOL) -> DiscontinuityKind:
    """Classify a two-sided state at the declared relative tolerance.

    A quantity x counts as zero when |x| <= tol * scale.  Branch order
    is most-degenerate-first: inadmissible, continuous ([U] = 0),
    current-vortex sheet, Alfven, shock.  The residually-consistent but
    contradictory corner m = 0, b != 0 returns continuous with a
    diagnostic note; corners whose zero flags disagree with the implied
    algebra raise AmbiguousClassification rather than guessing.
    """
    code = kind_code(sp.plus, sp.minus, sp.front, sp.params.g, tol)
    if code == KIND_INADMISSIBLE:
        res = rh_residual(sp)
        band = tol * res.scale
        worst = int(np.argmax(np.abs(res.r)))
        return DiscontinuityKind(
            DiscontinuityType.INADMISSIBLE,
            reason=f"jump-condition residual {res.max_abs:.3e} exceeds {band:.3e} (entry {worst})",
        )
    if isinstance(_OUTCOMES[code], str):
        raise AmbiguousClassification(_OUTCOMES[code])
    return _OUTCOMES[code]
