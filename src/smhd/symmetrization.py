"""Secondary symmetrization and current-vortex-sheet stability verdicts.

The system admits a one-parameter family of alternative symmetric forms
B0 dt U + B1 d1 U + B2 d2 U = 0 built from linear combinations of the
equations and the divergence constraint:

    eq1' = (g/h) eq1 - (g lam / h) ((B . grad) h + h div B),
    eq2' = eq2 - lam eq3,
    eq3' = eq3 - lam eq2.

Its matrices are the primitive-height member of the one family of
symmetric forms, ``core.symmetric_matrices``.  B0 is positive definite
exactly when h > 0 and |lam| < 1.  For a rectilinear current-vortex
sheet, picking per-side values lam+/- that cancel the tangential jump
[v2 - lam B2] kills the boundary term of the energy identity; the
requirement |lam| < 1 then yields the sufficient stability condition
|[v2]| < |B2+| + |B2-|.  For the symmetric configuration B2+ = -B2- a
necessary-and-sufficient condition and its exceptional points are
available in closed form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .core import PhysParams, State, symmetric_matrices, where
from .errors import (
    ConstraintViolation,
    HeightMismatch,
    InvalidParameter,
    NotSymmetricCase,
    ZeroTangentialField,
)
from .jumps import DEFAULT_TOL

# Default margin epsilon of the sufficient condition (CLI and sweeps).
DEFAULT_EPSILON = 1e-6

# Relative tolerance of the constraint checks in boundary_energy_term.
BOUNDARY_TOL = 1e-8


@dataclass(frozen=True)
class SecondaryMatrices:
    """Symmetric matrices (B0, B1, B2) of the lam-parameterized form."""

    B0: np.ndarray
    B1: np.ndarray
    B2: np.ndarray


def secondary_matrices(u: State, lam: float, params: PhysParams) -> SecondaryMatrices:
    """Matrices of the secondary symmetrization at state u: the member lam of
    ``core.symmetric_matrices`` with the primitive-height weights, so at
    lam = 0 they are the primitive-height matrices."""
    return SecondaryMatrices(*symmetric_matrices(u, params.g / u.h, 1.0, params.g, float(lam)))


def secondary_hyperbolic(h: float, lam: float) -> bool:
    """Hyperbolicity flag of the secondary form: h > 0 and |lam| < 1.

    Equivalent to positive definiteness of B0, whose eigenvalues are
    g/h and 1 +- lam (each twice).
    """
    return h > 0.0 and abs(lam) < 1.0


@dataclass(frozen=True)
class ResidualDecomposition:
    """Pointwise decomposition of the secondary form against the primary one.

    ``primary_residual`` evaluates the raw equations for (h, v, B),
    ``divergence_term`` is (B . grad) h + h div B, and
    ``reconstruction_error`` is the defect of rebuilding the secondary
    residual from those two pieces; it vanishes identically in exact
    arithmetic.
    """

    primary_residual: np.ndarray
    divergence_term: float
    secondary_residual: np.ndarray
    reconstruction_error: float


def secondary_residual_decomposition(
    u: State,
    dt: np.ndarray,
    dx1: np.ndarray,
    dx2: np.ndarray,
    lam: float,
    params: PhysParams,
) -> ResidualDecomposition:
    """Check the linear-combination identity on arbitrary derivative tuples.

    ``dt``, ``dx1``, ``dx2`` are candidate values of dU/dt, dU/dx1,
    dU/dx2 at the point; they need not solve anything.
    """
    dt = np.asarray(dt, dtype=float).reshape(5)
    dx1 = np.asarray(dx1, dtype=float).reshape(5)
    dx2 = np.asarray(dx2, dtype=float).reshape(5)
    g = params.g
    h = u.h
    v1, v2 = u.v
    b1, b2 = u.B

    div_v = dx1[1] + dx2[2]
    div_b = dx1[3] + dx2[4]

    def material(f_t: float, f_x: float, f_y: float) -> float:
        return f_t + v1 * f_x + v2 * f_y

    primary = np.array([
        material(dt[0], dx1[0], dx2[0]) + h * div_v,
        material(dt[1], dx1[1], dx2[1]) - (b1 * dx1[3] + b2 * dx2[3]) + g * dx1[0],
        material(dt[2], dx1[2], dx2[2]) - (b1 * dx1[4] + b2 * dx2[4]) + g * dx2[0],
        material(dt[3], dx1[3], dx2[3]) - (b1 * dx1[1] + b2 * dx2[1]),
        material(dt[4], dx1[4], dx2[4]) - (b1 * dx1[2] + b2 * dx2[2]),
    ])
    div_term = b1 * dx1[0] + b2 * dx2[0] + h * div_b

    sm = secondary_matrices(u, lam, params)
    secondary = sm.B0 @ dt + sm.B1 @ dx1 + sm.B2 @ dx2

    rebuilt = np.empty(5)
    rebuilt[0] = (g / h) * primary[0] - (g * lam / h) * div_term
    rebuilt[1:3] = primary[1:3] - lam * primary[3:5]
    rebuilt[3:5] = primary[3:5] - lam * primary[1:3]

    return ResidualDecomposition(
        primary_residual=primary,
        divergence_term=div_term,
        secondary_residual=secondary,
        reconstruction_error=float(np.max(np.abs(secondary - rebuilt))),
    )


@dataclass(frozen=True)
class SymmetrizerChoice:
    """Per-side symmetrizer parameters with hyperbolicity flags."""

    lambda_plus: float
    lambda_minus: float
    hyperbolic_plus: bool
    hyperbolic_minus: bool


def _sign(x: float) -> float:
    return 1.0 if x >= 0.0 else -1.0


def lambda_for_cvs(hat_plus: State, hat_minus: State) -> SymmetrizerChoice:
    """Equal-magnitude symmetrizer values cancelling the tangential jump.

    With k = |[v2]| / (|B2+| + |B2-|) and s = sign([v2]),

        lam+ = k s sign(B2+),    lam- = -k s sign(B2-),

    which satisfies lam+ B2+ - lam- B2- = [v2] for every sign pattern
    (sign(0) taken as +1).  Hyperbolicity on a side means h > 0 and
    |lam| < 1; both magnitudes equal k, so the flags coincide with the
    strict inequality |[v2]| < |B2+| + |B2-|.
    """
    b2p = float(hat_plus.B[1])
    b2m = float(hat_minus.B[1])
    denom = abs(b2p) + abs(b2m)
    if denom == 0.0:
        raise ZeroTangentialField("both tangential field components vanish")
    jump = float(hat_plus.v[1] - hat_minus.v[1])
    k = abs(jump) / denom
    s = _sign(jump)
    lam_p = k * s * _sign(b2p)
    lam_m = -k * s * _sign(b2m)
    return SymmetrizerChoice(
        lambda_plus=lam_p,
        lambda_minus=lam_m,
        hyperbolic_plus=secondary_hyperbolic(hat_plus.h, lam_p),
        hyperbolic_minus=secondary_hyperbolic(hat_minus.h, lam_m),
    )


class CvsStability(enum.Enum):
    SUFFICIENTLY_STABLE = "sufficiently-stable"
    NSC_STABLE = "nsc-stable"
    NSC_UNSTABLE = "nsc-unstable"
    EXCEPTIONAL_POINT = "exceptional-point"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class CvsVerdict:
    """Stability verdict with distance to the nearest condition boundary.

    For exceptional points ``index`` identifies the matched equality:
    1..4 are the closed-form exceptional curves (in their printed order:
    a = b, a = sqrt(b^2 + G) - b, a = sqrt(b^2 + G),
    a = b sqrt((b^2 + 2G)/(b^2 + G)) for a = |[v2]|, b = |B2+|,
    G = g h), while 5 and 6 are the non-strict stability boundaries
    a = 2 b and a = 2 sqrt(b^2 + 2G).
    """

    tag: CvsStability
    margin: float
    index: int | None = None
    note: str | None = None


# Verdict codes of the array kernels, shared with the sweep CSV.
CODE_UNSTABLE = 0
CODE_INCONCLUSIVE = 1
CODE_STABLE = 2
CODE_EXCEPTIONAL = 3


def cvs_sufficient_kernel(jump, b2_plus, b2_minus, epsilon):
    """Sufficient condition on broadcastable arrays; returns (code, margin).

    ``jump`` is |[v2]|.  The code is CODE_STABLE where
    |B2+| + |B2-| - |[v2]| >= epsilon and max(|B2+|, |B2-|) >= epsilon,
    else CODE_INCONCLUSIVE; the margin is | |B2+| + |B2-| - |[v2]| |.
    """
    abs_p = abs(b2_plus)
    abs_m = abs(b2_minus)
    slack = abs_p + abs_m - jump
    stable = (slack >= epsilon) & ((abs_p >= epsilon) | (abs_m >= epsilon))
    return where(stable, CODE_STABLE, CODE_INCONCLUSIVE), abs(slack)


def nsc_curves(b, big_g):
    """The six curves a(b) of ``CvsVerdict`` in index order, for G = g h.

    Four exceptional equalities, then the stability boundaries a = 2b
    and a = 2 sqrt(b^2 + 2G).  ``b`` and ``big_g`` broadcast.
    """
    bb = b * b
    outer_sq = bb + 2.0 * big_g
    inner = np.sqrt(bb + big_g)
    return (b, inner - b, inner, b * np.sqrt(outer_sq / (bb + big_g)), 2.0 * b,
            2.0 * np.sqrt(outer_sq))


def cvs_nsc_kernel(a, b, big_g):
    """Symmetric-sheet NSC on broadcastable arrays; returns (code, index, margin).

    ``a`` = |[v2]|, ``b`` = |B2+|, ``big_g`` = g h.  ``index`` is the
    first of the six curves of ``CvsVerdict`` (in index order) within
    DEFAULT_TOL * max(1, a, 2 sqrt(b^2 + 2G)) of a, or 0.  The code is
    CODE_EXCEPTIONAL there, else CODE_STABLE for a < 2b or
    a > 2 sqrt(b^2 + 2G), else CODE_UNSTABLE.  The margin is the
    distance to the matched curve, to the nearest of the six curves
    (stable), or to the nearer stability boundary (unstable).
    """
    curves = nsc_curves(b, big_g)
    outer = curves[5]
    scale = where(a > 1.0, a, 1.0)
    band = DEFAULT_TOL * where(outer > scale, outer, scale)
    index, matched, nearest = 0, 0.0, np.inf
    # From curve 6 down to 1, so the hit written last is the first in index order;
    # the running minima use a strict <, as min() does.
    for k in range(6, 0, -1):
        dist = abs(a - curves[k - 1])
        hit = dist <= band
        index = where(hit, k, index)
        matched = where(hit, dist, matched)
        nearest = where(dist < nearest, dist, nearest)
        if k == 5:
            boundary = nearest
    stable = (a > outer) | (a < 2.0 * b)
    code = where(index > 0, CODE_EXCEPTIONAL, where(stable, CODE_STABLE, CODE_UNSTABLE))
    return code, index, where(index > 0, matched, where(stable, nearest, boundary))


def _check_equal_heights(hat_plus: State, hat_minus: State) -> None:
    """HeightMismatch unless the sheet's heights agree to DEFAULT_TOL * max(1, h+, h-)."""
    if abs(hat_plus.h - hat_minus.h) > DEFAULT_TOL * max(1.0, hat_plus.h, hat_minus.h):
        raise HeightMismatch(
            f"current-vortex sheet requires equal heights, got {hat_plus.h} and {hat_minus.h}"
        )


def cvs_sufficient_verdict(hat_plus: State, hat_minus: State, epsilon: float) -> CvsVerdict:
    """Energy-method sufficient condition with margin epsilon.

    Stable when |B2+| + |B2-| - |[v2]| >= epsilon and at least one
    tangential component has magnitude >= epsilon; a failed condition is
    inconclusive (it is sufficient only, never a proof of instability).
    The reported margin is the distance of |[v2]| to the stability
    boundary |B2+| + |B2-|.
    """
    _check_equal_heights(hat_plus, hat_minus)
    b2p = float(hat_plus.B[1])
    b2m = float(hat_minus.B[1])
    if b2p == 0.0 and b2m == 0.0:
        raise ZeroTangentialField("both tangential field components vanish")
    jump = abs(float(hat_plus.v[1] - hat_minus.v[1]))
    code, margin = cvs_sufficient_kernel(jump, b2p, b2m, epsilon)
    if code == CODE_STABLE:
        return CvsVerdict(tag=CvsStability.SUFFICIENTLY_STABLE, margin=float(margin))
    return CvsVerdict(
        tag=CvsStability.INCONCLUSIVE,
        margin=float(margin),
        note="sufficient condition failed; no instability implied",
    )


def cvs_nsc_verdict(hat_plus: State, hat_minus: State, params: PhysParams) -> CvsVerdict:
    """Necessary-and-sufficient verdict for the symmetric case B2+ = -B2-.

    With a = |[v2]|, b = |B2+| and G = g h, linear stability holds iff
    a <= 2 b or a >= 2 sqrt(b^2 + 2 G); the strict variant plus avoidance
    of four closed-form exceptional equalities gives the nonlinear
    verdict.  Points within DEFAULT_TOL (relative) of any equality are
    reported as exceptional, never resolved by guessing.  A b^2 + G that
    underflows to 0 is an InvalidParameter.
    """
    _check_equal_heights(hat_plus, hat_minus)
    b2p = float(hat_plus.B[1])
    b2m = float(hat_minus.B[1])
    field_scale = max(1.0, abs(b2p), abs(b2m))
    if abs(b2p + b2m) > DEFAULT_TOL * field_scale:
        raise NotSymmetricCase(f"need B2+ = -B2-, got {b2p} and {b2m}")

    a = abs(float(hat_plus.v[1] - hat_minus.v[1]))
    big_g = params.g * hat_plus.h
    if b2p * b2p + big_g == 0.0:
        raise InvalidParameter(f"b^2 + g h underflows to 0 (B2+ = {b2p:g}, g h = {big_g:g})")
    code, index, margin = cvs_nsc_kernel(a, abs(b2p), big_g)
    if code == CODE_EXCEPTIONAL:
        return CvsVerdict(tag=CvsStability.EXCEPTIONAL_POINT, margin=float(margin),
                          index=int(index))
    tag = CvsStability.NSC_STABLE if code == CODE_STABLE else CvsStability.NSC_UNSTABLE
    return CvsVerdict(tag=tag, margin=float(margin))


def boundary_energy_term(
    hat_plus: State,
    hat_minus: State,
    choice: SymmetrizerChoice,
    pert_plus: np.ndarray,
    pert_minus: np.ndarray,
    slope_perturbation: float,
    params: PhysParams,
) -> float:
    """Boundary integrand of the energy identity for trace perturbations.

    The integrand is the jump of the quadratic form U . B1(hat U) U.
    For a rectilinear background (zero normal velocity and field) it
    collapses to 2 g [h (v1 - lam B1)], and under the linearized
    boundary conditions to 2 g h [hat v2 - lam hat B2] d2(phi), so it
    vanishes to round-off whenever ``choice`` comes from
    ``lambda_for_cvs``.

    ``pert_plus``/``pert_minus`` are trace perturbations (h, v1, v2,
    B1, B2); they must satisfy the linearized boundary conditions
    ([h] = 0 and a side-independent front speed v1 - hat_v2 * d2(phi))
    and the linearized field constraint B1 = hat_B2 * d2(phi) per side.
    """
    up = np.asarray(pert_plus, dtype=float).reshape(5)
    um = np.asarray(pert_minus, dtype=float).reshape(5)
    s = float(slope_perturbation)

    back_scale = max(1.0, abs(hat_plus.v[1]), abs(hat_minus.v[1]),
                     abs(hat_plus.B[1]), abs(hat_minus.B[1]))
    if max(abs(hat_plus.v[0]), abs(hat_minus.v[0]),
           abs(hat_plus.B[0]), abs(hat_minus.B[0])) > BOUNDARY_TOL * back_scale:
        raise ConstraintViolation("background must be a rectilinear sheet: "
                                  "zero normal velocity and field")
    if abs(hat_plus.h - hat_minus.h) > BOUNDARY_TOL * max(1.0, hat_plus.h):
        raise HeightMismatch("background heights differ")

    scale = max(1.0, float(np.max(np.abs(up))), float(np.max(np.abs(um))), abs(s)) * back_scale
    if abs(up[0] - um[0]) > BOUNDARY_TOL * scale:
        raise ConstraintViolation("trace perturbations violate [h] = 0")
    speed_p = up[1] - hat_plus.v[1] * s
    speed_m = um[1] - hat_minus.v[1] * s
    if abs(speed_p - speed_m) > BOUNDARY_TOL * scale:
        raise ConstraintViolation("trace perturbations define two different front speeds")
    if abs(up[3] - hat_plus.B[1] * s) > BOUNDARY_TOL * scale or \
            abs(um[3] - hat_minus.B[1] * s) > BOUNDARY_TOL * scale:
        raise ConstraintViolation("trace perturbations violate the linearized field constraint")

    qp = secondary_matrices(hat_plus, choice.lambda_plus, params).B1
    qm = secondary_matrices(hat_minus, choice.lambda_minus, params).B1
    return float(up @ qp @ up - um @ qm @ um)
