"""Explicit solver for the constant-coefficient linearized half-plane problem.

Behind an admissible rectilinear shock, the scaled perturbation
U = (p, v1, v2, B1, B2) obeys

    L p + div v = 0,   M^2 L v - (Bc . grad) B + grad p = 0,
    L B - (Bc . grad) v = 0,        L = dt + d1,  Bc = (m1, m2),

on x1 > 0, periodic in x2, coupled at x1 = 0 to the front perturbation
phi through five boundary relations; one of them evolves phi, the other
four determine the incoming characteristic amplitudes.  The upstream
side needs no boundary data because the shock is extreme.

Discretization: first-order upwind characteristic splitting in both
directions; the four incoming amplitudes at x1 = 0 are solved from the
boundary relations each step while the outgoing one is extrapolated
from the interior.  The divergence-type restriction on the initial data

    div B + Bc . grad p = 0

is validated with the same one-sided operator used to build compliant
pulses, so compliant data satisfy it exactly.

Each run has a step plan: the views of the four differences
(``_Differences``), the boundary state, the front phi and its central
difference d2 phi, and their scratch, are built once when the run
starts.  A step then fills the differences, applies the upwind product
u -= K D, and updates phi, d2 phi and the boundary state in place, with
the rounding of the plain expressions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import PhysParams
from .errors import ConfigError, ConstraintViolation, LaxViolation, NonFiniteState
from .ioutil import (MAX_STEPS, Recorder, cell_grid, check_float, check_keys, check_pair,
                     check_run_fields, config_kwargs)
from .shock import LinearizedShockSetup, linearized_setup, rectilinear_shock

Array = np.ndarray

_SHOCK_KEYS = ("h_minus", "ratio", "b1_plus", "b2", "g")
_PULSE_KEYS = ("center", "width", "p_amplitude", "v1_amplitude", "v2_amplitude",
               "potential_amplitude")
# Largest accepted constraint residual of initial data, relative to their gradient scale.
CONSTRAINT_TOL = 1e-8


def system_matrices(setup: LinearizedShockSetup) -> tuple[Array, Array, Array]:
    """Symmetric matrices (A0, A1, A2) of the scaled downstream system."""
    m2_sq = setup.froude**2
    m1, m2 = setup.m1, setup.m2
    a0 = np.diag([1.0, m2_sq, m2_sq, 1.0, 1.0])
    a1 = np.array([
        [1.0, 1.0, 0.0, 0.0, 0.0],
        [1.0, m2_sq, 0.0, -m1, 0.0],
        [0.0, 0.0, m2_sq, 0.0, -m1],
        [0.0, -m1, 0.0, 1.0, 0.0],
        [0.0, 0.0, -m1, 0.0, 1.0],
    ])
    a2 = np.array([
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -m2, 0.0],
        [1.0, 0.0, 0.0, 0.0, -m2],
        [0.0, -m2, 0.0, 0.0, 0.0],
        [0.0, 0.0, -m2, 0.0, 0.0],
    ])
    return a0, a1, a2


def boundary_condition_matrix(setup: LinearizedShockSetup) -> Array:
    """The four algebraic boundary relations C U = (0, -(1-R) d2 phi, 0, 0).

    Rows: the velocity-pressure relation, the tangential kinematic
    relation, and the two field relations; the fifth (front-evolution)
    relation is integrated in time instead.
    """
    m_sq = setup.froude**2
    r = setup.ratio
    return np.array([
        [setup.d0, 1.0, -setup.ell0 / (m_sq * r), 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [setup.m1, 0.0, -setup.m2 / r, 1.0, 0.0],
        [0.0, 0.0, -setup.m1, 0.0, 1.0],
    ])


def _upwind_split(a: Array, a0: Array) -> tuple[Array, Array, Array, Array, Array]:
    """Eigen-split G = A0^-1 A into G+ and G-, the eigenbasis, its inverse and the
    ascending eigenvalues.  A0 is diagonal and positive, so with S = A0^-1/2 the
    eigenbasis of the pencil (A, A0) is S W, where S A S = W diag(lam) W^T."""
    s = 1.0 / np.sqrt(np.diag(a0))
    lam, w = np.linalg.eigh(s[:, None] * a * s)
    vecs = s[:, None] * w
    inv = vecs.T @ a0
    return (vecs * np.maximum(lam, 0.0)) @ inv, (vecs * np.minimum(lam, 0.0)) @ inv, vecs, inv, lam


class _Differences:
    """The x1 backward (ghost ``ub``), x1 forward (zero-gradient ghost), x2 backward and
    x2 forward (periodic) differences of ``u`` (5, n1, n2), written into ``d``
    (4, 5, n1, n2) by each call.  Each is one subtraction over the flat arrays, after
    which the entries that wrap across a row or field are reset; every view is built
    here, once per run."""

    def __init__(self, d: Array, u: Array, ub: Array):
        n2 = u.shape[2]
        uf, (d0, d1, d2, d3) = u.reshape(-1), d.reshape(4, -1)
        # (minuend, subtrahend, out), in order: each row's first entries are then redone
        self.subtractions = [(uf[n2:], uf[:-n2], d0[n2:]), (u[:, 0], ub, d[0, :, 0]),
                             (uf[1:], uf[:-1], d2[1:]), (u[..., 0], u[..., -1], d[2, ..., 0])]
        # (destination, source), in order: the forward differences are the backward
        # ones shifted, with the last x1 entry 0 and the last x2 entry periodic
        self.copies = [(d1[:-n2], d0[n2:]), (d[1, :, -1], 0.0),
                       (d3[:-1], d2[1:]), (d[3, ..., -1], d[2, ..., 0])]

    def __call__(self) -> None:
        for left, right, out in self.subtractions:
            np.subtract(left, right, out=out)
        for dst, src in self.copies:
            dst[...] = src


@dataclass
class LinearConfig:
    """Grid and pulse description for a half-plane run."""

    cells: tuple[int, int]
    extents: tuple[tuple[float, float], tuple[float, float]]
    end_time: float
    pulse: dict = field(default_factory=dict)
    cfl: float = 0.45
    output_interval: float | None = None

    def __post_init__(self):
        check_run_fields(self, 2)
        if self.extents[0][0] != 0.0:
            raise ConfigError("the half-plane domain must start at x1 = 0")
        check_keys(self.pulse, _PULSE_KEYS, "pulse key")

    @staticmethod
    def from_dict(doc: dict) -> tuple[LinearizedShockSetup, "LinearConfig"]:
        """Shock setup and run config of a ``"kind": "linear"`` document.

        ``shock`` holds ``h_minus``, ``ratio``, ``b1_plus`` and optionally
        ``b2`` (default 0) and ``g`` (default 1); the other keys are the
        fields of LinearConfig.  Unknown or missing keys are ConfigErrors.
        """
        kwargs = config_kwargs(LinearConfig, doc, allowed=("kind",), required=("shock",))
        shock = {"b2": 0.0, "g": 1.0} | check_keys(doc["shock"], _SHOCK_KEYS, "shock key",
                                                   required=_SHOCK_KEYS[:3])
        h_minus, ratio, b1_plus, b2, g = (check_float(shock[k], f"shock {k}", -math.inf)
                                          for k in _SHOCK_KEYS)
        cfg = LinearConfig(**kwargs)
        params = PhysParams(g=g)
        return linearized_setup(rectilinear_shock(h_minus, ratio, b1_plus, b2, params), params), cfg


@dataclass
class LinearResult:
    """Norm histories and snapshots of a half-plane run.

    The recorded norms are discrete stand-ins for the energy-estimate
    quantities: the interior L2 norm of U; the L2 norm of U together with
    its undivided first differences (x1 neighbours, periodic x2
    neighbours); the boundary trace of U; and the front perturbation.
    ``p_triple`` holds p at the last three time levels, or None for a
    one-step run.
    """

    times: Array
    l2_u: Array
    h1_u: Array
    trace_norm: Array
    front_norm: Array
    energy: Array
    u_final: Array
    phi_final: Array
    p_triple: Array | None
    dt: float
    grid: dict
    steps: int

    @property
    def norm_ratio_max(self) -> float:
        """max_t ||U(t)|| / ||U(0)|| in the interior proxy norm."""
        return float(np.max(self.h1_u) / self.h1_u[0])


def constraint_residual(u: Array, setup: LinearizedShockSetup, dx: float, dy: float) -> Array:
    """One-sided residual of div B + (Bc . grad) p on interior cells."""
    p, b1, b2 = u[0], u[3], u[4]
    d1 = lambda f: (f[1:, :] - f[:-1, :]) / dx
    d2 = lambda f: (np.roll(f, -1, axis=1) - f) / dy
    return d1(b1) + d2(b2)[:-1, :] + setup.m1 * d1(p) + setup.m2 * d2(p)[:-1, :]


def make_constraint_pulse(cfg: LinearConfig, setup: LinearizedShockSetup) -> Array:
    """Compactly supported initial data satisfying the field constraint.

    p is a truncated Gaussian; B is built as the one-sided discrete curl
    of a potential minus Bc p, which cancels in the one-sided constraint
    operator identically.  Velocities are free and default to zero.
    """
    (x, y), (dx, dy) = cell_grid(cfg)
    (x0, x1), (y0, y1) = cfg.extents
    xx, yy = np.meshgrid(x, y, indexing="ij")
    doc = cfg.pulse
    center = check_pair(doc.get("center", (0.5 * (x0 + x1), 0.5 * (y0 + y1))), "pulse center")
    cx, cy = (check_float(c, "pulse center", -math.inf) for c in center)
    w = check_float(doc.get("width", 0.1 * (x1 - x0)), "pulse width")
    r2 = ((xx - cx) / w) ** 2 + ((yy - cy) / w) ** 2
    bump = np.where(r2 < 16.0, np.exp(-r2), 0.0)

    def amplitude(key: str, default: float) -> float:
        return check_float(doc.get(key, default), f"pulse {key}", -math.inf)

    u = np.zeros((5, *cfg.cells))
    u[0] = amplitude("p_amplitude", 1.0) * bump
    u[1] = amplitude("v1_amplitude", 0.0) * bump
    u[2] = amplitude("v2_amplitude", 0.0) * bump
    pot = amplitude("potential_amplitude", 0.0) * bump
    # one-sided curl: (d2 pot, -d1 pot) with the same differences as the
    # constraint check, so the curl part drops out of it exactly
    u[3] = (np.roll(pot, -1, axis=1) - pot) / dy - setup.m1 * u[0]
    u[4] = -np.concatenate([(pot[1:, :] - pot[:-1, :]) / dx, np.zeros_like(pot[:1])], axis=0) \
        - setup.m2 * u[0]
    if not np.any(u):
        raise ConfigError("the pulse is zero in every cell")
    return u


def linear_halfplane_simulate(setup: LinearizedShockSetup, cfg: LinearConfig,
                              u0: Array | None = None) -> LinearResult:
    """Evolve the linearized problem and record the estimate norms.

    ``u0`` defaults to a constraint-compliant pulse built from ``cfg.pulse``.
    Rejected are initial data violating the divergence-type restriction beyond
    ``CONSTRAINT_TOL`` (relative, scaled by their gradient magnitude) and runs of
    more than ``MAX_STEPS`` steps.  A non-finite recorded norm raises
    NonFiniteState; NaN and inf persist, so the final record catches them.
    """
    n1, n2 = cfg.cells
    centers, (dx, dy) = cell_grid(cfg)

    u = np.array(make_constraint_pulse(cfg, setup) if u0 is None else u0, dtype=float, order="C")
    if u.shape != (5, n1, n2):
        raise ConfigError(f"initial data must have shape (5, {n1}, {n2})")

    res = float(np.max(np.abs(constraint_residual(u, setup, dx, dy))))
    scale = max(1.0, float(np.max(np.abs(u)))) / min(dx, dy)
    if res > CONSTRAINT_TOL * scale:
        raise ConstraintViolation(f"initial data violate the field constraint: max residual "
                                  f"{res:.3e} at scale {scale:.3e}")

    a0, a1, a2 = system_matrices(setup)
    g1p, g1m, vecs, vinv, lam1 = _upwind_split(a1, a0)
    g2p, g2m, _, _, lam2 = _upwind_split(a2, a0)
    if not (lam1[0] < 0.0 < lam1[1]):
        raise LaxViolation("expected exactly one outgoing characteristic at x1 = 0")

    smax1, smax2 = (float(np.max(np.abs(lam))) for lam in (lam1, lam2))
    dt = cfg.cfl / (smax1 / dx + smax2 / dy)
    if not cfg.end_time <= MAX_STEPS * dt:
        raise ConfigError(f"the run needs more than MAX_STEPS = {MAX_STEPS} time steps "
                          f"(CFL step {dt:.3g} for end_time {cfg.end_time:g})")
    n_steps = max(1, int(math.ceil(cfg.end_time / dt)))
    dt = cfg.end_time / n_steps

    # boundary state U_b = v_out w_out + V_in w_in with w_out = vinv[0] U(x1 = 0) and
    # C U_b = (0, -(1-R) d2 phi, 0, 0), solved once: U_b = B_u U(x1 = 0) + b_phi d2 phi
    r = setup.ratio
    cmat = boundary_condition_matrix(setup)
    v_out, v_in = vecs[:, 0], vecs[:, 1:]
    sol = np.linalg.solve(cmat @ v_in, np.column_stack([cmat @ v_out, [0.0, r - 1.0, 0.0, 0.0]]))
    b_u, b_phi = np.outer(v_out - v_in @ sol[:, 0], vinv[0]), v_in @ sol[:, 1]

    # front evolution: dt phi = (ell0/M^2) d2 phi - a0 p_b / (1 - R)
    phi_drift, phi_pb = setup.ell0 / setup.froude**2, setup.a0 / (1.0 - r)
    rec = Recorder(cfg.output_interval)
    p_levels = [u[0].copy()]  # p at time level 0 and at the last three levels

    def row() -> tuple:
        vol = dx * dy
        differences()  # x1 forward differences d[0, :, 1:], x2 forward d[3]
        l2 = math.sqrt(float(np.sum(u * u)) * vol)
        h1 = math.sqrt(float(np.sum(u * u) + np.sum(d[0, :, 1:] ** 2) + np.sum(d[3] ** 2)) * vol)
        dub = np.roll(ub, -1, axis=1) - ub
        tr = math.sqrt(float(np.sum(ub * ub) + np.sum(dub * dub)) * dy)
        dphi = np.roll(phi, -1) - phi
        fr = math.sqrt(float(np.sum(phi * phi) + np.sum(dphi * dphi)) * dy)
        en = float(np.einsum("ixy,ij,jxy->", u, a0, u)) * vol
        if not all(map(math.isfinite, (l2, h1, tr, fr, en))):
            raise NonFiniteState(t, f"the solution norms became non-finite at t={t:.6g}")
        return t, l2, h1, tr, fr, en

    # one upwind step is u -= K D, D the differences of u and K = dt/dx G1+-, dt/dy G2+-
    k = np.hstack([dt / dx * g1p, dt / dx * g1m, dt / dy * g2p, dt / dy * g2m])
    d = np.empty((4, 5, n1, n2))
    u_cols, d_cols, flux = u.reshape(5, -1), d.reshape(20, -1), np.empty((5, n1 * n2))
    # phi, its central difference d2 phi and the boundary state of the current u and phi,
    # each updated in place, with the views and scratch of those updates
    phi, d2phi, rate, p_term = np.zeros((4, n2))
    u_edge, ub, ub_phi = u[:, 0, :], np.empty((5, n2)), np.empty((5, n2))
    np.matmul(b_u, u_edge, out=ub)
    differences = _Differences(d, u, ub)
    # d2 phi = (phi[k + 1] - phi[k - 1]) / (2 dy), periodic in x2: the interior entries,
    # then (d2phi[0], d2phi[-1]) from (phi[1], phi[0]) - (phi[-1], phi[-2])
    d2phi_parts = ((phi[2:], phi[:-2], d2phi[1:-1]),
                   (phi[1::-1], phi[:-3:-1], d2phi[::n2 - 1]))
    two_dy, pb, b_phi_col = 2.0 * dy, ub[0], b_phi[:, None]
    t = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        rec.offer(t, False, row)
        for step in range(n_steps):
            differences()
            u_cols -= np.matmul(k, d_cols, out=flux)
            # phi += dt (phi_drift d2 phi - phi_pb p_b)
            np.multiply(d2phi, phi_drift, out=rate)
            rate -= np.multiply(pb, phi_pb, out=p_term)
            rate *= dt
            phi += rate
            for left, right, out in d2phi_parts:
                np.subtract(left, right, out=out)
            d2phi /= two_dy
            np.matmul(b_u, u_edge, out=ub)
            ub += np.multiply(b_phi_col, d2phi, out=ub_phi)
            t += dt
            if step >= n_steps - 3:
                p_levels.append(u[0].copy())
            rec.offer(t, step == n_steps - 1, row)

    # each recorded row holds the norm series of LinearResult in field order
    return LinearResult(
        *np.array(rec.rows).T,
        u_final=u, phi_final=phi,
        p_triple=np.array(p_levels[-3:]) if len(p_levels) >= 3 else None,
        dt=dt,
        grid=dict(zip(("x", "y", "dx", "dy"), (*centers, dx, dy))),
        steps=n_steps,
    )


def wave_operator_residual(result: LinearResult, setup: LinearizedShockSetup) -> Array:
    """Apply the discrete second-order operator M^2 L^2 - Lap - (Bc . grad)^2
    to the pressure of the last three time levels; interior cells only.

    The evolved field satisfies this to the accuracy of the first-order
    scheme, so the residual norm shrinks roughly linearly under grid
    refinement at fixed Courant number.
    """
    if result.p_triple is None:
        raise ValueError("a one-step run has no three time levels to check")
    pm, p0, pp = result.p_triple
    dt = result.dt
    dx = result.grid["dx"]
    dy = result.grid["dy"]
    m_sq = setup.froude**2
    m1, m2 = setup.m1, setup.m2

    def d1c(f):
        return (f[2:, 1:-1] - f[:-2, 1:-1]) / (2 * dx)

    def d11(f):
        return (f[2:, 1:-1] - 2 * f[1:-1, 1:-1] + f[:-2, 1:-1]) / dx**2

    def d22(f):
        return (f[1:-1, 2:] - 2 * f[1:-1, 1:-1] + f[1:-1, :-2]) / dy**2

    def d12(f):
        return (f[2:, 2:] - f[2:, :-2] - f[:-2, 2:] + f[:-2, :-2]) / (4 * dx * dy)

    p_tt = (pp - 2 * p0 + pm)[1:-1, 1:-1] / dt**2
    p_t1 = (d1c(pp) - d1c(pm)) / (2 * dt)
    lap = d11(p0) + d22(p0)
    b_grad_sq = m1**2 * d11(p0) + 2 * m1 * m2 * d12(p0) + m2**2 * d22(p0)
    return m_sq * (p_tt + 2 * p_t1 + d11(p0)) - lap - b_grad_sq
