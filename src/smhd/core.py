"""Shallow-water MHD states, fluxes, and symmetric quasilinear forms.

The model evolves the height h of a thin conducting fluid layer together
with the depth-averaged velocity v = (v1, v2) and magnetic field
B = (B1, B2) under a gravitational acceleration g > 0.  All quantities
are nondimensional; g is a runtime parameter with default 1.

The symmetric quasilinear forms are one family, built by
``symmetric_matrices``: weights (k0, w, c) and a parameter lam, with
lam = 0 the primary forms

* ``PRIMITIVE_HEIGHT``: unknowns (h, v, B), with
  A0 = blockdiag(g/h, I4);
* ``PRESSURE``: unknowns (p, v, B) with the hydrostatic pressure
  p = (g/2) h^2 and the gravity wave speed c = sqrt(g h), with
  A0 = blockdiag(1/(h c^2), h I4), the F2 = 0 slice of 2D
  elastodynamics (``elastic.py``);

and lam != 0 the secondary symmetrization (``symmetrization.py``).
The primary forms are symmetric hyperbolic exactly when h > 0.

Conserved variables are q = (h, h v1, h v2, h B1, h B2).  The induction
rows of the flux use the planar curl convention

    a x b = a1 b2 - a2 b1  (scalar),      curl w = (d2 w, -d1 w),

whose componentwise expansion makes the x1-flux of h B1 and the x2-flux
of h B2 vanish identically.  That mirrors the transport structure of the
constraint div(h B) = 0, which is carried by the initial data rather
than enforced by the equations.

The fluxes (``FluxPlan``, evaluated once by ``axis_fluxes``) and the fast
speed (``fast_speed``) each live here only; the pointwise API, the Lax
verdict and its sweep kernel, and the simulator call them on floats or
arrays.  The simulator builds one ``FluxPlan`` per run and passes
``fast_speed`` its output buffers, so its time step allocates nothing.
Formulas shared by a scalar and an array path square by products, not
``**``: ``x**2`` of a float calls libm ``pow``, which can round unlike
numpy's ``x*x``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, NonPositiveHeight

PRIMITIVE_HEIGHT = "primitive-height"
PRESSURE = "pressure"


def where(cond, x, y):
    """``np.where`` that stays scalar for a scalar condition, so that one formula
    serves a pointwise verdict (at Python-float speed) and a sweep kernel."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def sqrt(x):
    """``np.sqrt`` of an array, ``math.sqrt`` (a Python float) of a scalar."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


@dataclass(frozen=True)
class PhysParams:
    """Physical parameters: the gravitational acceleration g > 0."""

    g: float = 1.0

    def __post_init__(self):
        if not (self.g > 0.0 and np.isfinite(self.g)):
            raise InvalidParameter(f"gravitational acceleration must be positive, got {self.g}")


@dataclass(frozen=True)
class State:
    """Pointwise primitive state (h, v, B) with h > 0.

    ``v`` and ``B`` are length-2 arrays.  Construction validates
    positivity and finiteness; analysis code never clips heights.
    """

    h: float
    v: np.ndarray
    B: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "h", float(self.h))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float).reshape(2))
        object.__setattr__(self, "B", np.asarray(self.B, dtype=float).reshape(2))
        if not self.h > 0.0:
            raise NonPositiveHeight(f"h must be positive, got {self.h}")
        if not (np.isfinite(self.h) and np.all(np.isfinite(self.v)) and np.all(np.isfinite(self.B))):
            raise InvalidParameter("state components must be finite")

    def as_vector(self) -> np.ndarray:
        """The 5-vector (h, v1, v2, B1, B2)."""
        return np.concatenate(([self.h], self.v, self.B))


@dataclass(frozen=True)
class FrontGeometry:
    """Local front data: slope d2(phi) and speed dt(phi) at a point.

    The (unnormalized) front normal is N = (1, -slope) with
    |N|^2 = 1 + slope^2 >= 1.
    """

    slope: float = 0.0
    speed: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "slope", float(self.slope))
        object.__setattr__(self, "speed", float(self.speed))
        if not (np.isfinite(self.slope) and np.isfinite(self.speed)):
            raise InvalidParameter("front slope and speed must be finite")

    @property
    def normal(self) -> np.ndarray:
        return np.array([1.0, -self.slope])

    @property
    def norm_sq(self) -> float:
        return 1.0 + self.slope * self.slope


def conserved_from_primitive(u: State) -> np.ndarray:
    """Conserved vector q = (h, h v1, h v2, h B1, h B2)."""
    return np.concatenate(([u.h], u.h * u.v, u.h * u.B))


def primitive_from_conserved(q: np.ndarray) -> State:
    """Recover (h, v, B) from q; raises NonPositiveHeight if q[0] <= 0."""
    q = np.asarray(q, dtype=float).reshape(5)
    if not q[0] > 0.0:
        raise NonPositiveHeight(f"conserved height must be positive, got {q[0]}")
    return State(h=q[0], v=q[1:3] / q[0], B=q[3:5] / q[0])


class FluxPlan:
    """The physical fluxes along the first ``ndim`` axes (x1, then x2) of fixed
    arrays, evaluated again by each call.

    ``q`` = (h, h v1, h v2, h B1, h B2) is shaped (5, ...) and ``prim`` =
    (v1, v2, B1, B2) its velocity and field, (4, ...).  With the pressure
    g h^2/2, w = h (B1 v2 - B2 v1), rounded as hB1 v2 - hB2 v1, and the shared
    term s = h v1 v2 - h B1 B2, rounded as hv1 v2 - hB1 B2:

        F1 = (h v1, h v1^2 - h B1^2 + g h^2/2, s, 0, -w)
        F2 = (h v2, s, h v2^2 - h B2^2 + g h^2/2, w, 0)

    Each shared term is evaluated once for both axes.  The zero entries are the
    curl structure of the induction rows; the x2 flux never reads B1.  The
    fluxes go into ``out`` (ndim, 5, ...), whose zero rows F1[3] and F2[4] are
    never written: a new ``out`` is allocated with zeros, and a given one must
    already hold 0 there.  Every view and temporary is built here, so a call
    issues only ufunc calls with ``out=``: products go two at a time, on row
    pairs such as h v1 (v1, v2).  ``work`` is an optional float scratch of at
    least (5, ...) for the temporaries; it is free again after a call.
    """

    def __init__(self, q, prim, g, ndim: int = 2, out=None, work=None):
        shape = q.shape[1:]
        f = np.zeros((ndim, 5, *shape)) if out is None else out
        work = np.empty((5, *shape)) if work is None else work
        self.out, self.ndim, self.half_g = f, ndim, 0.5 * g
        self.h, self.pres, self.pair, self.pair_b = q[0, ...], work[0, ...], work[1:3], work[3:5]
        self.first, self.second = work[1, ...], work[2, ...]  # the rows of pair
        # F1[0] = h v1; h v1 (v1, v2) - h B1 (B1, B2) = (F1[1] - pres, s);
        # (h B1, h B2) (v2, v1) -> w into F2[3] (F1[4] in 1D), negated into F1[4]
        self.copies = [(f[0, 0, ...], q[1, ...])]
        self.q1, self.v, self.q3, self.b = q[1:2], prim[:2], q[3:4], prim[2:]
        self.f1_12, self.f1_1, self.f1_4 = f[0, 1:3], f[0, 1, ...], f[0, 4, ...]
        self.hb, self.v21 = q[3:5], prim[1::-1]
        self.w = f[1, 3, ...] if ndim == 2 else f[0, 4, ...]
        if ndim == 2:
            # F2[0] = h v2, F2[1] = s; (h v2, h B2) (v2, B2) -> F2[2] - pres
            self.copies += [(f[1, 0, ...], q[2, ...]), (f[1, 1, ...], f[0, 2, ...])]
            self.q24, self.v2b2, self.f2_2 = q[2::2], prim[1::2], f[1, 2, ...]

    def __call__(self):
        pair, first, second, pres = self.pair, self.first, self.second, self.pres
        np.multiply(self.h, self.half_g, out=pres)
        np.multiply(pres, self.h, out=pres)
        np.multiply(self.q1, self.v, out=pair)
        np.multiply(self.q3, self.b, out=self.pair_b)
        np.subtract(pair, self.pair_b, out=self.f1_12)
        np.add(self.f1_1, pres, out=self.f1_1)
        np.multiply(self.hb, self.v21, out=pair)
        np.subtract(first, second, out=self.w)
        np.negative(self.w, out=self.f1_4)
        if self.ndim == 2:
            np.multiply(self.q24, self.v2b2, out=pair)
            np.subtract(first, second, out=self.f2_2)
            np.add(self.f2_2, pres, out=self.f2_2)
        for dst, src in self.copies:
            dst[...] = src
        return self.out


def axis_fluxes(q, v, b, g, ndim: int = 2, out=None):
    """``FluxPlan`` evaluated once, for conserved fields ``q`` (5, ...) with their
    velocity ``v`` and field ``b`` pairs (2, ...): the fluxes (ndim, 5, ...)."""
    return FluxPlan(q, np.concatenate((v, b)), g, ndim, out)()


def fluxes(u: State, params: PhysParams) -> tuple[np.ndarray, np.ndarray]:
    """Physical fluxes (F1, F2) of the conservation-law form at one state."""
    return tuple(axis_fluxes(conserved_from_primitive(u), u.v, u.B, params.g))


def symmetric_matrices(u: State, k0: float, w: float, c: float,
                       lam: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lam-family of symmetric forms (A0, A1, A2) for unknowns (s, v, B), s = h or p.

    A0 = diag(k0, w, w, w, w) with -lam w coupling v to B, and in direction i

        Ai[0, 0] = k0 (vi - lam bi),  p-v coupling c ei,  p-B coupling -c lam ei,
        v/B blocks w (vi + lam bi) I on the diagonal, -w (bi + lam vi) I off it.

    (k0, w, c) = (g/h, 1, g) is the primitive-height form, (1/(h g h), h, 1)
    the pressure form, and lam != 0 the secondary symmetrization.
    """
    a0 = np.diag([k0, w, w, w, w])
    a0[1, 3] = a0[3, 1] = a0[2, 4] = a0[4, 2] = -lam * w
    mats = [a0]
    for i, (vi, bi) in enumerate(zip(u.v, u.B)):
        m = np.zeros((5, 5))
        m[0, 0] = k0 * (vi - lam * bi)
        m[0, 1 + i] = m[1 + i, 0] = c
        m[0, 3 + i] = m[3 + i, 0] = -c * lam
        adv, mag = w * (vi + lam * bi), -(w * (bi + lam * vi))
        m[1:, 1:] = np.kron([[adv, mag], [mag, adv]], np.eye(2))
        mats.append(m)
    return tuple(mats)


def quasilinear_matrices(u: State, params: PhysParams,
                         form: str = PRIMITIVE_HEIGHT) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The lam = 0 member (A0, A1, A2) of ``symmetric_matrices`` in the requested form.

    ``PRIMITIVE_HEIGHT`` has unknowns (h, v, B) and weights (g/h, 1, g);
    ``PRESSURE`` has (p, v, B), p = (g/2) h^2, and weights (1/(h c^2), h, 1).
    Both forms have the speeds of ``normal_speeds``; A0 is positive
    definite iff h > 0.
    """
    g, h = params.g, u.h
    if form == PRIMITIVE_HEIGHT:
        return symmetric_matrices(u, g / h, 1.0, g)
    if form == PRESSURE:  # k0 rounds as 1/(h c^2), c^2 = g h, bit-equal to elastic.py
        return symmetric_matrices(u, 1.0 / (h * (g * h)), h, 1.0)
    raise ValueError(f"unknown quasilinear form {form!r}")


def boundary_matrix(u: State, front: FrontGeometry, params: PhysParams) -> np.ndarray:
    """Boundary matrix A1 - A0 dt(phi) - A2 d2(phi) in primitive-height form.

    Its singularity at the front characterizes characteristic
    discontinuities.
    """
    a0, a1, a2 = quasilinear_matrices(u, params)
    return a1 - front.speed * a0 - front.slope * a2


def fast_speed(bn, h, g, norm_sq=1.0, out=None, gh=None):
    """Fast magneto-gravity speed c_gN = sqrt(B_N^2 + g h |N|^2), scalars or arrays.

    ``bn`` = B.N for a normal N that need not be unit, ``norm_sq`` = |N|^2.
    Arrays can be evaluated into ``out`` (shaped like bn) with ``gh`` (shaped
    like h) as scratch for g h |N|^2: the same rounding, and no temporaries.
    The factor of a unit normal is then skipped, as x 1 = x.
    """
    if out is None:
        return sqrt(bn * bn + g * h * norm_sq)
    np.multiply(h, g, out=gh)
    if norm_sq != 1.0:
        np.multiply(gh, norm_sq, out=gh)
    np.multiply(bn, bn, out=out)
    np.add(out, gh, out=out)
    return np.sqrt(out, out=out)


def normal_speeds(u: State, params: PhysParams, normal: np.ndarray) -> np.ndarray:
    """Closed-form characteristic speeds in direction ``normal``.

    For n not necessarily unit, the five speeds are

        v_n - c_g, v_n - |B_n|, v_n, v_n + |B_n|, v_n + c_g

    with v_n = v.n, B_n = B.n and c_g = ``fast_speed``.  The array is
    ascending by construction since c_g >= |B_n|.
    """
    n = np.asarray(normal, dtype=float).reshape(2)
    vn = float(u.v @ n)
    bn = float(u.B @ n)
    cg = fast_speed(bn, u.h, params.g, float(n @ n))
    ba = abs(bn)
    return np.array([vn - cg, vn - ba, vn, vn + ba, vn + cg])
