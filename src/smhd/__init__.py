"""Shallow-water magnetohydrodynamics toolkit.

Analysis of discontinuous solutions (jump conditions, shock
admissibility, current-vortex-sheet stability) together with
desk-scale finite-volume and linearized half-plane experiments that
exercise the analytic predictions.
"""

__version__ = "0.1.0"

from .core import (
    PRESSURE,
    PRIMITIVE_HEIGHT,
    FrontGeometry,
    MatrixSet,
    PhysParams,
    State,
    boundary_matrix,
    conserved_from_primitive,
    fluxes,
    gravity_wave_speed,
    primitive_from_conserved,
    quasilinear_matrices,
    symmetric_matrices,
)
from .elastic import ElasticState, embed_elastodynamics
from .jumps import (
    DiscontinuityKind,
    DiscontinuityType,
    RHResidual,
    SidePair,
    TraceQuantities,
    classify,
    rh_residual,
    trace_quantities,
)
from .shock import (
    LinearizedShockSetup,
    RectilinearShock,
    ShockDiagnostics,
    characteristic_speeds,
    det_boundary_matrix_closed_form,
    hugoniot_downstream,
    lax_kernel,
    lax_verdict,
    linearized_setup,
    rectilinear_shock,
)
from .symmetrization import (
    CvsStability,
    CvsVerdict,
    SecondaryMatrices,
    SymmetrizerChoice,
    boundary_energy_term,
    cvs_nsc_kernel,
    cvs_nsc_verdict,
    cvs_sufficient_kernel,
    cvs_sufficient_verdict,
    lambda_for_cvs,
    nsc_curves,
    secondary_hyperbolic,
    secondary_matrices,
    secondary_residual_decomposition,
)
from .fv import SimConfig, SimResult, hll_flux, perturbed_shock_experiment, simulate_1d, simulate_2d
from .linear import LinearConfig, LinearResult, linear_halfplane_simulate

__all__ = [name for name in dir() if not name.startswith("_")]
