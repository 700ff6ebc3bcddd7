"""Shallow-water magnetohydrodynamics toolkit.

Analysis of discontinuous solutions (jump conditions, shock
admissibility, current-vortex-sheet stability) together with
desk-scale finite-volume and linearized half-plane experiments that
exercise the analytic predictions.
"""

__version__ = "0.1.0"
