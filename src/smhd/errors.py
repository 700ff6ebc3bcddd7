"""Exception types shared across the package.

Analysis routines never repair bad input: a non-positive height or an
inconsistent state pair raises instead of being clipped or guessed.
"""


class SmhdError(Exception):
    """Base class for all package errors."""


class InvalidParameter(SmhdError, ValueError):
    """A parameter or state component is out of range: g <= 0, B1+ <= 0, or non-finite."""


class NonPositiveHeight(SmhdError):
    """Fluid height must satisfy h > 0 for hyperbolicity."""


class DegenerateHeight(SmhdError):
    """Equal heights on both sides: no shock can be constructed."""


class InvalidRatio(SmhdError):
    """Height ratio of a rectilinear shock must be positive and != 1."""


class LaxViolation(SmhdError):
    """Froude window of an admissible shock failed."""


class NotAShock(SmhdError):
    """Shock diagnostics requested for a pair that is not a shock."""


class AmbiguousClassification(SmhdError):
    """Quantities sit inside the tolerance band of two branches."""


class ZeroTangentialField(SmhdError):
    """Both tangential magnetic components vanish; no symmetrizer choice."""


class HeightMismatch(SmhdError):
    """Current-vortex-sheet analysis requires equal heights."""


class NotSymmetricCase(SmhdError):
    """The two-sided necessary/sufficient verdict needs B2+ = -B2-."""


class ConstraintViolation(SmhdError):
    """Supplied data break a divergence or boundary constraint."""


class PositivityLoss(SmhdError):
    """A simulation produced a non-positive height."""

    def __init__(self, time: float, message: str = ""):
        self.time = time
        super().__init__(message or f"height became non-positive at t={time:.6g}")


class NonFiniteState(SmhdError):
    """A simulation produced a NaN or infinite value."""

    def __init__(self, time: float, message: str = ""):
        self.time = time
        super().__init__(message or f"state became non-finite at t={time:.6g}")


class CflViolation(SmhdError):
    """Courant number out of range or exceeded during a run."""


class ConfigError(SmhdError):
    """Malformed simulation or sweep configuration."""
