"""Exception types shared across the package.

Everything numerical that can fail does so through a subclass of
:class:`OscfreeError`, so the CLI can map failure classes onto distinct
exit codes.
"""


class OscfreeError(Exception):
    """Base class for package-specific failures."""


class HalfPeriodError(OscfreeError, ValueError):
    """Oscillator-side time left the half-period window where cos(omega*t) > 0."""


class BoundaryDecayError(OscfreeError, RuntimeError):
    """Field does not decay at the grid edges, so periodic spectral propagation is invalid."""


class NormalizationError(OscfreeError, ValueError):
    """Unit-norm precondition violated."""


class PeakDetectionError(OscfreeError, RuntimeError):
    """Density maxima could not be located reliably on the given grid."""


class NonFiniteError(OscfreeError, ValueError):
    """A sampled field or residual evaluation produced inf or nan values, or underflowed to zero."""


class DegenerateTangencyError(OscfreeError, ValueError):
    """Trajectory touches its envelope only asymptotically (cos(alpha) = 0)."""
