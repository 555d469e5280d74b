"""Exception types shared across the package."""


class CalorixError(Exception):
    """Base class for every library-specific error."""


class NotSymmetric(CalorixError):
    """Coefficient matrix is not symmetric within tolerance."""


class NotPositiveDefinite(CalorixError):
    """Coefficient matrix has a non-positive Cholesky pivot."""


class DimensionTooSmall(CalorixError):
    """Operation requires a higher space dimension (elliptic kernels need n >= 3)."""


class NotCaloric(CalorixError):
    """Polynomial is not in the span of the requested caloric family."""

    def __init__(self, message, residual_term=None):
        super().__init__(message)
        self.residual_term = residual_term


class DimensionMismatch(CalorixError):
    """Cross-section and operator dimensions disagree."""


class InvalidResolution(CalorixError):
    """Quadrature resolution parameters are out of range."""


class OffsetTooLarge(CalorixError):
    """Normal offset leaves the region it was supposed to stay in."""


class TargetOnBoundary(CalorixError):
    """Evaluation point sits on the boundary where the identity is not classical."""


class CornerTooClose(CalorixError):
    """Probe node is too close to the cylinder corners (t near 0 or T)."""


class RegionMismatch(CalorixError):
    """Boundary data regions do not match the parity of the basis."""


class DegenerateData(CalorixError):
    """Boundary data carries no usable information (e.g. all weights vanish)."""


class ConfigInvalid(CalorixError):
    """Experiment configuration failed schema or semantic validation."""


class TaskFailed(CalorixError):
    """A verification task ran but at least one assertion failed."""
