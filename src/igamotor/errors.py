"""Exception hierarchy shared across the package."""


class IgaError(Exception):
    """Base class for all solver errors."""


class ConfigError(IgaError):
    """Invalid or inconsistent configuration input."""


class GeometryError(IgaError):
    """Geometry is outside the supported class (off-circle interface, folds, ...)."""


class ConformityError(GeometryError):
    """Matched patch edges do not carry identical discretizations."""


class AssemblyError(IgaError):
    """Quadrature/assembly failure, e.g. singular Jacobian at a quadrature point."""


class FactorizationError(IgaError):
    """Sparse factorization failed (matrix not symmetric positive definite)."""


class SingularSystemError(IgaError):
    """Dense linear system is numerically singular."""


class DegenerateSignalError(IgaError):
    """Spectral quantity undefined (zero fundamental)."""
