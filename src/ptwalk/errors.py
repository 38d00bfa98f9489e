"""Exception hierarchy shared across the package."""


class WalkError(Exception):
    """Base class for all ptwalk errors."""


class ConfigError(WalkError):
    """Invalid run configuration (bad expression, range, or flag combination)."""


class DegenerateSpectrum(WalkError):
    """Eigenvalues coalesce; biorthogonal normalization diverges."""


class ExceptionalPoint(DegenerateSpectrum):
    """Band touching of the non-unitary operator (|d0| = 1 at some momentum)."""


class SingularNormalization(WalkError):
    """A density-matrix normalization denominator vanished."""


class DegenerateTriangle(WalkError):
    """Adjacent Bloch vectors (anti)parallel; spherical triangle area undefined."""
