"""Shared exception types."""


class NglError(Exception):
    """Base class for all package errors."""


class ResolutionError(NglError):
    """Requested feature lies below what the grid can resolve."""


class EmptyRegionError(NglError):
    """Region contains no grid sample (radius below grid resolution)."""


class InfiniteGrowthError(NglError):
    """Inner sup vanishes; the growth exponent is infinite."""


class ConvergenceError(NglError):
    """Iterative solve failed; carries the best residual reached."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConstraintError(NglError):
    """A configuration constraint (radius, separation, support) is violated."""


class ConfigError(NglError):
    """Invalid experiment configuration."""


class CorruptFileError(NglError):
    """A stored file fails its integrity checks (header, size, samples)."""
