"""Exception types shared across the package."""


class MicroMacroError(Exception):
    """Base class for all package-specific errors."""


class TruncationError(MicroMacroError):
    """Photon-number truncation cannot hold the requested tail tolerance."""


class NotAnXStateError(MicroMacroError, ValueError):
    """A matrix expected to be X-structured carries off-X weight."""


class IllConditionedError(MicroMacroError):
    """A tomographic reconstruction is ill-posed for the given record."""
