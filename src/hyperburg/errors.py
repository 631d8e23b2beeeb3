"""Exception types raised at the package boundaries."""


class HyperburgError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(HyperburgError, ValueError):
    """A physical or numerical parameter is out of its admissible range."""


class ConfigError(HyperburgError, ValueError):
    """A run configuration is malformed or violates a precondition."""


class CalibrationError(HyperburgError, ValueError):
    """Initial-data calibration cannot hit the requested moments."""


class DomainError(HyperburgError, ValueError):
    """A spatial domain does not contain the region an operation needs."""
