"""Exception types raised by the simulator: a ``ConfigError`` before a trial
syncs, and the others in a trial past ``scenario.check`` and ``validate_scene``."""


class CoposimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(CoposimError):
    """Invalid scenario configuration or waveform parameters."""


class DegenerateGeometryError(CoposimError):
    """Geometry does not admit the requested operation (rank loss, undefined angle)."""


class InterpolationDegeneracyError(CoposimError):
    """Aperture samples cannot be resampled onto a 2D grid (too few rows/columns)."""


class EmptySpectrumError(CoposimError):
    """Peak detection found no usable maximum: the power spectrum is all zero,
    or holds a NaN or infinite magnitude."""
