"""Exception types raised by the simulator."""


class CoposimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(CoposimError):
    """Invalid scenario configuration or waveform parameters."""


class DegenerateGeometryError(CoposimError):
    """Geometry does not admit the requested operation (rank loss, undefined angle)."""


class UnwrapAmbiguityError(CoposimError):
    """Antenna spacing too large for unambiguous phase unwrapping."""


class FeasibilityError(CoposimError):
    """Scene does not satisfy a feasibility condition of the recovery algorithm."""


class InterpolationDegeneracyError(CoposimError):
    """Aperture samples cannot be resampled onto a 2D grid (too few rows/columns)."""


class EmptySpectrumError(CoposimError):
    """Peak detection found no usable maximum: the power spectrum is all zero,
    or holds a NaN or infinite magnitude."""
