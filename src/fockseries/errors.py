"""Exception types raised by the fockseries library."""


class FockSeriesError(Exception):
    """Base class for all fockseries errors."""


class InvalidParameter(FockSeriesError, ValueError):
    """A state, splitter, policy, or request parameter is outside its domain."""


class HardCapExceeded(FockSeriesError, RuntimeError):
    """Adaptive truncation passed its term cap; the parameters are not desk-scale."""


class UnnormalizedInput(FockSeriesError, ValueError):
    """Joint amplitudes deviate from unit norm beyond the allowed tolerance."""


class DimensionTooLarge(FockSeriesError, RuntimeError):
    """Entropy evaluation refused before allocating: output dimension too large."""
