"""Exception types raised by the fockseries library."""


class FockSeriesError(Exception):
    """Base class for all fockseries errors."""


class InvalidParameter(FockSeriesError, ValueError):
    """A state, policy, or request parameter is outside its domain."""


class DegenerateAmplitude(FockSeriesError, ValueError):
    """Weight requested at n > 0 for a zero-amplitude state (w_n is exactly 0)."""


class VacuumUndefined(FockSeriesError, ArithmeticError):
    """Mandel Q is undefined for the vacuum (mean photon number 0)."""


class HardCapExceeded(FockSeriesError, RuntimeError):
    """Adaptive truncation passed its term cap; the parameters are not desk-scale."""


class InvalidTheta(FockSeriesError, ValueError):
    """Beam-splitter angle outside (0, pi/2]."""


class UnnormalizedInput(FockSeriesError, ValueError):
    """Joint amplitudes deviate from unit norm beyond the allowed tolerance."""


class DimensionTooLarge(FockSeriesError, RuntimeError):
    """Entropy evaluation refused before allocating: output dimension too large."""
