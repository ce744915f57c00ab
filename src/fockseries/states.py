"""State parameters.

The states are photon-added nonlinear coherent states: a coherent amplitude
of modulus |alpha|, k added photons, and the Penson-Solomon deformation
f(n) = q^(1-n) with 0 < q <= 1; q = 1 recovers ordinary photon-added coherent
states.  Every statistic depends on the amplitude only through its modulus,
so the phase is not a parameter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter

# cap on the number of series terms, and on k, the photons added to the state
DEFAULT_HARD_CAP = 2_000_000


@dataclass(frozen=True)
class StateSpec:
    """Parameters of one photon-added Penson-Solomon state.

    q = 0 is rejected (f diverges), and so is any q whose reciprocal
    overflows a double (q below about 5.6e-309), since ln(1/q) would be inf.
    k is at most DEFAULT_HARD_CAP, the cap on the number of series terms;
    the weights hold k as a float, which overflows past about 1e154.
    """

    alpha_abs: float
    k: int
    q: float = 1.0

    def __post_init__(self) -> None:
        a = float(self.alpha_abs)
        if not math.isfinite(a) or a < 0.0:
            raise InvalidParameter(f"alpha_abs must be a finite nonnegative real, got {self.alpha_abs}")
        if (not isinstance(self.k, int) or isinstance(self.k, bool)
                or not 0 <= self.k <= DEFAULT_HARD_CAP):
            raise InvalidParameter(
                f"k must be an integer in [0, {DEFAULT_HARD_CAP}], got {self.k!r}")
        q = float(self.q)
        if not (0.0 < q <= 1.0) or not math.isfinite(1.0 / q):
            raise InvalidParameter(
                f"deformation parameter q must be in (0, 1] with 1/q finite, got {self.q}")
        object.__setattr__(self, "alpha_abs", a)
        object.__setattr__(self, "q", q)


def penson_solomon_state(alpha_abs: float, k: int, q: float) -> StateSpec:
    """Shorthand for a Penson-Solomon state spec."""
    return StateSpec(alpha_abs=alpha_abs, k=k, q=q)
