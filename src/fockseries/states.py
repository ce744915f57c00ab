"""State parameters, and the two kinds of value type the package declares.

The states are photon-added nonlinear coherent states: a coherent amplitude
of modulus |alpha|, k added photons, and the Penson-Solomon deformation
f(n) = q^(1-n) with 0 < q <= 1; q = 1 recovers ordinary photon-added coherent
states.  Every statistic depends on the amplitude only through its modulus,
so the phase is not a parameter.

Parameters and results are named tuples (``_record``) that validate in
``__new__``, which ``_replace``, copies and unpickling run too; containers
of arrays (``_ReadOnly``) are read-only and compare by identity.
"""
from __future__ import annotations

import math
from collections import namedtuple

from .errors import InvalidParameter

# cap on the number of series terms, and on k, the photons added to the state
DEFAULT_HARD_CAP = 2_000_000


def _record(name: str, fields: str) -> type:
    """namedtuple base of a value type whose ``__new__`` validates: its
    ``_make``, and so ``_replace``, builds through that ``__new__``."""
    base = namedtuple(name, fields)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base


class _ReadOnly:
    """Attributes written once into ``__dict__``; assigning or deleting one
    raises AttributeError, and instances compare by identity."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class StateSpec(_record("StateSpec", "alpha_abs k q")):
    """Parameters of one photon-added Penson-Solomon state.

    q = 0 is rejected (f diverges), and so is any q whose reciprocal
    overflows a double (q below about 5.6e-309), since ln(1/q) would be inf.
    k is at most DEFAULT_HARD_CAP, the cap on the number of series terms;
    the weights hold k as a float, which overflows past about 1e154.
    """

    __slots__ = ()

    def __new__(cls, alpha_abs: float, k: int, q: float = 1.0) -> StateSpec:
        a = float(alpha_abs)
        if not math.isfinite(a) or a < 0.0:
            raise InvalidParameter(f"alpha_abs must be a finite nonnegative real, got {alpha_abs}")
        if not isinstance(k, int) or isinstance(k, bool) or not 0 <= k <= DEFAULT_HARD_CAP:
            raise InvalidParameter(f"k must be an integer in [0, {DEFAULT_HARD_CAP}], got {k!r}")
        qf = float(q)
        if not (0.0 < qf <= 1.0) or not math.isfinite(1.0 / qf):
            raise InvalidParameter(
                f"deformation parameter q must be in (0, 1] with 1/q finite, got {q}")
        return tuple.__new__(cls, (a, k, qf))


def penson_solomon_state(alpha_abs: float, k: int, q: float) -> StateSpec:
    """Shorthand for a Penson-Solomon state spec."""
    return StateSpec(alpha_abs=alpha_abs, k=k, q=q)
