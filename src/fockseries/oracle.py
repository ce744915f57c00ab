"""Independent extended-precision reference pipeline (mpmath).

Deliberately avoids the main pipeline's two approximation sources (log-gamma
weights and log-sum-exp accumulation) by building the weights with the exact
multiplicative recurrence

    w_0 = q^(-k(k-1)) k!,    w_{n+1} = w_n * |alpha|^2 q^(-2k) (n+k+1)/(n+1)^2

in 256-bit (default) arithmetic and summing directly, so any disagreement
with the double-precision modules localizes the bug.
"""
from __future__ import annotations

from dataclasses import dataclass

import mpmath as mp

from .entangle import BeamSplitterSetting, EntanglementResult
from .errors import DimensionTooLarge, HardCapExceeded, InvalidParameter
from .series import PhotonStatistics, _point
from .states import StateSpec

ORACLE_DIM_CAP = 400  # extended-precision purity is O(D^3); larger D is not desk-scale
_TERM_CAP = 5_000_000
# summation stops once the next term drops below this fraction of the running
# sum (and the ratio is below 1)
TERM_FLOOR_REL = 1e-40


@dataclass(frozen=True)
class PrecisionConfig:
    """mantissa_bits of working precision."""

    mantissa_bits: int = 256

    def __post_init__(self) -> None:
        if not isinstance(self.mantissa_bits, int) or self.mantissa_bits < 128:
            raise InvalidParameter(f"mantissa_bits must be an integer >= 128, got {self.mantissa_bits!r}")


def _series_terms(spec: StateSpec) -> tuple[list, mp.mpf, float]:
    """Weights w_0..w_nmax and their sum, by exact recurrence at the working
    precision the caller holds open with mp.workprec.

    Returns (weights, total, tail_bound_rel).
    """
    q = mp.mpf(spec.q)
    a2 = mp.mpf(spec.alpha_abs) ** 2
    k = spec.k
    w = q ** (-k * (k - 1)) * mp.factorial(k)
    if spec.alpha_abs == 0.0:
        return [w], w, 0.0
    c = a2 * q ** (-2 * k)
    floor = mp.mpf(TERM_FLOOR_REL)
    weights = []
    total = mp.mpf(0)
    n = 0
    while True:
        weights.append(w)
        total += w
        ratio = c * (n + k + 1) / mp.mpf((n + 1) * (n + 1))
        w_next = w * ratio
        if ratio < 1 and w_next < floor * total:
            tail = float(w_next / (1 - ratio) / total)
            return weights, total, tail
        w = w_next
        n += 1
        if n > _TERM_CAP:
            raise HardCapExceeded(f"{_point(spec)}: oracle series passed {_TERM_CAP} terms")


def oracle_statistics(spec: StateSpec,
                      cfg: PrecisionConfig = PrecisionConfig()) -> PhotonStatistics:
    """Mean, variance, and Mandel Q by direct extended-precision summation.

    The returned fields hold mpmath values (callers wanting float64 should
    convert); at 256 bits the plain <n^2> - <n>^2 form is safe.  mandel_q is
    None for the vacuum, whose mean photon number is 0.
    """
    with mp.workprec(cfg.mantissa_bits):
        weights, total, tail = _series_terms(spec)
        k = spec.k
        s1 = mp.fsum(w * (n + k) for n, w in enumerate(weights))
        s2 = mp.fsum(w * (n + k) ** 2 for n, w in enumerate(weights))
        mean = s1 / total
        variance = s2 / total - mean ** 2
        mandel = None if mean == 0 else variance / mean - 1
    return PhotonStatistics(mean_n=mean, variance=variance, mandel_q=mandel,
                            tail_bound_rel=tail, converged=True)


def oracle_entropy(spec: StateSpec,
                   setting: BeamSplitterSetting = BeamSplitterSetting(),
                   cfg: PrecisionConfig = PrecisionConfig()) -> EntanglementResult:
    """Linear entropy by the same splitter expansion, in extended precision."""
    with mp.workprec(cfg.mantissa_bits):
        weights, total, tail = _series_terms(spec)
        k = spec.k
        dim = len(weights) + k
        if dim > ORACLE_DIM_CAP:
            raise DimensionTooLarge(
                f"{_point(spec)}: output dimension {dim} exceeds the oracle cap {ORACLE_DIM_CAP}")
        amps = [mp.sqrt(w / total) for w in weights]  # c_m, m = n + k
        t = mp.cos(mp.mpf(setting.theta))
        r = mp.sin(mp.mpf(setting.theta))
        t_pow = [mp.mpf(1)]
        r_pow = [mp.mpf(1)]
        for _ in range(dim - 1):
            t_pow.append(t_pow[-1] * t)
            r_pow.append(r_pow[-1] * r)
        zero = mp.mpf(0)
        rows = [[zero] * dim for _ in range(dim)]
        for m in range(k, dim):
            c_m = amps[m - k]
            for j in range(m + 1):
                rows[j][m - j] = c_m * mp.sqrt(mp.binomial(m, j)) * t_pow[j] * r_pow[m - j]
        purity = mp.mpf(0)
        for j in range(dim):
            row_j = rows[j]
            rho = mp.fdot(row_j, row_j)
            purity += rho * rho
            for jp in range(j + 1, dim):
                rho = mp.fdot(row_j, rows[jp])
                purity += 2 * rho * rho
        entropy = 1 - purity
    return EntanglementResult(purity=purity, linear_entropy=entropy,
                              theta=setting.theta, converged=True)


# bench/run.py's oracle observer counts terms through this; keep the signature
def _oracle_terms(spec: StateSpec, cfg: PrecisionConfig) -> tuple[int, float]:
    with mp.workprec(cfg.mantissa_bits):
        weights, _, tail = _series_terms(spec)
    return len(weights) - 1, tail
