"""Independent extended-precision reference (mpmath), in closed form.

The weights w_n ∝ x^n (n+k)!/(n!)^2, with x = |alpha|^2 q^(-2k), make every
Penson-Solomon state the photon-added coherent state a†^k|beta> at beta^2 = x
(Agarwal & Tara, Phys. Rev. A 43, 492 (1991)).  Both observables are then
finite sums in k+1 dimensions: no Fock series is summed and nothing is
truncated, so ``tail_bound_rel`` is 0.  With m the photon number:

- Q: N_j = <beta|a^p a†^p|beta> = p! L_p(-x) = sum_i C(p,i) p!/i! x^i at
  p = k + j gives <m+1> = N_1/N_0 and <(m+1)(m+2)> = N_2/N_0.
- S: the splitter maps a†^k|beta>|0> to sum_j u_j a†^j|t beta> b†^(k-j)|r beta>
  with u_j = C(k,j) t^j r^(k-j).  The normal-ordered Gram matrices
  G(g)_{jj'} = <g|a^j a†^j'|g> = sum_i i! C(j,i) C(j',i) g^(j+j'-2i) give
  Phi = G(t beta) and X = G(r beta), the reduced state of mode a is
  R_{jj'} = u_j u_j' X_{k-j',k-j} in the basis a†^j|t beta>, and
  S = 1 - Tr((R Phi)^2) / Tr(R Phi)^2.

Every term is nonnegative and the factors e^(-x) cancel from each ratio.
None of this shares a formula with the double-precision modules, so any
disagreement with them localizes the bug.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .entangle import BeamSplitterSetting, EntanglementResult
from .errors import HardCapExceeded, InvalidParameter
from .series import PhotonStatistics, _point
from .states import StateSpec


@dataclass(frozen=True)
class PrecisionConfig:
    """mantissa_bits of working precision."""

    mantissa_bits: int = 256

    def __post_init__(self) -> None:
        if not isinstance(self.mantissa_bits, int) or self.mantissa_bits < 128:
            raise InvalidParameter(f"mantissa_bits must be an integer >= 128, got {self.mantissa_bits!r}")


def _beta(spec: StateSpec) -> mp.mpf:
    """beta = |alpha| q^(-k), from the exact binary values of |alpha| and q."""
    return mp.mpf(spec.alpha_abs) * mp.mpf(spec.q) ** -spec.k


def _laguerre_norm(p: int, x: mp.mpf) -> mp.mpf:
    """<beta|a^p a†^p|beta> e^x = p! L_p(-x) at x = beta^2."""
    return mp.fsum(math.comb(p, i) * (math.factorial(p) // math.factorial(i)) * x ** i
                   for i in range(p + 1))


def _gram(g: mp.mpf, dim: int) -> mp.matrix:
    """<g|a^j a†^j'|g> e^(g^2) for j, j' < dim at a real amplitude g, normal ordered."""
    return mp.matrix([[mp.fsum(math.factorial(i) * math.comb(j, i) * math.comb(jp, i)
                               * g ** (j + jp - 2 * i) for i in range(min(j, jp) + 1))
                       for jp in range(dim)] for j in range(dim)])


def oracle_statistics(spec: StateSpec,
                      cfg: PrecisionConfig = PrecisionConfig()) -> PhotonStatistics:
    """Mean, variance, and Mandel Q from the Laguerre ratios.

    The returned fields hold mpmath values (callers wanting float64 should
    convert).  mandel_q is None for the vacuum, whose mean photon number is 0.
    """
    with mp.workprec(cfg.mantissa_bits):
        x = _beta(spec) ** 2
        n0, n1, n2 = (_laguerre_norm(spec.k + j, x) for j in range(3))
        m1, m2 = n1 / n0, n2 / n0  # <m+1> and <(m+1)(m+2)> = <(m+1)^2> + <m+1>
        mean = m1 - 1
        variance = m2 - m1 - m1 ** 2
        mandel = None if mean == 0 else variance / mean - 1
    return PhotonStatistics(mean_n=mean, variance=variance, mandel_q=mandel,
                            tail_bound_rel=0.0, converged=True)


def oracle_entropy(spec: StateSpec,
                   setting: BeamSplitterSetting = BeamSplitterSetting(),
                   cfg: PrecisionConfig = PrecisionConfig()) -> EntanglementResult:
    """Linear entropy of mode a after the splitter, from the two Gram matrices."""
    with mp.workprec(cfg.mantissa_bits):
        k, beta = spec.k, _beta(spec)
        t = mp.cos(mp.mpf(setting.theta))
        r = mp.sin(mp.mpf(setting.theta))
        u = [math.comb(k, j) * t ** j * r ** (k - j) for j in range(k + 1)]
        phi, chi = _gram(t * beta, k + 1), _gram(r * beta, k + 1)
        r_phi = mp.matrix([[u[j] * u[jp] * chi[k - jp, k - j] for jp in range(k + 1)]
                           for j in range(k + 1)]) * phi
        r_phi2 = r_phi * r_phi
        norm = mp.fsum(r_phi[j, j] for j in range(k + 1))
        purity = mp.fsum(r_phi2[j, j] for j in range(k + 1)) / norm ** 2
        entropy = 1 - purity
    return EntanglementResult(purity=purity, linear_entropy=entropy,
                              theta=setting.theta, converged=True)


_TERM_CAP = 5_000_000


# bench/run.py's oracle observer counts terms through this; keep the signature.
# It walks the weight recurrence w_{n+1} = w_n x (n+k+1)/(n+1)^2 to the index
# where the next term falls below 1e-40 of the running sum, storing no weight.
def _oracle_terms(spec: StateSpec, cfg: PrecisionConfig) -> tuple[int, float]:
    if spec.alpha_abs == 0.0:
        return 0, 0.0
    with mp.workprec(cfg.mantissa_bits):
        q, k = mp.mpf(spec.q), spec.k
        w = q ** (-k * (k - 1)) * mp.factorial(k)
        c = mp.mpf(spec.alpha_abs) ** 2 * q ** (-2 * k)
        floor = mp.mpf(1e-40)
        total = mp.mpf(0)
        for n in range(_TERM_CAP + 1):
            total += w
            ratio = c * (n + k + 1) / mp.mpf((n + 1) * (n + 1))
            w *= ratio
            if ratio < 1 and w < floor * total:
                return n, float(w / (1 - ratio) / total)
    raise HardCapExceeded(f"{_point(spec)}: oracle series passed {_TERM_CAP} terms")
