"""Fock-series weights, certified truncation, and photon-number statistics.

The state's photon distribution over |n+k> is proportional to

    w_n = |alpha|^(2n) * [f^2(n+k)]! * (n+k)! / ((n!)^2 * [f^2(n)]!),

an entire series whose terms span thousands of orders of magnitude, so all
weights are kept as natural logs and every accumulation is a log-sum-exp
pivoted at the running maximum term.  For the Penson-Solomon deformation the
deformed factorial has the closed form [f^2(m)]! = q^(-m(m-1)), giving

    ln w_n = 2n ln|alpha| + lnGamma(n+k+1) - 2 lnGamma(n+1)
             + (k(k-1) + 2nk) ln(1/q).

Successive-term ratios are available exactly (no log round-trip) as

    w_{n+1}/w_n = |alpha|^2 q^(-2k) (n+k+1)/(n+1)^2,

which is strictly decreasing in n, so once it drops below 1 the neglected
tail is bounded by the geometric sum next-term/(1 - ratio).  Adaptive
truncation stops once that bound is below the requested tolerance, keeping
two terms at least, and takes the terms in numpy chunks, bit for bit as one at
a time, with ln n! past the peak from a cached math.lgamma table.
"""
from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass

import numpy as np

from .errors import HardCapExceeded, InvalidParameter
from .states import DEFAULT_HARD_CAP, StateSpec

DEFAULT_REL_TOL = 1e-14

# cephes lgam, the log-gamma behind gammaln, for x >= 13: ln sqrt(2 pi)
# and the Stirling series in 1/x^2, 5 terms below x = 1000 and 3 from there
_LS2PI = 0.91893853320467274178
_STIRLING_5 = (8.11614167470508450300e-4, -5.95061904284301438324e-4,
               7.93650340457716943945e-4, -2.77777777730099687205e-3,
               8.33333333333331927722e-2)
_STIRLING_3 = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3,
               0.0833333333333333333333)
# largest ln m! table any caller needs: ln (k + n)! with k, n <= the cap
_LN_FACT_CAP = 2 * DEFAULT_HARD_CAP + 2
_ln_fact = np.empty(0)  # read-only; rebound when it grows, never written
_CHUNK = 1 << 16
_lgam = np.empty(0)  # math.lgamma(m + 1) for m < its size; read-only like _ln_fact


@dataclass(frozen=True)
class AdaptiveTruncation:
    """Stop once the certified relative tail bound drops below rel_tol."""

    rel_tol: float = DEFAULT_REL_TOL

    def __post_init__(self) -> None:
        tol = float(self.rel_tol)
        if not (0.0 < tol < 1.0):
            raise InvalidParameter(f"rel_tol must be in (0, 1), got {self.rel_tol}")
        object.__setattr__(self, "rel_tol", tol)


@dataclass(frozen=True)
class FixedTruncation:
    """Keep exactly n_max + 1 terms, whether or not the series has converged."""

    n_max: int

    def __post_init__(self) -> None:
        if (not isinstance(self.n_max, int) or isinstance(self.n_max, bool)
                or not 0 <= self.n_max <= DEFAULT_HARD_CAP):
            raise InvalidParameter(
                f"n_max must be an integer in [0, {DEFAULT_HARD_CAP}], got {self.n_max!r}")


TruncationPolicy = AdaptiveTruncation | FixedTruncation


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Log-weights ln w_n for n = 0..n_max plus a certified relative tail bound.

    ``tail_bound_rel`` is an upper bound on the neglected tail mass relative
    to the retained sum; it is +inf when no geometric bound exists (fixed
    cutoff with term ratio still >= 1).  ``converged`` is False whenever the
    bound fails the policy tolerance, and the flag must propagate into every
    quantity derived from this series.
    """

    spec: StateSpec
    log_weights: np.ndarray
    n_max: int
    tail_bound_rel: float
    converged: bool


@dataclass(frozen=True)
class PhotonStatistics:
    mean_n: float
    variance: float
    mandel_q: float | None  # None for the vacuum (mean 0)
    tail_bound_rel: float
    converged: bool


def _build_ln_factorials(size: int) -> np.ndarray:
    """ln m! for m < size as cephes lgam(m + 1) computes it: the log of the
    exact product m! below m = 12, Stirling's series in x = m + 1 above,
    built in chunks so the temporaries stay small next to the table."""
    table = np.empty(size)
    table[:12] = [math.log(math.factorial(m)) for m in range(min(size, 12))]
    edges = [12, *range(999, size, _CHUNK), size]  # x = 1000 opens a chunk
    for lo, hi in zip(edges, edges[1:]):
        x = np.arange(lo + 1.0, hi + 1.0)
        # math.log, not np.log: numpy's SIMD log differs from libm's on some x
        ln_x = np.fromiter(map(math.log, x.tolist()), np.float64, x.size)
        p = 1.0 / (x * x)
        poly = 0.0
        for c in _STIRLING_5 if lo < 999 else _STIRLING_3:
            poly = poly * p + c
        table[lo:hi] = (x - 0.5) * ln_x - x + _LS2PI + poly / x
    return table


def _ln_factorials(n: int) -> np.ndarray:
    """ln m! for m < n: a read-only view of one table shared by the process,
    which at least doubles when it grows, up to the largest size needed."""
    global _ln_fact
    table = _ln_fact
    if n > table.size:
        table = _build_ln_factorials(max(n, min(2 * table.size, _LN_FACT_CAP)))
        table.flags.writeable = False
        _ln_fact = table
    return table[:n]


def _lgamma_factorials(lo: int, hi: int) -> np.ndarray:
    """ln m! for lo <= m < hi as math.lgamma(m + 1) gives it: for hi <= _CHUNK
    (512 KB) a read-only view of one table shared by the process, doubling as
    it grows; past that, mapped afresh."""
    global _lgam
    if hi > _CHUNK:
        return np.array([*map(math.lgamma, range(lo + 1, hi + 1))])
    if hi > _lgam.size:
        size = max(hi, min(2 * _lgam.size, _CHUNK))
        table = np.concatenate((_lgam, [*map(math.lgamma, range(_lgam.size + 1, size + 1))]))
        table.flags.writeable = False
        _lgam = table
    return _lgam[lo:hi]


def _logsumexp(a: np.ndarray) -> float:
    """ln sum exp(a) of a finite 1-D array in the reference logsumexp's
    operation order: the maximal entries leave the sum as log(count)."""
    a_max = a.max()
    at_max = a == a_max
    count = np.float64(np.count_nonzero(at_max))
    s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum()
    if s != 0.0:
        s = s / count
    return float(np.log1p(s) + np.log(count) + a_max)


def _ln_w(n, k: int, ln_a: float, ln_inv_q: float, ln_fact_nk, ln_fact_n):
    """ln w_n from ln (n+k)! and ln n!, the same bits for an int n or an array.

    The adaptive bulk and fixed cutoffs slice both factorials from the
    _ln_factorials table, equal to gammaln bit for bit.  The adaptive tail
    (through _lgamma_factorials) and log_weight take math.lgamma, which
    differs from gammaln in the last bit on about half the integers, so moving
    either range to the other source would change output bytes."""
    return (n * (2.0 * ln_a) + ln_fact_nk - 2.0 * ln_fact_n
            + (k * (k - 1) + 2.0 * k * n) * ln_inv_q)


def log_weight(spec: StateSpec, n: int) -> float:
    """ln w_n of the normalization series, via log-gamma and the closed-form
    deformed factorial (never by repeated multiplication)."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise InvalidParameter(f"n must be a nonnegative integer, got {n!r}")
    n = int(n)
    if spec.alpha_abs == 0.0 and n > 0:
        raise InvalidParameter(
            "alpha_abs = 0: w_n vanishes for every n > 0; only n = 0 has a finite log-weight")
    # the |alpha| term is exactly 0 at n = 0, so any finite ln|alpha| serves
    ln_a = math.log(spec.alpha_abs) if spec.alpha_abs > 0.0 else 0.0
    k = spec.k
    return _ln_w(n, k, ln_a, math.log(1.0 / spec.q), math.lgamma(n + k + 1), math.lgamma(n + 1))


def _ratio(c: float, k: int, n):
    """Exact successive-term ratio w_{n+1}/w_n = c (n+k+1)/(n+1)^2, where
    c = |alpha|^2 q^(-2k) is _ratio_constant(spec), for an int n or an array."""
    return c * (n + (k + 1.0)) / (n + 1.0) ** 2


def _ratio_constant(spec: StateSpec) -> float:
    # for |alpha| > 0: from logs where the direct form over- or underflows
    # (float ** raises) or |alpha|^2 is subnormal, which would cost bits of c;
    # inf only if c itself overflows.  Callers test isfinite.
    try:
        c = spec.alpha_abs ** 2 * spec.q ** (-2 * spec.k)
    except OverflowError:
        c = math.inf
    if 0.0 < c < math.inf and spec.alpha_abs ** 2 >= sys.float_info.min:
        return c
    with suppress(OverflowError):
        return math.exp(2.0 * math.log(spec.alpha_abs) + 2 * spec.k * math.log(1.0 / spec.q))
    return math.inf


def _tail_bound(term, r, scaled_sum):
    """Geometric tail bound w_next/(1-r) over the retained sum, scaled alike."""
    return term * r / (1.0 - r) / scaled_sum


def _first_subunit_ratio_index(c: float, k: int) -> int:
    """Smallest n with _ratio(c, k, n) < 1 (0 if already below at n=0)."""
    # (n+1)^2 = c (n+k+1) crosses at n = (c - 2 + sqrt(c^2 + 4ck))/2, whose
    # floor never passes the first subunit index, so the search only steps up
    n = max(0, int((c - 2.0 + math.sqrt(c * (c + 4.0 * k))) / 2.0))
    while _ratio(c, k, n) >= 1.0:
        n += 1
    return n


def truncate(spec: StateSpec, policy: TruncationPolicy) -> TruncatedSeries:
    """Evaluate log-weights under the given truncation policy.

    Adaptive: accumulate until the term ratio r = w_{n+1}/w_n is below 1 and
    the geometric tail bound w_{n+1}/(1-r) is at most rel_tol times the
    retained sum (valid since the ratio decreases monotonically).  Raises
    HardCapExceeded if the cap is passed first.

    Fixed: store exactly n_max + 1 weights; the series counts as converged
    only if the same certified bound happens to hold at n_max against
    DEFAULT_REL_TOL, otherwise the tail bound is reported as +inf (ratio
    still >= 1) or as the failing finite bound.
    """
    if not isinstance(spec, StateSpec):
        raise InvalidParameter("spec must be a StateSpec")
    if spec.alpha_abs == 0.0:
        # every n >= 1 weight is exactly zero; single-term series, no tail
        return TruncatedSeries(spec=spec, log_weights=np.array([log_weight(spec, 0)]),
                               n_max=0, tail_bound_rel=0.0, converged=True)
    ln_a, ln_inv_q, c = math.log(spec.alpha_abs), math.log(1.0 / spec.q), _ratio_constant(spec)
    if isinstance(policy, AdaptiveTruncation):
        return _truncate_adaptive(spec, policy, ln_a, ln_inv_q, c)
    if isinstance(policy, FixedTruncation):
        return _truncate_fixed(spec, policy, ln_a, ln_inv_q, c)
    raise InvalidParameter(f"unknown truncation policy {policy!r}")


def _point(spec: StateSpec) -> str:
    return f"q={spec.q!r}, k={spec.k}, |alpha|={spec.alpha_abs!r}"


def _truncate_adaptive(spec: StateSpec, policy: AdaptiveTruncation,
                       ln_a: float, ln_inv_q: float, c: float) -> TruncatedSeries:
    k = spec.k
    # ratio at the cap is exact and overflow-safe; if it is still >= 1 there,
    # the peak lies past the cap and no stopping test can ever pass
    if not math.isfinite(c) or _ratio(c, k, DEFAULT_HARD_CAP) >= 1.0:
        raise HardCapExceeded(
            f"{_point(spec)}: term ratio stays >= 1 at hard_cap={DEFAULT_HARD_CAP}; "
            "the series peak is beyond desk scale")
    n_peak = _first_subunit_ratio_index(c, k)

    # Every n < n_peak has ratio >= 1, so no stop there: the first chunk weighs
    # that bulk in its _ln_w pass (factorials from the ln m! table) and sums it
    # vectorized.  From n_peak on every ratio is below 1, so the stop is the
    # first bound <= rel_tol at n >= 1 (a lone term has no spread: it reads as
    # the vacuum).  Chunks give one-term-at-a-time IEEE values: math.lgamma for
    # the tail's ln n! and ln (n+k)! (_lgamma_factorials), math.exp (not
    # np.exp), the scalar step through the last new maximum (it rescales) and a
    # seeded cumsum.  The first chunk covers s z + z^2/6 past the peak (width
    # s, Poisson-like skew, z^2 = 2 ln(1/rel_tol)); then x2.
    tail, lo, n0, m, scaled_sum = [], 0, n_peak, -math.inf, 0.0
    z2 = -2.0 * math.log(policy.rel_tol)  # 1/rel_tol overflows for a subnormal rel_tol
    width = 4 + int(math.sqrt(z2 / (2.0 / (n_peak + 1) - 1.0 / (n_peak + k + 1))) + z2 / 6.0)
    while n0 <= DEFAULT_HARD_CAP:
        w = min(width, DEFAULT_HARD_CAP + 1 - n0)
        lf_nk, lf_n = _lgamma_factorials(n0 + k, n0 + w + k), _lgamma_factorials(n0, n0 + w)
        if lo < n0:
            lf = _ln_factorials(k + n_peak)
            lf_nk, lf_n = np.concatenate((lf[k:], lf_nk)), np.concatenate((lf[:n_peak], lf_n))
        ns = np.arange(lo, n0 + w, dtype=np.float64)
        lws = _ln_w(ns, k, ln_a, ln_inv_q, lf_nk, lf_n)
        if lo < n0:
            m = float(lws[:n_peak].max())
            scaled_sum = float(np.exp(lws[:n_peak] - m).sum())
        lw, r = lws[n0 - lo:], _ratio(c, k, ns[n0 - lo:])
        j = int(lw.argmax())
        j = j + 1 if lw[j] > m else 0  # terms through the last new maximum
        bounds = np.empty(w)
        for i in range(j):
            x, ri = lw.item(i), r.item(i)
            if x > m:
                scaled_sum *= math.exp(m - x)
                m = x
            e = math.exp(x - m)
            scaled_sum += e
            bounds[i] = _tail_bound(e, ri, scaled_sum)
        es = np.array([scaled_sum, *map(math.exp, (lw[j:] - m).tolist())])
        sums = es.cumsum()
        bounds[j:] = _tail_bound(es[1:], r[j:], sums[1:])
        first = int(n0 == 0)
        i = first + int((bounds[first:] <= policy.rel_tol).argmax())
        if bounds[i] <= policy.rel_tol:
            return TruncatedSeries(spec=spec, log_weights=np.concatenate((*tail, lws[:n0 - lo + i + 1])),
                                   n_max=n0 + i, tail_bound_rel=float(bounds[i]), converged=True)
        tail.append(lws)
        scaled_sum, lo, n0, width = float(sums[-1]), n0 + w, n0 + w, min(2 * width, _CHUNK)
    raise HardCapExceeded(
        f"{_point(spec)}: adaptive truncation passed hard_cap={DEFAULT_HARD_CAP} "
        f"without certifying rel_tol={policy.rel_tol}")


def _truncate_fixed(spec: StateSpec, policy: FixedTruncation,
                    ln_a: float, ln_inv_q: float, c: float) -> TruncatedSeries:
    n, k = policy.n_max + 1, spec.k
    lf = _ln_factorials(k + n)
    lws = _ln_w(np.arange(n, dtype=np.float64), k, ln_a, ln_inv_q, lf[k:], lf[:n])
    r = _ratio(c, k, policy.n_max)
    if r >= 1.0:
        # no geometric bound exists; the neglected tail may dominate
        return TruncatedSeries(spec=spec, log_weights=lws, n_max=policy.n_max,
                               tail_bound_rel=math.inf, converged=False)
    m = float(lws.max())
    bound = _tail_bound(math.exp(float(lws[-1]) - m), r, float(np.exp(lws - m).sum()))
    return TruncatedSeries(spec=spec, log_weights=lws, n_max=policy.n_max,
                           tail_bound_rel=bound, converged=bound <= DEFAULT_REL_TOL)


def normalization_log(series: TruncatedSeries) -> float:
    """ln N = -(1/2) ln sum_n w_n over the retained weights."""
    return -0.5 * _logsumexp(series.log_weights)


def photon_distribution(series: TruncatedSeries) -> list[tuple[int, float]]:
    """Retained photon-number distribution [(k, P(k)), (k+1, P(k+1)), ...].

    Support starts at photon number k; probabilities are normalized over the
    retained terms and therefore sum to 1 up to rounding (the true
    distribution differs by at most tail_bound_rel).
    """
    lws = series.log_weights
    z = np.exp(lws - lws.max())
    p = z / z.sum()
    return [(n + series.spec.k, float(pn)) for n, pn in enumerate(p)]


def photon_statistics(series: TruncatedSeries) -> PhotonStatistics:
    """Mean, variance, and Mandel Q of the retained distribution.

    Two-pass evaluation: the mean first, then the variance in centered form
    sum w_n (n+k-mu)^2 / sum w_n, which avoids the cancellation of
    <n^2> - <n>^2 when the mean is large.  Q = variance/mean - 1, and None
    for the vacuum, whose mean is 0.
    """
    lws = series.log_weights
    z = np.exp(lws - lws.max())
    ns = np.arange(lws.size, dtype=np.float64) + series.spec.k
    total = z.sum()
    mean = float((z * ns).sum() / total)
    variance = float((z * (ns - mean) ** 2).sum() / total)
    return PhotonStatistics(mean_n=mean,
                            variance=variance,
                            mandel_q=variance / mean - 1.0 if mean else None,
                            tail_bound_rel=series.tail_bound_rel,
                            converged=series.converged)
