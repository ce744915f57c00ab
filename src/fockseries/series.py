"""Fock-series weights, certified truncation, and photon-number statistics.

The state's photon distribution over |n+k> is proportional to

    w_n = |alpha|^(2n) * [f^2(n+k)]! * (n+k)! / ((n!)^2 * [f^2(n)]!),

an entire series whose terms span thousands of orders of magnitude, so all
weights are kept as natural logs.  For the Penson-Solomon deformation the
deformed factorial has the closed form [f^2(m)]! = q^(-m(m-1)), giving

    ln w_n = 2n ln|alpha| + lnGamma(n+k+1) - 2 lnGamma(n+1)
             + (k(k-1) + 2nk) ln(1/q).

Successive-term ratios are available exactly (no log round-trip) as

    w_{n+1}/w_n = c (n+k+1)/(n+1)^2,   c = |alpha|^2 q^(-2k),

which is strictly decreasing in n, so once it drops below 1 the neglected
tail is bounded by the geometric sum next-term/(1 - ratio).  A series is
evaluated as ln(w_n/w_a) for an anchor a at its largest term: the sum of the
log-ratios ln c + ln(n+k+1) - 2 ln(n+1), outward from a in both directions,
so no large log is rounded before the ratios are taken; a series keeps these
sums and a, and its log_weights add ln w_a when read.  Adaptive truncation
stops once the bound is below the requested tolerance, keeping two terms at
least; a fixed cutoff reports the bound at its n_max.  Both certify from
scalars: for k <= 128 against the whole sum e^c k! L_k(-c) (the state is
a†^k|beta>), past it by one walk that steps w_n/w_a right from the anchor
onto the sum of the terms left of it.  One scalar pass around the anchor
also gives an unconverged series its moments.  A series builds its sums,
the only array, when they are first read, and only that imports numpy.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Callable, Iterator
from contextlib import suppress
from functools import cached_property
from itertools import count
from numbers import Integral

from .errors import HardCapExceeded, InvalidParameter
from .states import DEFAULT_HARD_CAP, StateSpec, _ReadOnly, _record

DEFAULT_REL_TOL = 1e-14
# largest k whose certificate takes the closed-form sum (2-vCPU x86 host, q = 1,
# |alpha| in [0.5, 30]): its O(k) Laguerre walk takes 0.06, 0.3, 30 and 600-990
# ms at k = 200, 1e3, 1e5 and 2e6, the scalar walk past it 0.006 to 0.9 ms, and
# math.lgamma's rounding at large arguments leaves its bound 3e-14 to 2.6e-6 off
# a 120-bit sum, the scalar walk's 3.2e-15 at most
_CLOSED_FORM_MAX_K = 128


class AdaptiveTruncation(_record("AdaptiveTruncation", "rel_tol")):
    """Stop once the certified relative tail bound drops below rel_tol."""

    __slots__ = ()

    def __new__(cls, rel_tol: float = DEFAULT_REL_TOL) -> AdaptiveTruncation:
        tol = float(rel_tol)
        if not (0.0 < tol < 1.0):
            raise InvalidParameter(f"rel_tol must be in (0, 1), got {rel_tol}")
        return tuple.__new__(cls, (tol,))


class FixedTruncation(_record("FixedTruncation", "n_max")):
    """Keep exactly n_max + 1 terms; converged only if the tail bound is <= rel_tol."""

    __slots__ = ()
    rel_tol = DEFAULT_REL_TOL

    def __new__(cls, n_max: int) -> FixedTruncation:
        if (not isinstance(n_max, int) or isinstance(n_max, bool)
                or not 0 <= n_max <= DEFAULT_HARD_CAP):
            raise InvalidParameter(
                f"n_max must be an integer in [0, {DEFAULT_HARD_CAP}], got {n_max!r}")
        return tuple.__new__(cls, (n_max,))


TruncationPolicy = AdaptiveTruncation | FixedTruncation


class TruncatedSeries(_ReadOnly):
    """ln(w_n/w_anchor) for n = 0..n_max, 0.0 at the largest retained term
    ``anchor`` (``log_weights`` adds ln w_anchor), and a certified relative
    tail bound.

    ``tail_bound_rel`` is an upper bound on the neglected tail mass relative
    to the retained sum; it is +inf when no geometric bound exists (fixed
    cutoff with term ratio still >= 1).  ``converged`` is False whenever the
    bound fails the policy tolerance, and the sweep copies it into every row.
    A series from ``truncate`` builds its weights when they are first read.
    Attributes are read-only and equality is identity; a changed series is
    built through the constructor.
    """

    def __init__(self, spec: StateSpec, rel_log_weights: np.ndarray, anchor: int,
                 tail_bound_rel: float, converged: bool) -> None:
        self.__dict__.update(spec=spec, rel_log_weights=rel_log_weights, anchor=anchor,
                             n_max=rel_log_weights.size - 1, tail_bound_rel=tail_bound_rel,
                             converged=converged)

    @cached_property
    def rel_log_weights(self) -> np.ndarray:  # read only where the constructor set none
        return _log_ratio_sums(self.spec.k, self._ln_c, self.anchor, self.n_max + 1)

    @property
    def log_weights(self) -> np.ndarray:
        return self.rel_log_weights + _log_weight(self.spec, self.anchor)


def _deferred_series(spec: StateSpec, anchor: int, n_max: int, bound: float,
                     converged: bool, ln_c: float) -> TruncatedSeries:
    """A series whose rel_log_weights are built when first read, from ln c."""
    series = object.__new__(TruncatedSeries)
    series.__dict__.update(spec=spec, anchor=anchor, n_max=n_max, tail_bound_rel=bound,
                           converged=converged, _ln_c=ln_c)
    return series


class PhotonStatistics(_record("PhotonStatistics", "mean_n variance mandel_q")):
    """Mean and variance of the photon number, and Mandel Q (None for the vacuum, mean 0)."""

    __slots__ = ()


def _logsumexp(a: np.ndarray) -> float:
    """ln sum exp(a) of a finite 1-D array in the reference logsumexp's
    operation order: the maximal entries leave the sum as log(count)."""
    import numpy as np
    a_max = a.max()
    at_max = a == a_max
    count = np.float64(np.count_nonzero(at_max))
    s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum()
    if s != 0.0:
        s = s / count
    return float(np.log1p(s) + np.log(count) + a_max)


def log_weight(spec: StateSpec, n: int) -> float:
    """ln w_n of the normalization series, via log-gamma and the closed-form
    deformed factorial (never by repeated multiplication)."""
    if not isinstance(n, Integral) or isinstance(n, bool) or n < 0:
        raise InvalidParameter(f"n must be a nonnegative integer, got {n!r}")
    if spec.alpha_abs == 0.0 and n > 0:
        raise InvalidParameter(
            "alpha_abs = 0: w_n vanishes for every n > 0; only n = 0 has a finite log-weight")
    return _log_weight(spec, int(n))


def _log_weight(spec: StateSpec, n: int) -> float:
    """log_weight for an int n that it would accept."""
    # the |alpha| term is exactly 0 at n = 0, so any finite ln|alpha| serves
    ln_a = math.log(spec.alpha_abs) if spec.alpha_abs > 0.0 else 0.0
    k = spec.k
    return (n * (2.0 * ln_a) + math.lgamma(n + k + 1) - 2.0 * math.lgamma(n + 1)
            + (k * (k - 1) + 2.0 * k * n) * math.log(1.0 / spec.q))


def _ratio(c: float, k: int, n):
    """Exact successive-term ratio w_{n+1}/w_n = c (n+k+1)/(n+1)^2, where
    c = |alpha|^2 q^(-2k) is _ratio_constant(spec), for an int n or an array."""
    return c * (n + (k + 1.0)) / (n + 1.0) ** 2


def _ratio_constant(spec: StateSpec) -> float:
    # 0 at |alpha| = 0; else from logs where the direct form over- or underflows
    # (float ** raises) or |alpha|^2 is subnormal, which would cost bits of c;
    # inf only if c itself overflows.  Callers test isfinite.
    if spec.alpha_abs == 0.0:
        return 0.0
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


def _peak_width(z2: float, n_peak: int, k: int) -> int:
    """Terms past the peak n_peak of w_n ∝ c^n (n+k)!/(n!)^2 that cover
    s z + z^2/6, with s the peak's width, Poisson-like skew and z^2 = z2."""
    return 4 + int(math.sqrt(z2 / (2.0 / (n_peak + 1) - 1.0 / (n_peak + k + 1))) + z2 / 6.0)


def truncate(spec: StateSpec, policy: TruncationPolicy) -> TruncatedSeries:
    """Evaluate log-weights under the given truncation policy.

    Adaptive: stop once the term ratio r = w_{n+1}/w_n is below 1 and the
    geometric tail bound w_{n+1}/(1-r) is at most rel_tol times the retained
    sum (valid since the ratio decreases monotonically).  Raises
    HardCapExceeded if the cap is passed first.

    Fixed: keep exactly n_max + 1 terms; the series counts as converged
    only if the same certified bound happens to hold at n_max against
    policy.rel_tol, otherwise the tail bound is reported as +inf (ratio
    still >= 1) or as the failing finite bound.
    """
    if not isinstance(spec, StateSpec):
        raise InvalidParameter("spec must be a StateSpec")
    if spec.alpha_abs == 0.0:
        # every n >= 1 weight is exactly zero: one term, ln(w_0/w_0) = 0.0, no tail
        return _deferred_series(spec, 0, 0, 0.0, True, 0.0)
    c = _ratio_constant(spec)
    # the log form, whose two terms can cancel, only where c is not a normal double
    ln_c = (math.log(c) if sys.float_info.min <= c < math.inf
            else 2.0 * math.log(spec.alpha_abs) + 2 * spec.k * math.log(1.0 / spec.q))
    if isinstance(policy, AdaptiveTruncation):
        return _truncate_adaptive(spec, policy, ln_c, c)
    if isinstance(policy, FixedTruncation):
        return _truncate_fixed(spec, policy, ln_c, c)
    raise InvalidParameter(f"unknown truncation policy {policy!r}")


def _point(spec: StateSpec) -> str:
    return f"q={spec.q!r}, k={spec.k}, |alpha|={spec.alpha_abs!r}"


def _log_ratio_sums(k: int, ln_c: float, anchor: int, size: int) -> np.ndarray:
    """ln(w_n/w_anchor) for n < size: the log-ratios ln c + ln(n+k+1) - 2 ln(n+1)
    summed outward from the anchor.  A term's value depends only on the terms
    between it and the anchor, not on size."""
    import numpy as np
    log_ratios = ln_c + np.log(np.arange(k + 1.0, k + size))
    log_ratios -= 2.0 * np.log(np.arange(1.0, size))
    # summed into a second buffer: numpy copies the operands of an in-place accumulate
    out = np.empty(size)
    np.add.accumulate(log_ratios[anchor:], out=out[anchor + 1:])
    if anchor:  # [anchor-1::-1] would wrap to the whole array at anchor = 0
        np.add.accumulate(log_ratios[anchor - 1::-1], out=out[anchor - 1::-1])
        np.negative(out[:anchor], out=out[:anchor])
    out[anchor] = 0.0
    return out


def _truncate_adaptive(spec: StateSpec, policy: AdaptiveTruncation,
                       ln_c: float, c: float) -> TruncatedSeries:
    k = spec.k
    # ratio at the cap is exact and overflow-safe; if it is still >= 1 there,
    # the peak lies past the cap and no stopping test can ever pass
    if not math.isfinite(c) or _ratio(c, k, DEFAULT_HARD_CAP) >= 1.0:
        raise HardCapExceeded(
            f"{_point(spec)}: term ratio stays >= 1 at hard_cap={DEFAULT_HARD_CAP}; "
            "the series peak is beyond desk scale")
    n_peak = _first_subunit_ratio_index(c, k)

    # Every n < n_peak has ratio >= 1, so no stop there; from n_peak on every
    # ratio is below 1, so the stop is the first bound <= rel_tol at n >= 1 (a
    # lone term has no spread: it reads as the vacuum).  For k <= 128 a window
    # reaching _peak_width at z^2 = 2 ln(1/rel_tol) past the peak doubles until
    # it holds the stop; past that the walk steps there from the peak.
    first = max(n_peak, 1)
    if k <= _CLOSED_FORM_MAX_K:
        width = _peak_width(-2.0 * math.log(policy.rel_tol), n_peak, k)  # 1/rel_tol can overflow
        n_max, bound = _closed_form_stop(k, ln_c, c, n_peak, first, width, policy.rel_tol)
    else:
        n_max, bound = _walk_stop(c, k, n_peak, first, DEFAULT_HARD_CAP, policy.rel_tol)
    if n_max <= DEFAULT_HARD_CAP and bound <= policy.rel_tol:
        return _deferred_series(spec, n_peak, n_max, bound, True, ln_c)
    raise HardCapExceeded(
        f"{_point(spec)}: adaptive truncation passed hard_cap={DEFAULT_HARD_CAP} "
        f"without certifying rel_tol={policy.rel_tol}")


def _walk_stop(c: float, k: int, anchor: int, first: int, last: int,
               rel_tol: float) -> tuple[int, float]:
    """(n, bound) at the first n in [first, last] whose bound is at most
    rel_tol, else at last: t_n = w_n/w_anchor steps right from the anchor by
    _ratio's formula, and the retained sum from the anchor's left sum by
    _retained_sums (anchor >= first subunit ratio index, so r_n < 1 here).
    t_n is held as t * scale with t normal, so that a subnormal t_n is
    rounded once, not on every step."""
    t, s, scale = 1.0, _retained_sums(c, k, anchor, anchor)[0], 1.0
    for n in range(anchor, last + 1):
        r = c * (n + k + 1) / ((n + 1) * (n + 1))
        if n >= first and (bound := t * scale * r / (1.0 - r) / s) <= rel_tol or n == last:
            return n, bound
        t *= r
        s += t * scale
        if t < 2.0 ** -500:  # exact: powers of two
            t, scale = t * 2.0 ** 500, scale * 2.0 ** -500


def _laguerre_walk(y: float, n: int) -> Iterator[float]:
    """g_1..g_n at y >= 0, where N_p/N_(p-1) = y + p + g_p for N_p = p! L_p(-y):
    the three-term recurrence g_1 = 0, g_(p+1) = p (y + g_p)/(y + p + g_p) on
    nonnegative numbers, so nothing cancels."""
    g = 0.0
    for p in range(1, n + 1):
        yield g
        g = p * (y + g) / (y + p + g)


def _peak_units(k: int, ln_c: float, c: float, n_peak: int) -> tuple[Callable, float]:
    """t(n) = w_n/w_peak by math.lgamma, and the whole sum Z = e^c N_k in those units."""
    ln_peak = n_peak * ln_c + math.lgamma(n_peak + k + 1) - 2.0 * math.lgamma(n_peak + 1)
    ln_n = 0.0  # ln N_k, summed left to right (sum compensates from Python 3.12)
    for p, g in enumerate(_laguerre_walk(c, k), 1):
        ln_n += math.log(c + p + g)
    return (lambda n: math.exp(n * ln_c + math.lgamma(n + k + 1) - 2.0 * math.lgamma(n + 1)
                               - ln_peak)), math.exp(c + ln_n - ln_peak)


def _closed_form_bound(t: float, r: float, total: float, c: float, k: int, n: int) -> float:
    """The bound at n (t = t_n, r = r_n) against Z less the tail past n, summed
    from its terms until what it leaves is below eps Z."""
    eps_z = sys.float_info.epsilon * total
    tail, t_m, r_m, m = 0.0, t, r, n
    while t_m * r_m > eps_z * (1.0 - r_m):  # what the tail leaves is not negligible
        t_m, m = t_m * r_m, m + 1
        r_m = _ratio(c, k, m)
        tail += t_m
    return _tail_bound(t, r, total - tail)


def _closed_form_stop(k: int, ln_c: float, c: float, n_peak: int, lo: int, width: int,
                      rel_tol: float) -> tuple[int, float]:
    """(n, bound) at the first n >= lo whose bound passes rel_tol (past the cap
    if none does), from _peak_units: as the retained sum Z - tail_n is at most
    Z, the bound against Z passes first; the doubling window and Newton steps
    find that n, and from there each n takes _closed_form_bound."""
    def probe(n: int) -> tuple[float, float, float]:  # t_n, r_n and the bound against Z
        t = term(n)
        return t, (r := _ratio(c, k, n)), _tail_bound(t, r, total)

    term, total = _peak_units(k, ln_c, c, n_peak)
    t, r, b = probe(hi := min(n_peak + width, DEFAULT_HARD_CAP))
    while b > rel_tol:
        if hi == DEFAULT_HARD_CAP:
            return hi + 1, math.inf
        lo, width = hi + 1, 2 * width
        t, r, b = probe(hi := min(n_peak + width, DEFAULT_HARD_CAP))
    while lo < hi:
        half = mid = (lo + hi) // 2  # or, if above, the last n to fail by Newton's step on
        if b > 0.0:  # ln(bound), which falls by ln(r_n (1 - r_(n-1))/(1 - r_n)) from n - 1 to n
            fall = math.log(r * (1.0 - _ratio(c, k, hi - 1)) / (1.0 - r))
            mid = max(half, hi - 1 - int(math.log(b / rel_tol) / fall))
        t_mid, r_mid, b_mid = probe(mid)
        if b_mid <= rel_tol:
            hi, t, r, b = mid, t_mid, r_mid, b_mid
        else:
            lo = mid + 1
            if mid > half:  # Newton's step failed, so the stop is near: walk on from lo
                break
    for n in count(lo):
        t_n, r_n, b_n = (t, r, b) if n == hi else probe(n)
        if b_n <= rel_tol and (bound := _closed_form_bound(t_n, r_n, total, c, k, n)) <= rel_tol:
            return n, bound


def _truncate_fixed(spec: StateSpec, policy: FixedTruncation,
                    ln_c: float, c: float) -> TruncatedSeries:
    n_max, k = policy.n_max, spec.k
    r = _ratio(c, k, n_max)
    # the largest retained term: n_max while r >= 1 (no geometric bound), else the peak
    anchor, bound = n_max, math.inf
    if r < 1.0:
        anchor = _first_subunit_ratio_index(c, k)
        if k <= _CLOSED_FORM_MAX_K:
            term, total = _peak_units(k, ln_c, c, anchor)
            bound = _closed_form_bound(term(n_max), r, total, c, k, n_max)
        else:  # the bound at n_max, or 0.0 once it underflows
            bound = _walk_stop(c, k, anchor, anchor, n_max, 0.0)[1]
    return _deferred_series(spec, anchor, n_max, bound, bound <= policy.rel_tol, ln_c)


def _retained_sums(c: float, k: int, anchor: int, n_max: int) -> tuple[float, float, float]:
    """Sums of t_n, t_n d and t_n d^2 over n <= n_max, t_n = w_n/w_anchor and
    d = n - anchor, outward from the anchor, each t from its neighbour's by
    _ratio's formula.  At every 8th d a side stops if the geometric bound on
    its t d^2 tail (ratio at most r (1 + 1/|d|)^2, 1/r leftward) is below eps s2."""
    eps = sys.float_info.epsilon
    s0, s1, s2, t = 1.0, 0.0, 0.0, 1.0
    for m in range(anchor + 1, n_max + 1):  # t_m = t_(m-1) r_(m-1)
        t *= (r := c * (m + k) / (m * m))
        d = m - anchor
        s0 += t
        s1 += (td := t * d)
        s2 += (td2 := td * d)
        if not d & 7 and td2 * (rho := r * ((d + 1) / d) ** 2) <= eps * s2 * (1.0 - rho):
            break
    t = 1.0
    for m in range(anchor, 0, -1):  # t_(m-1) = t_m / r_(m-1)
        t /= (r := c * (m + k) / (m * m))
        d = anchor + 1 - m
        s0 += t
        s1 -= (td := t * d)
        s2 += (td2 := td * d)
        if not d & 7 and td2 * (rho := ((d + 1) / d) ** 2 / r) <= eps * s2 * (1.0 - rho):
            break
    return s0, s1, s2


def normalization_log(series: TruncatedSeries) -> float:
    """ln N = -(1/2) ln sum_n w_n over the retained weights."""
    return -0.5 * _logsumexp(series.log_weights)


def photon_distribution(series: TruncatedSeries) -> list[tuple[int, float]]:
    """Retained photon-number distribution [(k, P(k)), (k+1, P(k+1)), ...].

    Support starts at photon number k; probabilities are normalized over the
    retained terms and therefore sum to 1 up to rounding (the true
    distribution differs by at most tail_bound_rel).
    """
    import numpy as np
    z = np.exp(series.rel_log_weights)
    p = z / z.sum()
    return [(n + series.spec.k, float(pn)) for n, pn in enumerate(p)]


def _retained_statistics(series: TruncatedSeries) -> PhotonStatistics:
    """Moments of the retained distribution from _retained_sums, which reads
    no weight, centred at the anchor so that a large mean does not cancel."""
    k, anchor = series.spec.k, series.anchor
    s0, s1, s2 = _retained_sums(_ratio_constant(series.spec), k, anchor, series.n_max)
    mean = anchor + k + (shift := s1 / s0)
    variance = s2 / s0 - shift * shift
    return PhotonStatistics(mean_n=mean, variance=variance,
                            mandel_q=variance / mean - 1.0 if mean else None)


def _closed_statistics(spec: StateSpec) -> PhotonStatistics:
    """Moments of a†^k|beta>, beta^2 = x, in O(k) from g = g_(k+1) = k - k^2
    N_(k-1)/N_k: <m> = x + k + g and Var = (1 + k - g) x - g^2."""
    x = _ratio_constant(spec)
    k = spec.k
    for g in _laguerre_walk(x, k + 1):
        pass
    mean = x + k + g
    variance = (1 + k - g) * x - g * g
    return PhotonStatistics(mean_n=mean, variance=variance,
                            mandel_q=variance / mean - 1.0 if mean else None)


def photon_statistics(series: TruncatedSeries) -> PhotonStatistics:
    """Mean, variance, and Mandel Q (None for the vacuum, whose mean is 0),
    reading no log-weight: a converged series gives the untruncated state's,
    in closed form (k = 0 gives Q = 0 exactly); an unconverged one those of
    the retained distribution, from its spec, anchor and n_max."""
    if series.converged:
        return _closed_statistics(series.spec)
    return _retained_statistics(series)
