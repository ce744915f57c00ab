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
least; for k <= 128 from scalars, the whole sum being e^c k! L_k(-c) (the
state is a†^k|beta>), and such a series builds its sums when read.  The
index arrays ln(n+k+1) and 2 ln(n+1) are slices of one read-only table of
rows ln j and 2 ln j, 2^14 columns (2 x 128 KB) built once on first use, so
that its memory does not grow with k; a series past it computes them
directly, to the same bits.  Only the functions that build an array (a fixed
cutoff, k > 128, a weight read) import numpy; the closed forms run without.
"""
from __future__ import annotations

import math
import sys
from collections.abc import Iterator
from contextlib import suppress
from itertools import count
from numbers import Integral

from .errors import HardCapExceeded, InvalidParameter
from .states import DEFAULT_HARD_CAP, StateSpec, _ReadOnly, _record

DEFAULT_REL_TOL = 1e-14
# largest k whose adaptive certificate takes the closed-form sum (2-vCPU x86
# host): its O(k) walk takes 0.1, 0.3, 30 and 600-860 ms at k = 200, 1e3, 1e5
# and 2e6, the array path 0.02 to 0.34 ms, and math.lgamma's rounding at large
# arguments moves its bound from theirs by 2.5e-13 to 2.5e-7 relative
_CLOSED_FORM_MAX_K = 128
_TABLE_CAP = 1 << 14  # columns of the index table of ln j and 2 ln j
_table = None  # built on first use


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
    An adaptive series with k <= 128 or at |alpha| = 0 builds its weights when read.
    Attributes are read-only and equality is identity; a changed series is
    built through the constructor.
    """

    def __init__(self, spec: StateSpec, rel_log_weights: np.ndarray, anchor: int,
                 tail_bound_rel: float, converged: bool) -> None:
        self.__dict__.update(spec=spec, rel_log_weights=rel_log_weights, anchor=anchor,
                             tail_bound_rel=tail_bound_rel, converged=converged)

    def __getattr__(self, name: str):  # for attributes not set: the unbuilt weights
        if name != "rel_log_weights" or "_deferred" not in self.__dict__:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        rel = self.__dict__[name] = _log_ratio_sums(*self._deferred)
        return rel

    @property
    def n_max(self) -> int:
        rel = self.__dict__.get("rel_log_weights")
        return self._deferred[3] - 1 if rel is None else rel.size - 1

    @property
    def log_weights(self) -> np.ndarray:
        return self.rel_log_weights + _log_weight(self.spec, self.anchor)


def _deferred_series(spec: StateSpec, bound: float, deferred: tuple) -> TruncatedSeries:
    """A converged series that builds rel_log_weights = _log_ratio_sums(*deferred) when read."""
    series = object.__new__(TruncatedSeries)
    series.__dict__.update(spec=spec, anchor=deferred[2], tail_bound_rel=bound, converged=True,
                           _deferred=deferred)
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
    sum (valid since the ratio decreases monotonically); k <= 128 builds the
    weights only when read.  Raises HardCapExceeded if the cap is passed first.

    Fixed: store exactly n_max + 1 weights; the series counts as converged
    only if the same certified bound happens to hold at n_max against
    policy.rel_tol, otherwise the tail bound is reported as +inf (ratio
    still >= 1) or as the failing finite bound.
    """
    if not isinstance(spec, StateSpec):
        raise InvalidParameter("spec must be a StateSpec")
    if spec.alpha_abs == 0.0:
        # every n >= 1 weight is exactly zero: one term, ln(w_0/w_0) = 0.0, no tail
        return _deferred_series(spec, 0.0, (spec.k, 0.0, 0, 1))
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


def _index_row(row: int, lo: int, hi: int) -> np.ndarray:
    """Row ln j or 2 ln j (row 0 or 1) for j = lo+1..hi: computed afresh past
    _TABLE_CAP, else a read-only slice of the table (threads that race to
    build it build equal tables, and either serves)."""
    import numpy as np
    global _table
    if hi > _TABLE_CAP:
        ln_j = np.log(np.arange(lo + 1.0, hi + 1))
        return 2.0 * ln_j if row else ln_j
    if _table is None:
        table = np.empty((2, _TABLE_CAP))
        np.log(np.arange(1.0, _TABLE_CAP + 1), out=table[0])
        np.multiply(table[0], 2.0, out=table[1])
        table.flags.writeable = False
        _table = table
    return _table[row, lo:hi]


def _log_ratio_sums(k: int, ln_c: float, anchor: int, size: int) -> np.ndarray:
    """ln(w_n/w_anchor) for n < size: the log-ratios ln c + ln(n+k+1) - 2 ln(n+1)
    summed outward from the anchor.  A term's value depends only on the terms
    between it and the anchor, not on size."""
    import numpy as np
    log_ratios = ln_c + _index_row(0, k, k + size - 1)
    log_ratios -= _index_row(1, 0, size - 1)
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
    # lone term has no spread: it reads as the vacuum).  The window reaches
    # _peak_width at z^2 = 2 ln(1/rel_tol) past the peak and doubles until it
    # holds the stop.
    first = max(n_peak, 1)
    width = _peak_width(-2.0 * math.log(policy.rel_tol), n_peak, k)  # 1/rel_tol can overflow
    if k <= _CLOSED_FORM_MAX_K:
        n_max, bound = _closed_form_stop(k, ln_c, c, n_peak, first, width, policy.rel_tol)
        if n_max <= DEFAULT_HARD_CAP:
            return _deferred_series(spec, bound, (k, ln_c, n_peak, n_max + 1))
    else:
        import numpy as np
        while True:
            end = min(n_peak + width, DEFAULT_HARD_CAP)
            rel = _log_ratio_sums(k, ln_c, n_peak, end + 1)
            e = np.exp(rel)
            bounds = _tail_bound(e[first:], _ratio(c, k, np.arange(first, end + 1.0)),
                                 np.add.accumulate(e)[first:])
            i = int((bounds <= policy.rel_tol).argmax())
            bound = float(bounds[i])
            if bound <= policy.rel_tol:
                return TruncatedSeries(spec, rel[:first + i + 1], n_peak, tail_bound_rel=bound,
                                       converged=True)
            if end == DEFAULT_HARD_CAP:
                break
            width *= 2
    raise HardCapExceeded(
        f"{_point(spec)}: adaptive truncation passed hard_cap={DEFAULT_HARD_CAP} "
        f"without certifying rel_tol={policy.rel_tol}")


def _laguerre_walk(y: float, n: int) -> Iterator[float]:
    """g_1..g_n at y >= 0, where N_p/N_(p-1) = y + p + g_p for N_p = p! L_p(-y):
    the three-term recurrence g_1 = 0, g_(p+1) = p (y + g_p)/(y + p + g_p) on
    nonnegative numbers, so nothing cancels."""
    g = 0.0
    for p in range(1, n + 1):
        yield g
        g = p * (y + g) / (y + p + g)


def _closed_form_stop(k: int, ln_c: float, c: float, n_peak: int, lo: int, width: int,
                      rel_tol: float) -> tuple[int, float]:
    """(n, bound) at the first n >= lo whose bound passes rel_tol (past the cap
    if none does), from t_n/t_peak by math.lgamma and the whole sum Z = e^c N_k:
    as the retained sum Z - tail_n is at most Z, the bound against Z passes
    first; the doubling window and Newton steps find that n, and from there
    each n sums its tail from its terms until what is left is below eps Z."""
    def probe(n: int) -> tuple[float, float, float]:  # t_n, r_n and the bound against Z
        t = math.exp(n * ln_c + math.lgamma(n + k + 1) - 2.0 * math.lgamma(n + 1) - ln_peak)
        return t, (r := _ratio(c, k, n)), _tail_bound(t, r, total)

    ln_peak = n_peak * ln_c + math.lgamma(n_peak + k + 1) - 2.0 * math.lgamma(n_peak + 1)
    ln_n = 0.0  # ln N_k, summed left to right (sum compensates from Python 3.12)
    for p, g in enumerate(_laguerre_walk(c, k), 1):
        ln_n += math.log(c + p + g)
    total = math.exp(c + ln_n - ln_peak)
    eps_z = sys.float_info.epsilon * total
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
        if b_n <= rel_tol:
            tail, t_m, r_m, m = 0.0, t_n, r_n, n
            while t_m * r_m > eps_z * (1.0 - r_m):  # what the tail leaves is not negligible
                t_m, m = t_m * r_m, m + 1
                r_m = _ratio(c, k, m)
                tail += t_m
            bound = _tail_bound(t_n, r_n, total - tail)
            if bound <= rel_tol:
                return n, bound


def _truncate_fixed(spec: StateSpec, policy: FixedTruncation,
                    ln_c: float, c: float) -> TruncatedSeries:
    import numpy as np
    n_max = policy.n_max
    r = _ratio(c, spec.k, n_max)
    # anchored at the largest retained term: the peak, or n_max before it
    anchor = n_max if r >= 1.0 else _first_subunit_ratio_index(c, spec.k)
    rel = _log_ratio_sums(spec.k, ln_c, anchor, n_max + 1)
    bound = math.inf  # no geometric bound while r >= 1; the neglected tail may dominate
    if r < 1.0:
        e = np.exp(rel)
        bound = float(_tail_bound(e[-1], r, e.sum()))
    return TruncatedSeries(spec, rel, anchor, tail_bound_rel=bound,
                           converged=bound <= policy.rel_tol)


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
    """Moments of the retained distribution, in two passes: the mean, then
    the centered variance sum w_n (n+k-mu)^2 / sum w_n, which avoids the
    cancellation of <n^2> - <n>^2 when the mean is large."""
    import numpy as np
    z = np.exp(series.rel_log_weights)
    ns = np.arange(z.size, dtype=np.float64) + series.spec.k
    total = np.add.reduce(z)
    mean = float(np.add.reduce(z * ns) / total)
    ns -= mean
    ns *= ns
    variance = float(np.add.reduce(z * ns) / total)
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
    """Mean, variance, and Mandel Q (None for the vacuum, whose mean is 0):
    a converged series gives the untruncated state's, in closed form and
    reading no log-weight (k = 0 gives Q = 0 exactly); an unconverged one
    those of the retained distribution."""
    if series.converged:
        return _closed_statistics(series.spec)
    return _retained_statistics(series)
