"""Series weights, certified truncation, and photon statistics."""
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from fockseries import (
    DEFAULT_HARD_CAP,
    AdaptiveTruncation,
    FixedTruncation,
    HardCapExceeded,
    InvalidParameter,
    StateSpec,
    log_weight,
    normalization_log,
    penson_solomon_state,
    photon_distribution,
    photon_statistics,
    truncate,
)
from fockseries.series import (
    _LN_FACT_CAP,
    TruncatedSeries,
    _first_subunit_ratio_index,
    _ln_factorials,
    _logsumexp,
    _point,
    _ratio,
    _ratio_constant,
)

# extended-precision oracle pins (criterion 4 runs the oracle live on its
# grid; these two back the single-value examples)
LW5_Q05_K3_A05 = 19.051446111739736     # ln w_5 at q=0.5, k=3, |alpha|=0.5
LNN_Q05_K1_A05 = -0.8465735902799727    # ln N at q=0.5, k=1, |alpha|=0.5


def adaptive_series(alpha, k, q, **kwargs):
    return truncate(penson_solomon_state(alpha, k, q), AdaptiveTruncation(**kwargs))


def term_ratio(spec, n):
    """w_{n+1}/w_n as the series evaluates it."""
    return _ratio(_ratio_constant(spec), spec.k, n)


class TestNonlinearityModel:
    """The Penson-Solomon deformation f(n) = q^(1-n), carried as StateSpec.q."""

    def test_penson_solomon_accepts_unit_interval(self):
        assert StateSpec(alpha_abs=1.0, k=0, q=0.5).q == 0.5
        assert StateSpec(alpha_abs=1.0, k=0, q=1.0).q == 1.0
        assert StateSpec(alpha_abs=1.0, k=0).q == 1.0

    def test_q_zero_rejected(self):
        """f(n) = q^(1-n) diverges at q = 0, and ln(1/q) overflows below ~5.6e-309."""
        for q in (0.0, -0.3, 1.2, math.nan, 1e-320):
            with pytest.raises(InvalidParameter):
                StateSpec(alpha_abs=1.0, k=0, q=q)

    def test_state_spec_validation(self):
        with pytest.raises(InvalidParameter):
            penson_solomon_state(-1.0, 0, 0.5)
        with pytest.raises(InvalidParameter):
            penson_solomon_state(1.0, -1, 0.5)
        with pytest.raises(InvalidParameter):
            penson_solomon_state(math.inf, 0, 0.5)

    def test_k_capped_at_hard_cap(self):
        assert StateSpec(alpha_abs=1.0, k=DEFAULT_HARD_CAP).k == DEFAULT_HARD_CAP
        for k in (DEFAULT_HARD_CAP + 1, 10 ** 160):
            with pytest.raises(InvalidParameter):
                StateSpec(alpha_abs=1.0, k=k)


class TestLogWeight:
    def test_empty_products_give_unit_weight(self):
        """w_0 = 1 for q=1, k=0, |alpha|=1."""
        assert log_weight(penson_solomon_state(1.0, 0, 1.0), 0) == 0.0

    def test_added_photon_prefactor(self):
        """w_0 = q^(-k(k-1)) k! = 4 * 2 at q=0.5, k=2 (hand-evaluated product)."""
        lw = log_weight(penson_solomon_state(1.0, 2, 0.5), 0)
        assert abs(lw - math.log(8.0)) < 1e-14

    def test_poisson_weight(self):
        """w_3 = |alpha|^6 / 3! for the undeformed k=0 family."""
        lw = log_weight(penson_solomon_state(2.0, 0, 1.0), 3)
        assert abs(lw - math.log(64.0 / 6.0)) < 1e-13

    def test_oracle_pinned_value(self):
        lw = log_weight(penson_solomon_state(0.5, 3, 0.5), 5)
        assert abs(lw - LW5_Q05_K3_A05) < 1e-12 * abs(LW5_Q05_K3_A05)

    def test_zero_amplitude_rejects_positive_n(self):
        spec = penson_solomon_state(0.0, 2, 0.5)
        assert math.isfinite(log_weight(spec, 0))
        with pytest.raises(InvalidParameter):
            log_weight(spec, 1)

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidParameter):
            log_weight(penson_solomon_state(1.0, 0, 1.0), -1)


class TestWeightRatio:
    def test_poisson_ratios(self):
        assert term_ratio(penson_solomon_state(1.0, 0, 1.0), 0) == 1.0
        assert term_ratio(penson_solomon_state(2.0, 0, 1.0), 3) == 1.0

    def test_deformed_plugin_value(self):
        """25 * 0.5^(-6) * 4 = 6400 at q=0.5, k=3, |alpha|=5, n=0."""
        assert term_ratio(penson_solomon_state(5.0, 3, 0.5), 0) == 6400.0

    def test_consistency_with_log_weights_on_random_grid(self):
        """exp(ln w_{n+1} - ln w_n) must equal the exact ratio to 1e-10."""
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            q = rng.uniform(0.3, 1.0)
            k = int(rng.integers(0, 7))
            alpha = rng.uniform(0.05, 5.0)
            n = int(rng.integers(0, 60))
            spec = penson_solomon_state(alpha, k, q)
            via_logs = math.exp(log_weight(spec, n + 1) - log_weight(spec, n))
            exact = term_ratio(spec, n)
            assert abs(via_logs - exact) <= 1e-10 * exact

    def test_ratio_constant_in_logs_past_double_range(self):
        """q^(-2k) overflows or |alpha|^2 underflows where c is a double."""
        assert abs(term_ratio(penson_solomon_state(5e-301, 1, 1e-300), 0) - 0.5) < 1e-13
        assert term_ratio(penson_solomon_state(1e-200, 1, 1e-100), 0) > 0.0
        assert math.isinf(_ratio_constant(penson_solomon_state(1e200, 0, 1.0)))
        assert math.isinf(_ratio_constant(penson_solomon_state(1.0, 2, 1e-200)))

    def test_ratio_constant_from_logs_where_alpha_squared_is_subnormal(self):
        """|alpha|^2 = 9e-324 rounds to 1e-323, which would put c 9.8% high."""
        c = _ratio_constant(penson_solomon_state(3e-162, 1, 1e-100))
        exact = mp.mpf(3e-162) ** 2 * mp.mpf(1e-100) ** -2
        assert abs(c - exact) <= 1e-12 * exact

    def test_strictly_decreasing_and_vanishing(self):
        """The ratio falls like c/n, so the series is entire."""
        spec = penson_solomon_state(2.5, 4, 0.6)
        ratios = [term_ratio(spec, n) for n in range(400)]
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
        assert term_ratio(spec, 50_000) < 0.01


def _ulps_away(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return x


def log_uniform_cs(ks):
    """c log-uniform from subnormal up to the cap's limit at k = 0, (N+1)^2/(N+1)."""
    return st.tuples(st.floats(math.log(1e-320), math.log(DEFAULT_HARD_CAP + 1)).map(math.exp), ks)


def crossing_cs(ks):
    """c = (N+1)^2/(N+k+1) puts the crossing on the integer N; a few ulps either way."""
    return st.tuples(st.integers(0, DEFAULT_HARD_CAP - 1), ks, st.integers(-4, 4)).map(
        lambda p: (_ulps_away((p[0] + 1) ** 2 / (p[0] + p[1] + 1), p[2]), p[1]))


ks = st.integers(0, DEFAULT_HARD_CAP)


class TestPeakSearch:
    """The first n with term ratio below 1 splits the weights between the
    ln m! table and math.lgamma, so it fixes output bytes."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(log_uniform_cs(ks), crossing_cs(ks)))
    def test_first_subunit_index_against_brute_force(self, point):
        c, k = point
        assume(_ratio(c, k, DEFAULT_HARD_CAP) < 1.0)  # what the adaptive path accepts
        n = _first_subunit_ratio_index(c, k)
        assert _ratio(c, k, n) < 1.0
        assert n == 0 or _ratio(c, k, n - 1) >= 1.0


def reference_truncate_adaptive(spec, policy):
    """truncate's adaptive path with its tail one Python iteration per term,
    and the weight, ratio and bound formulas written out in their original
    operation order: the reference the chunked tail must equal bit for bit."""
    k = spec.k
    ln_a, ln_inv_q, c = math.log(spec.alpha_abs), math.log(1.0 / spec.q), _ratio_constant(spec)
    if not math.isfinite(c) or _ratio(c, k, DEFAULT_HARD_CAP) >= 1.0:
        raise HardCapExceeded(
            f"{_point(spec)}: term ratio stays >= 1 at hard_cap={DEFAULT_HARD_CAP}; "
            "the series peak is beyond desk scale")
    n_peak = _first_subunit_ratio_index(c, k)
    lf, ns = _ln_factorials(k + n_peak), np.arange(n_peak, dtype=np.float64)
    bulk = (2.0 * ns * ln_a + lf[k:k + n_peak] - 2.0 * lf[:n_peak]
            + (k * (k - 1) + 2 * ns * k) * ln_inv_q)
    m = float(bulk.max(initial=-math.inf))
    scaled_sum = float(np.exp(bulk - m).sum())

    # Tail phase: one term at a time with the certified stopping test.
    tail = []
    n = n_peak
    while n <= DEFAULT_HARD_CAP:
        lw = (2.0 * n * ln_a + math.lgamma(n + k + 1) - 2.0 * math.lgamma(n + 1)
              + (k * (k - 1) + 2 * n * k) * ln_inv_q)
        if lw > m:
            scaled_sum *= math.exp(m - lw)
            m = lw
        scaled_sum += math.exp(lw - m)
        tail.append(lw)
        r = c * (n + k + 1) / ((n + 1) * (n + 1))
        if r < 1.0:
            bound = math.exp(lw - m) * r / (1.0 - r) / scaled_sum
            if bound <= policy.rel_tol:
                return TruncatedSeries(spec=spec, log_weights=np.concatenate((bulk, tail)),
                                       n_max=n, tail_bound_rel=bound, converged=True)
        n += 1
    raise HardCapExceeded(
        f"{_point(spec)}: adaptive truncation passed hard_cap={DEFAULT_HARD_CAP} "
        f"without certifying rel_tol={policy.rel_tol}")


def assert_same_truncation(spec, policy):
    """truncate and the reference give the same bytes, or the same error."""
    try:
        ref = reference_truncate_adaptive(spec, policy)
    except HardCapExceeded as exc:
        with pytest.raises(HardCapExceeded) as got:
            truncate(spec, policy)
        assert str(got.value) == str(exc)
        return
    got = truncate(spec, policy)
    assert got.log_weights.tobytes() == ref.log_weights.tobytes()
    assert got.n_max == ref.n_max
    assert type(got.tail_bound_rel) is float and same_bits(got.tail_bound_rel, ref.tail_bound_rel)
    assert got.converged is ref.converged is True


class TestChunkedTail:
    """The adaptive tail runs in numpy chunks that must reproduce the
    term-at-a-time loop's log-weights, stop, bound and errors exactly."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(log_uniform_cs(st.integers(0, 200)), crossing_cs(st.integers(0, 200))),
           st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.3, 1.0)),
           st.sampled_from([1e-30, 1e-20, 1e-14, 1e-8, 0.5]))
    def test_matches_term_at_a_time_loop(self, point, q, rel_tol):
        c, k = point
        # q = 1 or 1/2 scales sqrt(c) exactly, so a crossing keeps its ulps
        alpha = math.sqrt(c) * q ** k
        assume(alpha > 0.0)
        assert_same_truncation(penson_solomon_state(alpha, k, q), AdaptiveTruncation(rel_tol))

    def test_rescale_past_the_peak(self):
        """At c = (N+1)^2/(N+k+1), N = 1003, k = 3, the term ratio at N rounds
        below 1, yet ln w_{N+1} > ln w_N in float: the tail's second term is
        a new maximum too, so the loop rescales the sum at N and at N + 1."""
        spec = penson_solomon_state(31.638725281495372, 3, 1.0)
        assert _first_subunit_ratio_index(_ratio_constant(spec), 3) == 1003
        lws = reference_truncate_adaptive(spec, AdaptiveTruncation()).log_weights
        assert lws[1004] > lws[1003] > lws[:1003].max()
        assert_same_truncation(spec, AdaptiveTruncation())


class TestTruncate:
    def test_zero_amplitude_single_term(self):
        for policy in (AdaptiveTruncation(), FixedTruncation(n_max=100)):
            series = truncate(penson_solomon_state(0.0, 3, 0.5), policy)
            assert series.n_max == 0
            assert series.log_weights.size == 1
            assert series.tail_bound_rel == 0.0
            assert series.converged

    def test_poisson_sum_matches_exponential(self):
        """sum w_n = e^(|alpha|^2) for the coherent family; ln N = -|alpha|^2/2."""
        series = adaptive_series(2.0, 0, 1.0)
        assert series.n_max < 100
        total = math.exp(logsumexp(series.log_weights))
        assert abs(total - math.exp(4.0)) <= 1e-13 * math.exp(4.0)
        assert abs(normalization_log(series) - (-2.0)) < 1e-13

    def test_peak_beyond_small_fixed_cutoffs(self):
        """q=0.5, k=3, |alpha|=5 peaks near n = 1600, far past n_max = 700."""
        series = adaptive_series(5.0, 3, 0.5)
        assert series.n_max > 1600
        assert series.converged
        fixed = truncate(penson_solomon_state(5.0, 3, 0.5), FixedTruncation(n_max=100))
        assert not fixed.converged
        assert math.isinf(fixed.tail_bound_rel)
        assert fixed.log_weights.size == 101

    def test_fixed_can_converge_when_generous(self):
        series = truncate(penson_solomon_state(1.0, 0, 1.0), FixedTruncation(n_max=80))
        assert series.converged
        assert series.tail_bound_rel <= 1e-14
        assert series.n_max == 80

    def test_converged_tail_respects_tolerance(self):
        for tol in (1e-10, 1e-14):
            series = adaptive_series(3.0, 2, 0.7, rel_tol=tol)
            assert series.converged
            assert series.tail_bound_rel <= tol

    def test_underflowing_ratio_constant_still_bounds_the_tail(self):
        """|alpha|^2 = 1e-400 underflows, but c = 1e-200 and w_1/w_0 = 2c."""
        series = adaptive_series(1e-200, 1, 1e-100)
        assert series.n_max == 0
        assert 1e-200 < series.tail_bound_rel < 3e-200

    def test_hard_cap_raises(self):
        """Both raise paths at DEFAULT_HARD_CAP: a peak beyond the cap fails
        the pre-check; a peak just below it runs out of terms to certify."""
        with pytest.raises(HardCapExceeded, match="term ratio stays >= 1"):
            adaptive_series(4.0, 5, 0.3)
        with pytest.raises(HardCapExceeded, match="without certifying"):
            adaptive_series(math.sqrt(1.999e6), 0, 1.0)

    def test_policy_validation(self):
        with pytest.raises(InvalidParameter):
            AdaptiveTruncation(rel_tol=0.0)
        with pytest.raises(InvalidParameter):
            AdaptiveTruncation(rel_tol=1.5)
        with pytest.raises(InvalidParameter):
            FixedTruncation(n_max=-1)
        assert FixedTruncation(n_max=DEFAULT_HARD_CAP).n_max == DEFAULT_HARD_CAP
        with pytest.raises(InvalidParameter):
            FixedTruncation(n_max=DEFAULT_HARD_CAP + 1)

    def test_monotone_certificate(self):
        """Extending a converged series by 500 terms moves the sum by less
        than the reported tail bound."""
        for (alpha, k, q) in [(2.0, 0, 1.0), (3.0, 2, 0.5), (1.0, 5, 0.8)]:
            series = adaptive_series(alpha, k, q)
            spec = penson_solomon_state(alpha, k, q)
            extra = np.array([log_weight(spec, n)
                              for n in range(series.n_max + 1, series.n_max + 501)])
            gained = math.exp(logsumexp(extra) - logsumexp(series.log_weights))
            assert gained < series.tail_bound_rel


def same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))


class TestScipyFreeKernels:
    """The ln m! table and the log-sum-exp equal scipy.special bit for bit,
    so the runtime can go without scipy and no output byte moves."""

    def test_ln_factorials_match_gammaln_over_reachable_range(self):
        lf = _ln_factorials(_LN_FACT_CAP)
        assert lf.size == _LN_FACT_CAP == 2 * DEFAULT_HARD_CAP + 2
        assert same_bits(lf, gammaln(np.arange(_LN_FACT_CAP, dtype=np.float64) + 1.0))

    def test_ln_factorials_prefix_is_read_only(self):
        lf = _ln_factorials(20)
        assert lf.size == 20
        with pytest.raises(ValueError):
            lf[3] = 0.0

    @settings(max_examples=300, deadline=None)
    @given(st.floats(-1e6, 1e6),
           st.lists(st.floats(-800.0, 0.0), min_size=1, max_size=60),
           st.integers(0, 3))
    def test_logsumexp_matches_scipy_bitwise(self, shift, offsets, ties):
        """Includes tied maxima, which scipy takes out of the sum."""
        a = shift + np.array(offsets + [max(offsets)] * ties)
        assert same_bits(_logsumexp(a), logsumexp(a))

    def test_logsumexp_tie_in_real_weights(self):
        """q=1, k=0, |alpha|=1 has w_0 = w_1 = 1, a tie at the maximum."""
        series = adaptive_series(1.0, 0, 1.0)
        assert series.log_weights[0] == series.log_weights[1] == series.log_weights.max()
        assert same_bits(_logsumexp(series.log_weights), logsumexp(series.log_weights))
        assert same_bits(normalization_log(series),
                         -0.5 * float(logsumexp(series.log_weights)))


class TestPhotonDistribution:
    def test_fock_limit(self):
        series = truncate(penson_solomon_state(0.0, 3, 0.5), AdaptiveTruncation())
        assert photon_distribution(series) == [(3, 1.0)]

    def test_poisson_distribution(self):
        series = adaptive_series(2.0, 0, 1.0)
        for n, p in photon_distribution(series):
            expected = math.exp(-4.0) * 4.0 ** n / math.factorial(n)
            assert abs(p - expected) < 1e-13

    def test_support_starts_at_k(self):
        series = adaptive_series(1.0, 4, 0.8)
        numbers = [n for n, _ in photon_distribution(series)]
        assert numbers[0] == 4
        assert numbers == list(range(4, 4 + series.n_max + 1))

    def test_oracle_pinned_distribution(self):
        """At q=0.5, k=1, |alpha|=0.5 the weights collapse to (n+1)/n!, so
        P(n+1) = (n+1) / (n! * 2e) exactly."""
        series = adaptive_series(0.5, 1, 0.5)
        dist = dict(photon_distribution(series))
        for n in range(10):
            expected = (n + 1) / (math.factorial(n) * 2.0 * math.e)
            assert abs(dist[n + 1] - expected) < 1e-13

    def test_probabilities_sum_within_tail_bound(self):
        for (alpha, k, q) in [(0.7, 0, 1.0), (2.0, 3, 0.5), (4.0, 1, 0.9)]:
            series = adaptive_series(alpha, k, q)
            total = sum(p for _, p in photon_distribution(series))
            assert 1.0 - 2.0 * series.tail_bound_rel <= total <= 1.0 + 2.0 * series.tail_bound_rel


class TestPhotonStatistics:
    def test_fock_point_is_maximally_sub_poissonian(self):
        """Q = -1 exactly for the single-point distribution at |alpha| = 0."""
        for k in (1, 2, 5):
            for q in (0.5, 1.0):
                stats = photon_statistics(truncate(
                    penson_solomon_state(0.0, k, q), AdaptiveTruncation()))
                assert stats.mandel_q == -1.0
                assert stats.mean_n == k
                assert stats.variance == 0.0

    def test_coherent_state_is_poissonian(self):
        stats = photon_statistics(adaptive_series(2.0, 0, 1.0))
        assert abs(stats.mandel_q) < 1e-12
        assert abs(stats.mean_n - 4.0) < 1e-12

    def test_vacuum_moments(self):
        """Mean and variance are 0 at the vacuum; Q = variance/mean is not defined."""
        stats = photon_statistics(adaptive_series(0.0, 0, 1.0))
        assert stats.mean_n == 0.0
        assert stats.variance == 0.0
        assert stats.mandel_q is None

    def test_oracle_pinned_mandel_q(self):
        """Q = -1/2 exactly at q=0.5, k=1, |alpha|=0.5 (256-bit oracle)."""
        stats = photon_statistics(adaptive_series(0.5, 1, 0.5))
        assert abs(stats.mandel_q - (-0.5)) < 1e-12

    def test_bounds_on_random_grid(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            q = rng.uniform(0.3, 1.0)
            k = int(rng.integers(0, 6))
            alpha = rng.uniform(0.05, 4.0)
            stats = photon_statistics(adaptive_series(alpha, k, q))
            assert stats.mandel_q >= -1.0
            assert stats.variance >= 0.0
            assert stats.mean_n >= k - 1e-9

    def test_poisson_limit_q_to_one(self):
        """q -> 1, k = 0 reduces to the Poisson distribution."""
        for alpha in (0.5, 1.0, 2.0, 3.0):
            series = adaptive_series(alpha, 0, 1.0)
            worst = max(abs(p - math.exp(-alpha ** 2) * alpha ** (2 * n) / math.factorial(n))
                        for n, p in photon_distribution(series))
            assert worst <= 1e-12

    def test_fock_limit_small_alpha(self):
        stats = photon_statistics(adaptive_series(1e-6, 1, 0.5))
        assert -1.0 <= stats.mandel_q <= -1.0 + 1e-9

    def test_unconverged_flag_propagates(self):
        fixed = truncate(penson_solomon_state(5.0, 3, 0.5), FixedTruncation(n_max=100))
        stats = photon_statistics(fixed)
        assert not stats.converged
        assert math.isinf(stats.tail_bound_rel)

    def test_normalization_vacuum_limit(self):
        series = adaptive_series(0.0, 0, 1.0)
        assert normalization_log(series) == 0.0
        pinned = normalization_log(adaptive_series(0.5, 1, 0.5))
        assert abs(pinned - LNN_Q05_K1_A05) < 1e-13
