"""Series weights, certified truncation, and photon statistics."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

from fockseries import (
    DEFAULT_HARD_CAP,
    AdaptiveTruncation,
    DegenerateAmplitude,
    FixedTruncation,
    HardCapExceeded,
    InvalidParameter,
    StateSpec,
    VacuumUndefined,
    log_weight,
    normalization_log,
    penson_solomon_state,
    photon_distribution,
    photon_statistics,
    truncate,
    weight_ratio,
)
from fockseries.series import _LN_FACT_CAP, _ln_factorials, _logsumexp

# extended-precision oracle pins (tests/fixtures are the full grid; these two
# back the single-value examples)
LW5_Q05_K3_A05 = 19.051446111739736     # ln w_5 at q=0.5, k=3, |alpha|=0.5
LNN_Q05_K1_A05 = -0.8465735902799727    # ln N at q=0.5, k=1, |alpha|=0.5


def adaptive_series(alpha, k, q, **kwargs):
    return truncate(penson_solomon_state(alpha, k, q), AdaptiveTruncation(**kwargs))


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
        with pytest.raises(DegenerateAmplitude):
            log_weight(spec, 1)

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidParameter):
            log_weight(penson_solomon_state(1.0, 0, 1.0), -1)


class TestWeightRatio:
    def test_poisson_ratios(self):
        assert weight_ratio(penson_solomon_state(1.0, 0, 1.0), 0) == 1.0
        assert weight_ratio(penson_solomon_state(2.0, 0, 1.0), 3) == 1.0

    def test_deformed_plugin_value(self):
        """25 * 0.5^(-6) * 4 = 6400 at q=0.5, k=3, |alpha|=5, n=0."""
        assert weight_ratio(penson_solomon_state(5.0, 3, 0.5), 0) == 6400.0

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
            exact = weight_ratio(spec, n)
            assert abs(via_logs - exact) <= 1e-10 * exact

    def test_strictly_decreasing_and_vanishing(self):
        """The ratio falls like c/n, so the series is entire."""
        spec = penson_solomon_state(2.5, 4, 0.6)
        ratios = [weight_ratio(spec, n) for n in range(400)]
        assert all(r1 > r2 for r1, r2 in zip(ratios, ratios[1:]))
        assert weight_ratio(spec, 50_000) < 0.01


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

    def test_vacuum_raises(self):
        series = adaptive_series(0.0, 0, 1.0)
        with pytest.raises(VacuumUndefined, match="q=1.0, k=0, .alpha.=0.0"):
            photon_statistics(series)

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
