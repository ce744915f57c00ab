"""Extended-precision oracle: trivial anchors, pinned values, agreement with
the main path, self-consistency."""

import math

import mpmath as mp
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fockseries import (
    AdaptiveTruncation,
    BeamSplitterSetting,
    InvalidParameter,
    linear_entropy,
    penson_solomon_state,
    photon_statistics,
    truncate,
)
from fockseries.oracle import PrecisionConfig, oracle_entropy, oracle_statistics


def rel_diff(a, b) -> float:
    with mp.workprec(700):
        if b == 0:
            return float(abs(a - b))
        return float(abs(a - b) / abs(b))


class TestOracleStatistics:
    def test_poisson_is_exactly_poissonian(self):
        stats = oracle_statistics(penson_solomon_state(3.0, 0, 1.0))
        assert abs(float(stats.mandel_q)) < 1e-30

    def test_fock_point(self):
        stats = oracle_statistics(penson_solomon_state(0.0, 2, 1.0))
        assert stats.mandel_q == -1
        assert stats.variance == 0

    def test_pinned_value_regenerates(self):
        """Q = -1/2 exactly here; the closed form leaves only the rounding
        of its 256-bit working precision."""
        stats = oracle_statistics(penson_solomon_state(0.5, 1, 0.5))
        assert rel_diff(stats.mandel_q, mp.mpf("-0.5")) < 1e-30

    def test_pinned_value_k3(self):
        stats = oracle_statistics(penson_solomon_state(0.5, 3, 0.5))
        assert float(stats.mandel_q) == -0.2425061762945643

    def test_vacuum_has_no_mandel_q(self):
        stats = oracle_statistics(penson_solomon_state(0.0, 0, 1.0))
        assert stats.mandel_q is None
        assert stats.mean_n == 0
        assert stats.variance == 0

    def test_precision_config_validation(self):
        with pytest.raises(InvalidParameter):
            PrecisionConfig(mantissa_bits=64)


class TestOracleEntropy:
    def test_single_photon_exact(self):
        result = oracle_entropy(penson_solomon_state(0.0, 1, 0.5))
        assert rel_diff(result.linear_entropy, mp.mpf("0.5")) < 1e-30

    def test_coherent_input_separable(self):
        result = oracle_entropy(penson_solomon_state(1.0, 0, 1.0))
        assert abs(float(result.linear_entropy)) < 1e-30

    def test_pinned_value(self):
        result = oracle_entropy(penson_solomon_state(1.0, 1, 0.8))
        assert abs(float(result.linear_entropy) - 0.0761451516954194) < 1e-15


class TestAgainstMainPath:
    """Oracle and double-precision path agree within criterion 4's 1e-9 at
    the large |alpha| the paper reaches, where D runs up to about 1900."""

    @pytest.mark.parametrize("q, k", [(0.5, 3), (0.8, 8)])
    @pytest.mark.parametrize("alpha", [2.0, 3.0, 4.0, 5.0])
    def test_q_and_s_within_1e_9(self, q, k, alpha):
        spec = penson_solomon_state(alpha, k, q)
        series = truncate(spec, AdaptiveTruncation())
        ref_q = float(oracle_statistics(spec).mandel_q)
        ref_s = float(oracle_entropy(spec).linear_entropy)
        assert math.isclose(photon_statistics(series).mandel_q, ref_q, rel_tol=1e-9, abs_tol=1e-9)
        assert math.isclose(linear_entropy(series).linear_entropy, ref_s, rel_tol=1e-9, abs_tol=1e-9)


class TestSelfConsistency:
    def test_doubling_precision_moves_q_and_s_below_1e_25(self):
        """256 -> 512 bits moves Q and S by < 1e-25 relative on the criterion-4 grid."""
        cfg_lo = PrecisionConfig(mantissa_bits=256)
        cfg_hi = PrecisionConfig(mantissa_bits=512)
        setting = BeamSplitterSetting()
        for q in (0.5, 0.8, 1.0):
            for k in (0, 1, 3):
                for alpha in (0.0, 0.5, 1.0, 2.0):
                    spec = penson_solomon_state(alpha, k, q)
                    if not (k == 0 and alpha == 0.0):
                        q_lo = oracle_statistics(spec, cfg_lo).mandel_q
                        q_hi = oracle_statistics(spec, cfg_hi).mandel_q
                        assert rel_diff(q_lo, q_hi) < 1e-25
                    s_lo = oracle_entropy(spec, setting, cfg_lo).linear_entropy
                    s_hi = oracle_entropy(spec, setting, cfg_hi).linear_entropy
                    assert rel_diff(s_lo, s_hi) < 1e-25


class TestReducedParameter:
    """The state depends on (q, k, |alpha|) only through k and
    x = |alpha|^2 q^(-2k), which the oracle's closed forms rest on.  |alpha|
    is drawn below min(5, 20 q^k), so x <= 400."""

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.3, 1.0), st.integers(0, 6), st.floats(0.0, 1.0))
    def test_main_path_sees_only_k_and_x(self, q, k, u):
        alpha = u * min(5.0, 20.0 * q ** k)
        deformed = truncate(penson_solomon_state(alpha, k, q), AdaptiveTruncation())
        plain = truncate(penson_solomon_state(alpha * q ** -k, k, 1.0), AdaptiveTruncation())
        assume(max(deformed.n_max, plain.n_max) + k + 1 <= 600)
        q_deformed, q_plain = (photon_statistics(s).mandel_q for s in (deformed, plain))
        assert q_deformed == q_plain or abs(q_deformed - q_plain) <= 1e-11  # None: mean 0
        assert abs(linear_entropy(deformed).linear_entropy
                   - linear_entropy(plain).linear_entropy) <= 1e-11
