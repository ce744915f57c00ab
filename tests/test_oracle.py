"""Extended-precision oracle: trivial anchors, pinned values, self-consistency."""

import mpmath as mp
import pytest

from fockseries import (
    BeamSplitterSetting,
    DimensionTooLarge,
    InvalidParameter,
    penson_solomon_state,
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
        """Q = -1/2 exactly here; the oracle's residue is set by its own
        1e-40 term floor, far below every comparison tolerance."""
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

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge, match="q=0.5, k=3, .alpha.=2.0"):
            oracle_entropy(penson_solomon_state(2.0, 3, 0.5))


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
                    try:
                        s_lo = oracle_entropy(spec, setting, cfg_lo).linear_entropy
                    except DimensionTooLarge:
                        continue
                    s_hi = oracle_entropy(spec, setting, cfg_hi).linear_entropy
                    assert rel_diff(s_lo, s_hi) < 1e-25
