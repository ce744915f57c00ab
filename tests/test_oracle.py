"""Extended-precision oracle: trivial anchors, self-consistency, fixtures."""
import math
from pathlib import Path

import mpmath as mp
import pytest

from fockseries import (
    BeamSplitterSetting,
    DimensionTooLarge,
    InvalidParameter,
    penson_solomon_state,
)
from fockseries.oracle import PrecisionConfig, oracle_entropy, oracle_statistics, write_fixtures

from curve_csv import read_curve_csv

FIXTURE_DIR = Path(__file__).parent / "fixtures" / "oracle"


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

    def test_dimension_cap(self):
        with pytest.raises(DimensionTooLarge):
            oracle_entropy(penson_solomon_state(2.0, 3, 0.5))


class TestSelfConsistency:
    def test_doubling_precision_leaves_fixtures_unchanged(self):
        """256 -> 512 bits moves Q and S by < 1e-25 relative on the fixture grid."""
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


class TestFixtures:
    def test_committed_fixtures_parse_and_carry_metadata(self):
        paths = sorted(FIXTURE_DIR.glob("*.csv"))
        assert len(paths) == 18
        for path in paths:
            metadata, rows = read_curve_csv(path)
            assert metadata["generator"] == "oracle"
            assert metadata["mantissa_bits"] == "256"
            assert metadata["term_floor_rel"] == "1e-40"
            assert rows, f"{path} has no rows"
            for row in rows:
                float(row["alpha"])
                float(row["value"])
                assert row["converged"] == "true"

    def test_vacuum_and_overcap_points_absent(self):
        _, rows = read_curve_csv(FIXTURE_DIR / "mandel_q_q1_k0.csv")
        assert all(float(r["alpha"]) > 0.0 for r in rows)
        _, rows = read_curve_csv(FIXTURE_DIR / "linear_entropy_q0.5_k3.csv")
        assert [float(r["alpha"]) for r in rows] == [0.0, 0.5, 1.0]

    def test_regeneration_is_byte_identical(self, tmp_path):
        """Fixtures are generated, never hand-edited: regenerating the
        mandel_q files must reproduce the committed bytes."""
        written = write_fixtures(tmp_path, observables=("mandel_q",))
        assert len(written) == 9
        for path in written:
            committed = FIXTURE_DIR / path.name
            assert path.read_bytes() == committed.read_bytes()

    def test_fresh_entropy_point_matches_committed_fixture(self):
        _, rows = read_curve_csv(FIXTURE_DIR / "linear_entropy_q0.8_k1.csv")
        row = next(r for r in rows if float(r["alpha"]) == 1.0)
        fresh = oracle_entropy(penson_solomon_state(1.0, 1, 0.8))
        assert abs(float(row["value"]) - float(fresh.linear_entropy)) < 1e-15
