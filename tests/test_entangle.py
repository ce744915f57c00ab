"""Beam-splitter expansion, reduced purity, and linear entropy."""
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from fockseries import (
    AdaptiveTruncation,
    BeamSplitterSetting,
    FixedTruncation,
    HardCapExceeded,
    InvalidParameter,
    UnnormalizedInput,
    linear_entropy,
    penson_solomon_state,
    reduced_purity,
    split,
    truncate,
)
from fockseries.entangle import MAX_DIM, _mass_window
from fockseries.series import normalization_log

# 256-bit oracle pins
S_Q05_K1_A05 = 0.125                    # exact
S_Q05_K2_A1 = 0.005579452953203966


def series_for(alpha, k, q=0.5):
    return truncate(penson_solomon_state(alpha, k, q), AdaptiveTruncation())


def split_by_antidiagonal(series, setting):
    """Reference joint matrix, filled one total photon number m at a time."""
    k = series.spec.k
    dim = series.n_max + k + 1
    ln_c = normalization_log(series) + 0.5 * series.log_weights
    ln_t = math.log(math.cos(setting.theta))
    ln_r = math.log(math.sin(setting.theta))
    matrix = np.zeros((dim, dim))
    lg = gammaln(np.arange(dim + 1, dtype=np.float64) + 1.0)
    for m in range(k, dim):
        j = np.arange(m + 1)
        ln_binom_half = 0.5 * (lg[m] - lg[j] - lg[m - j])
        matrix[j, m - j] = np.exp(ln_c[m - k] + ln_binom_half + j * ln_t + (m - j) * ln_r)
    return matrix


# (q, k, |alpha|, theta) with |alpha|^2 q^(-2k) <= 72, so D stays below 200
points = st.tuples(st.floats(0.7, 1.0), st.integers(0, 6), st.floats(0.0, 1.0),
                   st.floats(1e-3, math.pi / 2.0))


def dense_purity(a):
    """Reference Tr(rho_a^2) from the full D x D Gram matrix."""
    return float(np.sum((a @ a.T) ** 2))


def fock_entropy(k: int) -> float:
    """Closed form at |alpha| = 0 and theta = pi/4: S = 1 - sum_j (C(k,j)/2^k)^2."""
    return 1.0 - sum((math.comb(k, j) / 2.0 ** k) ** 2 for j in range(k + 1))


class TestBeamSplitterSetting:
    def test_default_is_balanced(self):
        setting = BeamSplitterSetting()
        assert setting.theta == math.pi / 4.0

    def test_theta_domain(self):
        BeamSplitterSetting(math.pi / 2.0)  # fully reflecting edge is allowed
        for bad in (0.0, -0.5, math.pi, math.nan):
            with pytest.raises(InvalidParameter):
                BeamSplitterSetting(bad)


class TestSplit:
    def test_single_photon_splits_evenly(self):
        amps = split(series_for(0.0, 1))
        a = amps.matrix
        assert a.shape == (2, 2)
        assert abs(a[1, 0] - 1.0 / math.sqrt(2.0)) < 1e-15
        assert abs(a[0, 1] - 1.0 / math.sqrt(2.0)) < 1e-15
        assert a[0, 0] == 0.0

    def test_two_photon_binomial_weights(self):
        amps = split(series_for(0.0, 2))
        a = amps.matrix
        assert abs(a[2, 0] ** 2 - 0.25) < 1e-14
        assert abs(a[1, 1] ** 2 - 0.50) < 1e-14
        assert abs(a[0, 2] ** 2 - 0.25) < 1e-14

    def test_fully_reflecting_limit(self):
        """At theta = pi/2 all amplitude sits in the reflected column."""
        series = series_for(1.0, 2)
        amps = split(series, setting=BeamSplitterSetting(math.pi / 2.0))
        a = amps.matrix
        # column j=0 carries c_m; everything else is suppressed by t ~ 1e-16
        assert np.abs(a[1:, :]).max() < 1e-14
        norm_col = np.sum(a[0, :] ** 2)
        assert abs(norm_col - 1.0) < 1e-12

    def test_unitarity_preserves_norm(self):
        for (alpha, k, q) in [(0.8, 0, 1.0), (1.5, 2, 0.5), (2.0, 1, 0.8)]:
            series = series_for(alpha, k, q)
            amps = split(series, setting=BeamSplitterSetting(0.9))
            norm = float(np.sum(amps.matrix ** 2))
            assert abs(norm - 1.0) <= 2.0 * series.tail_bound_rel + 1e-12

    def test_vanishing_below_k_photons(self):
        amps = split(series_for(0.7, 3))
        a = amps.matrix
        for j in range(3):
            for l in range(3 - j):
                assert a[j, l] == 0.0

    def test_unconverged_requires_opt_in(self):
        fixed = truncate(penson_solomon_state(5.0, 3, 0.5), FixedTruncation(n_max=100))
        assert split(fixed).matrix.shape == (104, 104)
        with pytest.raises(InvalidParameter, match="not converged"):
            linear_entropy(fixed)
        assert not linear_entropy(fixed, allow_unconverged=True).converged

    def test_dimension_cap_refuses_before_allocating(self):
        """At alpha = 0 the series is one term, so D = k + 1 sits just past
        the cap and the check fires before the D x D matrix exists."""
        match = f"q=1.0, k={MAX_DIM}, .alpha.=0.0.*D={MAX_DIM + 1}"
        with pytest.raises(HardCapExceeded, match=match):
            split(series_for(0.0, MAX_DIM, q=1.0))


class TestSplitProperties:
    @settings(max_examples=60, deadline=None)
    @given(points)
    def test_matches_antidiagonal_reference_bitwise(self, point):
        q, k, alpha, theta = point
        series = series_for(alpha, k, q)
        setting = BeamSplitterSetting(theta)
        a = split(series, setting).matrix
        assert a.tobytes() == split_by_antidiagonal(series, setting).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(points)
    def test_zero_off_the_photon_number_support(self, point):
        q, k, alpha, theta = point
        a = split(series_for(alpha, k, q), BeamSplitterSetting(theta)).matrix
        dim = a.shape[0]
        m = np.add.outer(np.arange(dim), np.arange(dim))
        off = a[(m < k) | (m >= dim)]
        assert np.all(off == 0.0) and not np.signbit(off).any()

    @settings(max_examples=60, deadline=None)
    @given(points)
    def test_entropy_within_its_range(self, point):
        """0 <= S <= 1 - 1/D.  A coherent input's (k = 0) purity can round a
        few ulps above 1; S is clamped at 0 there."""
        q, k, alpha, theta = point
        series = series_for(alpha, k, q)
        s = linear_entropy(series, BeamSplitterSetting(theta)).linear_entropy
        dim = series.n_max + k + 1
        assert 0.0 <= s <= 1.0 - 1.0 / dim


class TestReducedPurity:
    def test_single_photon_purity(self):
        """rho_a = diag(1/2, 1/2) for one photon on a balanced splitter."""
        assert abs(reduced_purity(split(series_for(0.0, 1))) - 0.5) < 1e-14

    def test_two_photon_purity(self):
        """Diagonal rho_a from binomial weights: 1/16 + 1/4 + 1/16 = 3/8."""
        assert abs(reduced_purity(split(series_for(0.0, 2))) - 0.375) < 1e-14

    def test_coherent_input_stays_pure(self):
        """A beam splitter maps coherent (x) vacuum to a coherent product."""
        for theta in (0.3, math.pi / 4.0, 1.2):
            for alpha in (0.5, 2.0):
                series = series_for(alpha, 0, 1.0)
                purity = reduced_purity(split(series, setting=BeamSplitterSetting(theta)))
                assert abs(purity - 1.0) < 1e-12

    def test_unnormalized_input_rejected(self):
        amps = split(series_for(0.0, 1))
        broken = dataclasses.replace(amps, matrix=amps.matrix * 1.5)
        match = r"^q=0.5, k=1, .alpha.=0.0: joint amplitudes have squared norm 2.25"
        with pytest.raises(UnnormalizedInput, match=match):
            reduced_purity(broken)

    def test_norm_check_allocates_no_second_matrix(self):
        """The row and column masses and the 32-row Gram blocks need O(D)
        and 32 x W extra memory, never a second D x D array."""
        amps = split(series_for(2.75, 3))
        tracemalloc.start()
        try:
            reduced_purity(amps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < amps.matrix.nbytes / 10

    def test_rounding_floor_grows_with_the_log_terms(self):
        """At q=0.3, k=5, |alpha|=0.12 (D=2837) the log terms reach about
        2e4 and the squared norm misses 1 by 1.4e-12 from rounding alone,
        past a fixed 1e-12 floor but within eps times that magnitude."""
        series = series_for(0.12, 5, q=0.3)
        amps = split(series)
        assert amps.matrix.shape[0] == 2837
        floor = amps.norm_tol - 10.0 * series.tail_bound_rel
        assert floor > 16.0 * np.finfo(np.float64).eps * 1e4
        assert 1.0 / 2837 < reduced_purity(amps) < 1.0

    @settings(max_examples=60, deadline=None)
    @given(points)
    def test_matches_dense_gram(self, point):
        """theta down to 1e-3 leaves very rectangular mass boxes."""
        q, k, alpha, theta = point
        amps = split(series_for(alpha, k, q), BeamSplitterSetting(theta))
        assert abs(reduced_purity(amps) - dense_purity(amps.matrix)) <= 1e-14

    @pytest.mark.parametrize("theta", [math.pi / 4.0, 0.3])
    def test_matches_dense_gram_at_the_range_end(self, theta):
        """|alpha| = 5 at q=0.5, k=3 is the largest D (1923) of the paper's range."""
        amps = split(series_for(5.0, 3), BeamSplitterSetting(theta))
        assert amps.matrix.shape[0] == 1923
        assert abs(reduced_purity(amps) - dense_purity(amps.matrix)) <= 1e-14

    def test_mass_window_trims_light_edges(self):
        """Each edge loses its longest run of cumulative mass <= 1e-30; the
        entry that takes the run past 1e-30 stays."""
        mass = np.array([0.0, 5e-31, 5e-31, 1e-31, 0.5, 0.5, 1e-30, 0.0])
        assert _mass_window(mass) == (3, 6)
        assert _mass_window(np.array([1.0])) == (0, 1)

    def test_single_cell_matrix_keeps_its_cell(self):
        """The vacuum splits to the 1 x 1 matrix [[1.0]]."""
        amps = split(series_for(0.0, 0, q=1.0))
        assert amps.matrix.shape == (1, 1)
        assert reduced_purity(amps) == 1.0

    def test_schmidt_symmetry(self):
        """Purity of the transmitted mode equals that of the reflected mode
        (rows of A versus columns of A), for unbalanced theta too."""
        for theta in (0.4, 0.9, 1.3):
            amps = split(series_for(1.3, 2), setting=BeamSplitterSetting(theta))
            swapped = dataclasses.replace(amps, matrix=np.ascontiguousarray(amps.matrix.T))
            assert abs(reduced_purity(amps) - reduced_purity(swapped)) < 1e-12


class TestLinearEntropy:
    def test_fock_closed_forms(self):
        """S(k) = 1 - sum_j (C(k,j) 2^-k)^2 at |alpha| = 0 on a 50:50 splitter."""
        for k in range(1, 7):
            result = linear_entropy(series_for(0.0, k))
            assert abs(result.linear_entropy - fock_entropy(k)) < 1e-12
        assert abs(fock_entropy(1) - 0.5) < 1e-15
        assert abs(fock_entropy(2) - 0.625) < 1e-15

    def test_coherent_input_separable(self):
        result = linear_entropy(series_for(2.0, 0, 1.0))
        assert abs(result.linear_entropy) < 1e-12

    def test_oracle_pinned_values(self):
        s1 = linear_entropy(series_for(0.5, 1)).linear_entropy
        assert abs(s1 - S_Q05_K1_A05) < 1e-12
        s2 = linear_entropy(series_for(1.0, 2)).linear_entropy
        assert abs(s2 - S_Q05_K2_A1) <= 1e-9 * S_Q05_K2_A1

    def test_fully_reflecting_gives_product_output(self):
        for (alpha, k, q) in [(0.0, 2, 0.5), (1.5, 1, 0.8), (2.0, 0, 1.0)]:
            series = series_for(alpha, k, q)
            result = linear_entropy(series, setting=BeamSplitterSetting(math.pi / 2.0))
            assert abs(result.linear_entropy) < 1e-12

    def test_phase_convention_independence(self):
        """Attaching the alternate i^l phase to the reflected arm must leave
        S unchanged: the phases cancel inside rho_a."""
        for (alpha, k) in [(0.0, 2), (0.8, 1), (1.5, 3)]:
            plain = split(series_for(alpha, k))
            dim = plain.matrix.shape[1]
            phased = plain.matrix * 1j ** np.arange(dim)
            rho_a = phased @ phased.conj().T
            phased_purity = float(np.sum(np.abs(rho_a) ** 2))
            assert abs(reduced_purity(plain) - phased_purity) < 1e-12

    def test_entropy_decreases_with_alpha(self):
        """Entanglement tracks input nonclassicality, which fades as the
        coherent amplitude grows."""
        values = [linear_entropy(series_for(a, 2)).linear_entropy
                  for a in (0.0, 0.5, 1.0, 2.0)]
        assert all(v1 > v2 for v1, v2 in zip(values, values[1:]))

    def test_result_carries_flag(self):
        result = linear_entropy(series_for(0.5, 1), setting=BeamSplitterSetting(0.7))
        assert result.converged
        assert 0.0 < result.purity <= 1.0
        assert 0.0 <= result.linear_entropy < 1.0
