"""Beam-splitter expansion, reduced purity, and linear entropy."""
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockseries import (
    AdaptiveTruncation,
    BeamSplitterSetting,
    FixedTruncation,
    HardCapExceeded,
    InvalidParameter,
    JointAmplitudes,
    UnnormalizedInput,
    linear_entropy,
    penson_solomon_state,
    reduced_purity,
    split,
    truncate,
)
import fockseries.entangle as entangle
from fockseries.entangle import (
    _BUILD_CELLS,
    MAX_DIM,
    _mass_window,
)
from fockseries.oracle import _beta, oracle_entropy
from fockseries.series import (
    _first_subunit_ratio_index,
    _log_sum,
    _peak_width,
    _ratio_constant,
)

# 256-bit oracle pins
S_Q05_K1_A05 = 0.125                    # exact
S_Q05_K2_A1 = 0.005579452953203966


def series_for(alpha, k, q=0.5):
    return truncate(penson_solomon_state(alpha, k, q), AdaptiveTruncation())


def split_by_antidiagonal(series, setting):
    """Reference joint matrix, filled one total photon number m at a time."""
    k = series.spec.k
    dim = series.n_max + k + 1
    ln_c = 0.5 * (series.rel_log_weights - _log_sum(series.rel_log_weights))
    ln_t = math.log(math.cos(setting.theta))
    ln_r = math.log(math.sin(setting.theta))
    matrix = np.zeros((dim, dim))
    lg = np.array([math.lgamma(m + 1) for m in range(dim + 1)])  # ln m!, as split takes it
    for m in range(k, dim):
        j = np.arange(m + 1)
        ln_binom_half = 0.5 * (lg[m] - lg[j] - lg[m - j])
        matrix[j, m - j] = np.exp(ln_c[m - k] + ln_binom_half + j * ln_t + (m - j) * ln_r)
    return matrix


# (q, k, |alpha|, theta) with |alpha|^2 q^(-2k) <= 72, so D stays below 200
points = st.tuples(st.floats(0.7, 1.0), st.integers(0, 6), st.floats(0.0, 1.0),
                   st.floats(1e-3, math.pi / 2.0))


# (|alpha|, cutoff, theta, D) at (q, k) = (0.5, 3), mostly past the one-block
# sizes the random points reach: the adaptive D = 221, 461 and 669, the fixed
# cutoffs 150 and 700, and n_max = 508, whose D = 512 is a whole number of
# row blocks (while 669 and 704 end in a partial block)
ROW_BLOCK_CASES = [
    (1.375, AdaptiveTruncation(), math.pi / 4.0, 221),
    (2.2, AdaptiveTruncation(), math.pi / 4.0, 461),
    (2.75, AdaptiveTruncation(), math.pi / 4.0, 669),
    (2.75, AdaptiveTruncation(), 1e-3, 669),
    (2.75, AdaptiveTruncation(), 0.3, 669),
    (2.75, AdaptiveTruncation(), math.pi / 2.0, 669),
    (5.0, FixedTruncation(n_max=150), math.pi / 4.0, 154),
    (5.0, FixedTruncation(n_max=700), math.pi / 4.0, 704),
    (3.0, FixedTruncation(n_max=508), 0.3, 512),
]


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
        assert 0.0 <= linear_entropy(fixed, allow_unconverged=True).linear_entropy <= 1.0

    def test_dimension_cap_refuses_before_allocating(self):
        """At alpha = 0 the series is one term, so D = k + 1 sits just past
        the cap and the check fires before the D x D matrix exists."""
        match = f"q=1.0, k={MAX_DIM}, .alpha.=0.0.*D={MAX_DIM + 1}"
        with pytest.raises(HardCapExceeded, match=match):
            split(series_for(0.0, MAX_DIM, q=1.0))

    @pytest.mark.parametrize("alpha, policy, theta, dim", ROW_BLOCK_CASES)
    def test_row_blocks_match_antidiagonal_reference_bitwise(self, alpha, policy, theta, dim):
        series = truncate(penson_solomon_state(alpha, 3, 0.5), policy)
        setting = BeamSplitterSetting(theta)
        a = split(series, setting).matrix
        assert a.shape == (dim, dim)
        assert a.tobytes() == split_by_antidiagonal(series, setting).tobytes()
        assert not np.signbit(a).any()

    def test_build_allocates_no_second_matrix(self):
        """The row blocks share one 2^15-cell scratch buffer, so split's peak
        is the D x D matrix, that buffer, numpy's ufunc buffers (at most 8192
        cells for each broadcast operand) and O(D): less than the matrix and
        two blocks, where half a matrix more would be 1.8 MB at D = 669."""
        series = series_for(2.75, 3)
        tracemalloc.start()
        try:
            amps = split(series)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert amps.matrix.shape == (669, 669)
        assert peak < amps.matrix.nbytes + 2 * 8 * _BUILD_CELLS


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
        broken = JointAmplitudes(amps.matrix * 1.5, amps.norm_tol, amps.spec)
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
            swapped = JointAmplitudes(np.ascontiguousarray(amps.matrix.T), amps.norm_tol,
                                      amps.spec)
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

    def test_result_in_range(self):
        result = linear_entropy(series_for(0.5, 1), setting=BeamSplitterSetting(0.7))
        assert 0.0 < result.purity <= 1.0
        assert 0.0 <= result.linear_entropy < 1.0


def dense_entropy(series, setting=BeamSplitterSetting()):
    return 1.0 - reduced_purity(split(series, setting))


# tail mass each reference Gram column may leave outside its window, relative
# to the mass inside
GRAM_TOL = 1e-20
LN2 = math.log(2.0)


def reference_fock_gram(ln_lam, k):
    """Gram matrix of h_i(j) = lam^((j-i)/2) sqrt(j!)/(j-i)!, i <= k, at
    lam = exp(ln_lam), summed as a Fock series over a window of j that doubles
    until each column's geometric tail bound passes GRAM_TOL.  Each column is
    scaled by lam^(i/2) 2^(-E_i) and all by one constant; returns the Gram
    matrix and the exponents E."""
    lam = math.exp(ln_lam)
    j0 = int(lam)
    n_peak = _first_subunit_ratio_index(lam, k)
    delta = _peak_width(-2.0 * math.log(GRAM_TOL), n_peak, k)
    i = np.arange(k + 1.0)
    while True:
        lo, hi = max(0, j0 - delta), k + n_peak + delta
        j = np.arange(lo, hi + 1.0)
        half_ratio = 0.5 * (ln_lam - np.log(j[1:]))  # ln g(j+1)/g(j)
        c = j0 - lo
        ln_g = np.zeros(j.size)
        np.cumsum(half_ratio[c:], out=ln_g[c + 1:])
        ln_g[:c] = -np.cumsum(half_ratio[:c][::-1])[::-1]
        e0 = np.floor(ln_g * (1.0 / LN2))
        m = np.empty((k + 1, j.size))
        e = np.empty((k + 1, j.size), dtype=np.int32)
        factors, fe = np.frexp(np.maximum(j - i[:k, None], 0.0))
        m[0] = np.exp(ln_g - e0 * LN2)
        np.cumprod(factors, axis=0, out=m[1:])
        m[1:] *= m[0]
        e[0] = e0
        np.cumsum(fe, axis=0, out=e[1:])
        e[1:] += e[0]
        del factors, fe  # before frexp copies m: the window can reach 10^4 rows
        m, de = np.frexp(m)
        e += de
        e[m == 0.0] = -(1 << 30)  # so no column takes its scale from a zero entry
        top = e.max(axis=1)
        e -= top[:, None]
        f = np.ldexp(m, e, out=m)
        gram = f @ f.T
        mass = gram.diagonal()
        rho = lam * (hi + 1) / (hi + 1 - i) ** 2
        ok = np.all((rho < 1.0) & (f[:, -1] ** 2 * rho <= GRAM_TOL * (1.0 - rho) * mass))
        if lo > 0:
            s = (lo - i[:lo]) ** 2 / (lam * lo)
            ok &= np.all((s < 1.0) & (f[:lo, 0] ** 2 * s <= GRAM_TOL * (1.0 - s) * mass[:lo]))
        if ok:
            return gram, top
        delta *= 2


def reference_gram_purity(spec, setting):
    """Purity from the two Fock-series Grams: the splitter sends a†^k|beta>|0>
    to sum_i u_i a†^i b†^(k-i) |t beta>|r beta>, u_i = C(k,i) t^i r^(k-i), so
    with Phi = reference_fock_gram at x t^2, Psi the same at x r^2 and
    M_ii' = u_i u_i' Psi_(k-i, k-i'), the purity is Tr((M Phi)^2)/Tr(M Phi)^2.
    At x = 0, the Fock state |k>, rho_a is diagonal with the binomial weights."""
    k = spec.k
    t, r = math.cos(setting.theta), math.sin(setting.theta)
    x = _ratio_constant(spec) if spec.alpha_abs > 0.0 else 0.0
    comb = np.array([float(math.comb(k, i)) for i in range(k + 1)])
    if x == 0.0:
        i = np.arange(k + 1)
        p = comb * t ** (2 * i) * r ** (2 * (k - i))
        return float(p @ p / p.sum() ** 2)
    phi, e_a = reference_fock_gram(math.log(x) + 2.0 * math.log(t), k)
    psi, e_b = reference_fock_gram(math.log(x) + 2.0 * math.log(r), k)
    mantissa, e_c = np.frexp(comb)
    e = e_c + e_a + e_b[::-1]
    u = np.ldexp(mantissa, e - e.max())
    m_phi = (np.outer(u, u) * psi[::-1, ::-1]) @ phi
    return float(np.sum(m_phi * m_phi.T) / np.trace(m_phi) ** 2)


# (q, k, |alpha|, theta) at the ends of the range the Fock-series reference
# sums: x up to truncate's hard cap, and r^2 or x below the double range
GRAM_EXTREMES = [
    (0.5, 3, 170.0, math.pi / 4.0),   # x = 1.85e6, near truncate's hard cap
    (1.0, 0, 1400.0, 0.3),            # x = 1.96e6
    (0.9, 64, 1.6, 1e-3),             # x = 1.8e6, a reference window of 26000 rows
    (1.0, 3, 1e-160, math.pi / 2.0),  # x = 1e-320, subnormal
    (1.0, 3, 2.0, 1e-300),            # r^2 underflows
    (0.5, 3, 1e-200, math.pi / 4.0),  # x underflows to 0: the Fock value
]


def gram_grid():
    """Seeded (q, k, |alpha|, theta): two draws of q in [0.3, 1] and |alpha| in
    [0, 3] for each k and theta, redrawn while x = |alpha|^2 q^(-2k) passes
    2e6, beyond which truncate refuses the state."""
    rng = np.random.default_rng(19)
    grid = []
    for k in (0, 1, 3, 8, 16, 32, 64):
        for theta in (math.pi / 4.0, 1e-3, 0.3, math.pi / 2.0):
            draws = []
            while len(draws) < 2:
                q, alpha = float(rng.uniform(0.3, 1.0)), float(rng.uniform(0.0, 3.0))
                if alpha * alpha * q ** (-2 * k) <= 2e6:
                    draws.append((q, k, alpha, theta))
            grid += draws
    return grid


def identity_purity(k, x, theta, bits=250):
    """P(theta) = sum_p C(k,p)^2 (2p)! cos(2 theta)^(2p) N_(2k-2p)(2x) /
    (4^k N_k(x)^2) in mpmath, the two-copy identity that _closed_entropy
    evaluates, with N_n(y) = n! L_n(-y) from the three-term recurrence
    N_n = (2n - 1 + y) N_(n-1) - (n-1)^2 N_(n-2) rather than from ratios."""
    with mp.workprec(bits):
        def norms(y, top):
            out = [mp.mpf(1), 1 + y]
            for n in range(2, top + 1):
                out.append((2 * n - 1 + y) * out[-1] - (n - 1) ** 2 * out[-2])
            return out
        x = mp.mpf(x)
        n2, n1 = norms(2 * x, 2 * k), norms(x, k)
        c2 = mp.cos(2 * mp.mpf(theta)) ** 2
        return mp.fsum(math.comb(k, p) ** 2 * math.factorial(2 * p) * c2 ** p * n2[2 * k - 2 * p]
                       for p in range(k + 1)) / (mp.mpf(4) ** k * n1[k] ** 2)


def assert_matches_the_gram_reference(spec, setting):
    """linear_entropy's purity is within 1e-15 of the Fock-series
    reference_gram_purity."""
    purity = linear_entropy(truncate(spec, AdaptiveTruncation()), setting).purity
    assert abs(purity - reference_gram_purity(spec, setting)) <= 1e-15


class TestGramPath:
    """A converged series takes S from the two-copy closed form, in O(k) at
    any k; an unconverged one takes split and reduced_purity."""

    @pytest.mark.parametrize("q, k, theta", [
        (0.5, 1, math.pi / 4.0), (0.5, 3, math.pi / 4.0), (0.8, 4, math.pi / 4.0),
        (0.8, 8, math.pi / 4.0), (0.5, 3, 1e-3), (0.5, 3, 0.3), (0.5, 3, math.pi / 2.0)])
    def test_matches_the_oracle(self, q, k, theta):
        setting = BeamSplitterSetting(theta)
        for alpha in np.linspace(0.0, 5.0, 21):
            spec = penson_solomon_state(float(alpha), k, q)
            s = linear_entropy(truncate(spec, AdaptiveTruncation()), setting).linear_entropy
            assert abs(s - float(oracle_entropy(spec, setting).linear_entropy)) <= 1e-15

    @pytest.mark.parametrize("q, k, alpha", [(0.7, 2, 1.0), (0.5, 3, 0.5), (1.0, 1, 2.0),
                                             (0.8, 8, 0.3)])
    def test_fully_reflecting_matches_the_oracle_relatively(self, q, k, alpha):
        """cos(pi/2) is 6.1e-17 in doubles, so S is about 1e-32, not 0: the
        S sum carries its relative digits where 1 - P would read 0."""
        spec = penson_solomon_state(alpha, k, q)
        setting = BeamSplitterSetting(math.pi / 2.0)
        s = linear_entropy(truncate(spec, AdaptiveTruncation()), setting).linear_entropy
        ref = float(oracle_entropy(spec, setting).linear_entropy)
        assert 0.0 < ref < 1e-30
        assert abs(s / ref - 1.0) <= 1e-12

    @pytest.mark.parametrize("q, k, alpha, theta", [
        (0.5, 1, 0.5, math.pi / 4.0), (0.5, 3, 1.0, 0.3), (0.8, 4, 0.0, 1e-3),
        (0.8, 8, 0.4, 1.2), (1.0, 0, 2.0, math.pi / 2.0), (0.9, 6, 2.5, 0.05)])
    def test_identity_matches_the_oracle(self, q, k, alpha, theta):
        """identity_purity, the large-k reference below, shares its formula
        with _closed_entropy; the oracle's Gram form shares none."""
        spec = penson_solomon_state(alpha, k, q)
        setting = BeamSplitterSetting(theta)
        with mp.workprec(256):
            gap = (identity_purity(k, _beta(spec) ** 2, theta, bits=256)
                   - oracle_entropy(spec, setting).purity)
        assert abs(gap) <= 1e-60

    @pytest.mark.parametrize("k", [200, 1000])
    def test_matches_the_identity_at_large_k(self, k):
        """q = 1, where the Gram oracle takes minutes a point; x = 1e-3 at
        small theta is where a double-precision walk erred most (4.1e-15 at
        k = 1000)."""
        for x in (0.0, 1e-4, 1e-3, 1.0, 4.0):
            spec = penson_solomon_state(math.sqrt(x), k, 1.0)
            series = truncate(spec, AdaptiveTruncation())
            assert series.converged
            for theta in (math.pi / 4.0, 0.3, 0.05):
                s = linear_entropy(series, BeamSplitterSetting(theta)).linear_entropy
                ref = 1 - identity_purity(k, _ratio_constant(spec), theta)
                assert abs(s - float(ref)) <= 1e-15, (k, x, theta)

    @pytest.mark.parametrize("k", [0, 1, 128])
    @pytest.mark.parametrize("x", [0.0, 1e-300, 1e-12, 1.96e6])
    @pytest.mark.parametrize("theta", [math.pi / 4.0, 1e-3])
    def test_matches_the_identity_at_the_end_peaks(self, k, x, theta):
        """The ends of x: the Fock state |k>; x = 1e-300, whose 2x the 80-bit
        walk rounds to 0; x = 1e-12, a walk step of a few units of 2^-80; and
        x = 1.96e6, near truncate's hard cap, where 2x outweighs every g_n."""
        spec = penson_solomon_state(math.sqrt(x), k, 1.0)
        series = truncate(spec, AdaptiveTruncation())
        assert series.converged
        s = linear_entropy(series, BeamSplitterSetting(theta)).linear_entropy
        ref = 1 - identity_purity(k, _ratio_constant(spec), theta)
        assert abs(s - float(ref)) <= 1e-15

    @pytest.mark.parametrize("k", [*range(9), 128, 1000])
    def test_fock_value_at_zero_alpha(self, k):
        """1 - C(2k,k)/4^k at a 50:50 splitter."""
        s = linear_entropy(series_for(0.0, k)).linear_entropy
        assert abs(s - (1.0 - math.comb(2 * k, k) / 4 ** k)) <= 1e-15

    def test_builds_no_joint_matrix(self, monkeypatch):
        """At q=0.3, k=5, |alpha|=1 the dense D would be 172521."""
        def refuse(*args, **kwargs):
            raise AssertionError("dense path called")
        monkeypatch.setattr(entangle, "split", refuse)
        monkeypatch.setattr(entangle, "reduced_purity", refuse)
        for k in (0, 5, 128, 129, 1000):
            series = truncate(penson_solomon_state(1.0, k, 0.3 if k == 5 else 1.0),
                              AdaptiveTruncation())
            assert 0.0 <= linear_entropy(series).linear_entropy < 1.0

    def test_dense_path_for_unconverged_series(self):
        fixed = truncate(penson_solomon_state(3.0, 3, 0.5), FixedTruncation(n_max=100))
        assert not fixed.converged
        result = linear_entropy(fixed, allow_unconverged=True)
        assert result.purity == reduced_purity(split(fixed))

    @pytest.mark.parametrize("k", [128, 129])
    @pytest.mark.parametrize("alpha", [0.5, 5.0])
    def test_both_paths_agree_at_the_crossover(self, alpha, k):
        """The dense path's own error grows with k, to about 1e-11 by k = 136."""
        series = series_for(alpha, k, q=1.0)
        assert abs(linear_entropy(series).linear_entropy - dense_entropy(series)) <= 1e-11

    @settings(max_examples=60, deadline=None)
    @given(points)
    def test_agrees_with_the_dense_path(self, point):
        q, k, alpha, theta = point
        series = series_for(alpha, k, q)
        setting = BeamSplitterSetting(theta)
        gram = linear_entropy(series, setting).linear_entropy
        assert abs(gram - max(dense_entropy(series, setting), 0.0)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.5, 1.0), st.integers(0, 128),
           st.just(0.0) | st.floats(1e-8, 1e4), st.floats(1e-3, math.pi / 2.0))
    @example(1.0, 1, 0.0, math.pi / 4.0)  # |1> on a 50:50 splitter: S = 1/2 exactly
    def test_within_the_schmidt_rank_bound(self, q, k, x, theta):
        """The joint amplitudes have rank at most k+1, so the purity is at
        least 1/(k+1): 0 <= S <= k/(k+1)."""
        series = series_for(math.sqrt(x) * q ** k, k, q)
        assert series.converged
        s = linear_entropy(series, BeamSplitterSetting(theta)).linear_entropy
        assert 0.0 <= s <= k / (k + 1)

    @pytest.mark.parametrize("q, k, alpha, theta", GRAM_EXTREMES + [
        (1.0, 128, 1400.0, 1e-300),         # x = 1.96e6 and sin^2(2 theta) underflows
        (1.0, 128, 1e-160, math.pi / 4.0)])  # x = 1e-320, subnormal
    def test_no_runtime_warning_at_the_extremes(self, q, k, alpha, theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            s = linear_entropy(series_for(alpha, k, q), BeamSplitterSetting(theta)).linear_entropy
        assert 0.0 <= s < 1.0

    @pytest.mark.parametrize("q, k, alpha, theta", gram_grid())
    def test_matches_the_gram_reference(self, q, k, alpha, theta):
        assert_matches_the_gram_reference(penson_solomon_state(alpha, k, q),
                                          BeamSplitterSetting(theta))

    @pytest.mark.parametrize("q, k, alpha, theta", GRAM_EXTREMES)
    def test_matches_the_gram_reference_at_the_extremes(self, q, k, alpha, theta):
        assert_matches_the_gram_reference(penson_solomon_state(alpha, k, q),
                                          BeamSplitterSetting(theta))

    @pytest.mark.parametrize("q, k, alpha, theta", [
        (0.5, 3, 2.0, 0.3), (1.0, 0, 1.5, math.pi / 4.0), (0.8, 8, 1.0, 1e-3),
        (0.95, 32, 2.5, math.pi / 2.0)])
    def test_matches_the_gram_reference_through_doubling(self, monkeypatch, q, k, alpha, theta):
        """The Fock-series reference reads _peak_width at call time, so it
        starts from a width of 1 and doubles its window until every column's
        tail bound passes; the closed form still matches it."""
        monkeypatch.setitem(globals(), "_peak_width", lambda z2, n_peak, k: 1)
        assert_matches_the_gram_reference(penson_solomon_state(alpha, k, q),
                                          BeamSplitterSetting(theta))

    def test_largest_window_memory(self):
        """(0.9, 64, 1.6) at theta = 1e-3 needs the Fock-series reference's
        largest window, 26000 rows by 65 columns; the closed form's call
        stays within 1 MiB."""
        series = series_for(1.6, 64, q=0.9)
        tracemalloc.start()
        try:
            linear_entropy(series, BeamSplitterSetting(1e-3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 ** 20

    def test_memory_is_two_doubles_per_added_photon(self):
        """At k = 2e4 the closed form keeps k term ratios and k+1 terms in
        arrays of doubles (about 320 KB); a list of k Python floats alone
        would take about 640 KB."""
        series = series_for(1.0, 20_000, q=1.0)
        tracemalloc.start()
        try:
            linear_entropy(series, BeamSplitterSetting(0.3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 24 * 20_000
