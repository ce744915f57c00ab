"""Series weights, certified truncation, and photon statistics."""
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import gammaln, logsumexp

import fockseries
import fockseries.series as series
import fockseries.sweep as sweep
from fockseries import (
    DEFAULT_HARD_CAP,
    DEFAULT_REL_TOL,
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
from fockseries.entangle import BeamSplitterSetting, linear_entropy
from fockseries.oracle import oracle_statistics
from fockseries.series import (
    _CLOSED_FORM_MAX_K,
    TruncatedSeries,
    _closed_statistics,
    _first_subunit_ratio_index,
    _logsumexp,
    _point,
    _ratio,
    _ratio_constant,
    _retained_statistics,
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

    def test_numpy_integers_accepted_bools_and_floats_rejected(self):
        """n is checked against numbers.Integral, which numpy's integers
        register with; a bool and a float, numpy's too, stay rejected."""
        spec = penson_solomon_state(2.0, 0, 1.0)
        assert log_weight(spec, np.int64(5)) == log_weight(spec, 5)
        for n in (True, 5.0, np.float64(5)):
            with pytest.raises(InvalidParameter):
                log_weight(spec, n)


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

    @pytest.mark.parametrize("k, q", [(0, 1.0), (3, 0.5), (2_000_000, 1.0), (1, 1e-300)])
    def test_ratio_constant_is_zero_at_zero_amplitude(self, k, q):
        """No math.log(0.0), and no overflow of q^(-2k) at q = 1e-300."""
        assert _ratio_constant(penson_solomon_state(0.0, k, q)).hex() == (0.0).hex()

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
    """The first n with term ratio below 1 anchors every series' log-ratio
    sums, so it fixes output bytes."""

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(log_uniform_cs(ks), crossing_cs(ks)))
    def test_first_subunit_index_against_brute_force(self, point):
        c, k = point
        assume(_ratio(c, k, DEFAULT_HARD_CAP) < 1.0)  # what the adaptive path accepts
        n = _first_subunit_ratio_index(c, k)
        assert _ratio(c, k, n) < 1.0
        assert n == 0 or _ratio(c, k, n - 1) >= 1.0


def reference_truncate_adaptive(spec, policy):
    """truncate's adaptive path one Python iteration per term past the peak,
    each ln w_n from log-gamma (scipy's gammaln below the peak, math.lgamma
    from it), summed with a running maximum: an independent path to the same
    stop, bound and errors.  It keeps two terms at least, so that a lone w_0
    never reads as the vacuum."""
    k = spec.k
    ln_a, ln_inv_q, c = math.log(spec.alpha_abs), math.log(1.0 / spec.q), _ratio_constant(spec)
    if not math.isfinite(c) or _ratio(c, k, DEFAULT_HARD_CAP) >= 1.0:
        raise HardCapExceeded(
            f"{_point(spec)}: term ratio stays >= 1 at hard_cap={DEFAULT_HARD_CAP}; "
            "the series peak is beyond desk scale")
    n_peak = _first_subunit_ratio_index(c, k)
    ns = np.arange(n_peak, dtype=np.float64)
    bulk = (2.0 * ns * ln_a + gammaln(ns + k + 1.0) - 2.0 * gammaln(ns + 1.0)
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
        if r < 1.0 and n >= 1:
            bound = math.exp(lw - m) * r / (1.0 - r) / scaled_sum
            if bound <= policy.rel_tol:
                lws = np.concatenate((bulk, tail))
                return TruncatedSeries(spec=spec, rel_log_weights=lws - lws[n_peak],
                                       anchor=n_peak, tail_bound_rel=bound, converged=True)
        n += 1
    raise HardCapExceeded(
        f"{_point(spec)}: adaptive truncation passed hard_cap={DEFAULT_HARD_CAP} "
        f"without certifying rel_tol={policy.rel_tol}")


def log_weight_scale(spec, n):
    """Sum of the magnitudes of ln w_n's four terms: each of the two paths
    rounds ln w_n to within a few ulps of it (see the tolerance below)."""
    k = spec.k
    return (2.0 * n * abs(math.log(spec.alpha_abs)) + math.lgamma(n + k + 1.0)
            + 2.0 * math.lgamma(n + 1.0) + (k * (k - 1) + 2.0 * n * k) * math.log(1.0 / spec.q))


# |ln w_n - reference| <= this many ulps of the largest log_weight_scale in
# the series.  The reference rounds about six terms of up to that scale; the
# kernel rounds ln w at the peak alike and then adds one log-ratio a term,
# whose magnitudes (ln c, ln(n+k+1), 2 ln(n+1)) sum over n to at most the scale.
LOG_WEIGHT_ULPS = 32.0


def assert_same_truncation(spec, policy):
    """truncate and the reference stop at the same n with the same verdict,
    or raise the same error; log-weights and bound agree to the tolerance."""
    try:
        ref = reference_truncate_adaptive(spec, policy)
    except HardCapExceeded as exc:
        with pytest.raises(HardCapExceeded) as got:
            truncate(spec, policy)
        assert str(got.value) == str(exc)
        return
    got = truncate(spec, policy)
    assert got.n_max == ref.n_max
    assert got.converged is ref.converged is True
    n_peak = _first_subunit_ratio_index(_ratio_constant(spec), spec.k)
    eps = np.finfo(np.float64).eps
    atol = LOG_WEIGHT_ULPS * eps * max(
        1.0, log_weight_scale(spec, got.n_max), log_weight_scale(spec, n_peak))
    assert np.max(np.abs(got.log_weights - ref.log_weights)) <= atol
    # the bound is a term over a sum of terms, exp(ln w) each: relative error
    # 2 atol from the logs, plus the rounding of the sums and r/(1 - r)
    assert type(got.tail_bound_rel) is float
    rtol = 2.0 * atol + 64 * eps
    assert abs(got.tail_bound_rel - ref.tail_bound_rel) <= rtol * ref.tail_bound_rel


class TestChunkedTail:
    """The adaptive path, which sums log-ratios in a window that doubles until
    it holds the stop, against the term-at-a-time reference: the same stop,
    verdict and errors, and log-weights and bound to a stated tolerance."""

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(log_uniform_cs(st.integers(0, 200)), crossing_cs(st.integers(0, 200))),
           st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.3, 1.0)),
           st.sampled_from([5e-324, 1e-320, 1e-30, 1e-20, 1e-14, 1e-8, 0.5]))
    def test_matches_term_at_a_time_loop(self, point, q, rel_tol):
        c, k = point
        # q = 1 or 1/2 scales sqrt(c) exactly, so a crossing keeps its ulps
        alpha = math.sqrt(c) * q ** k
        assume(alpha > 0.0)
        assert_same_truncation(penson_solomon_state(alpha, k, q), AdaptiveTruncation(rel_tol))

    def test_rescale_past_the_peak(self):
        """At c = (N+1)^2/(N+k+1), N = 1003, k = 3, the term ratio at N rounds
        below 1, yet ln w_{N+1} > ln w_N in float: the tail's second term is
        a new maximum too, so the reference rescales its sum at N and N + 1."""
        spec = penson_solomon_state(31.638725281495372, 3, 1.0)
        assert _first_subunit_ratio_index(_ratio_constant(spec), 3) == 1003
        lws = reference_truncate_adaptive(spec, AdaptiveTruncation()).log_weights
        assert lws[1004] > lws[1003] > lws[:1003].max()
        assert_same_truncation(spec, AdaptiveTruncation())

    @pytest.mark.parametrize("alpha, k", [(1e-3, 100_000), (300.0, 0), (255.0, 0)])
    def test_windows_past_the_lgamma_table_cap(self, alpha, k):
        """n + k past 2^16, the size of the ln m! table the weights once took
        from math.lgamma: from a large k, from a peak that far out, and from
        a nearer peak whose tail runs that far."""
        spec = penson_solomon_state(alpha, k, 1.0)
        assert truncate(spec, AdaptiveTruncation()).n_max + k > 1 << 16
        assert_same_truncation(spec, AdaptiveTruncation())

    def test_largest_k_allocates_no_table(self):
        """At k = 2e6 the series has a dozen terms; no ln m! table is built."""
        assert adaptive_truncate_peak_bytes(1e-3, 2_000_000, 1.0) < 1 << 20


def fresh_process_stdout(code):
    """What the code prints, run in a new interpreter on this fockseries."""
    src = Path(fockseries.__file__).resolve().parent.parent
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def adaptive_truncate_peak_bytes(alpha, k, q):
    """tracemalloc's peak over one adaptive truncate call, in a fresh
    process, so that no earlier allocation is counted.  numpy is imported
    before tracing starts: fockseries imports it where a call first builds
    an array, and that import's own allocations are not the call's."""
    return int(fresh_process_stdout(
        "import tracemalloc\n"
        "import numpy\n"
        "from fockseries import AdaptiveTruncation, penson_solomon_state, truncate\n"
        f"spec = penson_solomon_state({alpha!r}, {k!r}, {q!r})\n"
        "tracemalloc.start()\n"
        "truncate(spec, AdaptiveTruncation())\n"
        "print(tracemalloc.get_traced_memory()[1])\n"))


def sum_outward(log_ratios, anchor):
    """ln(v_n/v_anchor) for n <= log_ratios.size, from the log-ratios
    ln(v_{n+1}/v_n), summed outward from the anchor in both directions, with
    reversed copies and a negated temporary: _log_ratio_sums must equal it
    bit for bit."""
    out = np.zeros(log_ratios.size + 1)
    np.add.accumulate(log_ratios[anchor:], out=out[anchor + 1:])
    out[:anchor] = -np.add.accumulate(log_ratios[:anchor][::-1])[::-1]
    return out


def direct_log_ratio_sums(k, ln_c, anchor, size):
    """_log_ratio_sums with its index arrays built on every call, as before
    the cached table."""
    m = np.arange(1.0, size)  # n + 1
    return sum_outward(ln_c + np.log(m + k) - 2.0 * np.log(m), anchor)


def direct_truncate(spec, policy):
    """truncate with its log-ratio kernel computing its index arrays directly."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(series, "_log_ratio_sums", direct_log_ratio_sums)
        return truncate(spec, policy)


def assert_same_bits(spec, policy):
    """truncate and direct_truncate agree bit for bit, or raise the same error."""
    try:
        ref = direct_truncate(spec, policy)
    except HardCapExceeded as exc:
        with pytest.raises(HardCapExceeded) as got:
            truncate(spec, policy)
        assert str(got.value) == str(exc)
        return
    got = truncate(spec, policy)
    assert got.log_weights.tobytes() == ref.log_weights.tobytes(), _point(spec)
    assert got.tail_bound_rel.hex() == ref.tail_bound_rel.hex(), _point(spec)
    assert (got.n_max, got.converged) == (ref.n_max, ref.converged), _point(spec)


def index_table_grid(size=300, seed=23):
    """Seeded (spec, policy): k in {0..8, 64, 128, 300, 2e6}, x log-uniform in
    [1e-12, 2e6] (up to 1e-3 at k = 2e6, q = 1), adaptive rel_tol in
    [1e-30, 1e-8] or a fixed cutoff in 0..700."""
    rng = np.random.default_rng(seed)
    ks = [*range(9), 64, 128, 300, 2_000_000]
    for _ in range(size):
        k = int(rng.choice(ks))
        q = 1.0 if k == 2_000_000 else float(rng.uniform(0.3, 1.0))
        x = math.exp(rng.uniform(math.log(1e-12), math.log(1e-3 if k == 2_000_000 else 2e6)))
        policy = (AdaptiveTruncation(10.0 ** rng.uniform(-30, -8)) if rng.random() < 0.5
                  else FixedTruncation(n_max=int(rng.integers(0, 701))))
        yield penson_solomon_state(math.sqrt(x) * q ** k, k, q), policy


@pytest.fixture
def empty_table(monkeypatch):
    """An unbuilt index table, restored to the shared one afterwards."""
    monkeypatch.setattr(series, "_table", None)


class TestIndexTable:
    """truncate takes ln j and 2 ln j from a table of _TABLE_CAP columns,
    past which it computes them; either way the bits are those of arrays
    built afresh on every call."""

    def test_same_bits_on_a_seeded_grid(self, empty_table):
        for spec, policy in index_table_grid():
            assert_same_bits(spec, policy)

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_same_bits_at_the_cap(self, empty_table, offset):
        """The log-ratio sums of 502 terms and a fixed-cutoff series each
        needing _TABLE_CAP + offset columns (k + size - 1), and the adaptive
        window of that k > 128, whose ratios are _ratio's."""
        k, c = series._TABLE_CAP + offset - 501, 0.25
        got = series._log_ratio_sums(k, math.log(c), 0, 502)
        assert got.tobytes() == direct_log_ratio_sums(k, math.log(c), 0, 502).tobytes()
        for policy in (FixedTruncation(n_max=501), AdaptiveTruncation()):
            assert_same_bits(penson_solomon_state(0.5, k, 1.0), policy)

    @pytest.mark.parametrize("k, anchor, size", [
        (3, 0, 25), (3, 24, 25), (0, 0, 1), (3, 0, 1), (3, 0, 2), (3, 1, 2),
        (series._TABLE_CAP - 10, 12, 40), (series._TABLE_CAP - 10, 0, 40)])
    def test_log_ratio_sums_at_the_edges(self, empty_table, k, anchor, size):
        """Anchor 0 (no backward sum), anchor size - 1 (no forward sum), one
        and two terms, and windows past the cap, all in one table state."""
        got = series._log_ratio_sums(k, -1.5, anchor, size)
        assert got.tobytes() == direct_log_ratio_sums(k, -1.5, anchor, size).tobytes()

    @pytest.mark.parametrize("alpha, k", [(0.5, 3), (5.0, 3), (1e-6, 0), (0.5, 20_000)])
    @pytest.mark.parametrize("n_max", [0, 1, 100])
    def test_same_bits_for_short_fixed_cutoffs(self, empty_table, alpha, k, n_max):
        """fixed:0 and fixed:1 (one and two terms), and a cutoff before the
        peak at |alpha| = 5 (anchored at its last term); k = 20000 reads
        past the cap."""
        assert_same_bits(penson_solomon_state(alpha, k, 0.5 if k == 3 else 1.0),
                         FixedTruncation(n_max=n_max))

    @pytest.mark.parametrize("order", [1, -1])
    def test_same_bits_in_either_call_order(self, empty_table, order):
        """A series past the cap and two within it, the larger first or last,
        each cut where the adaptive policy stops (which builds no array)."""
        specs = [penson_solomon_state(128.0, 0, 1.0), penson_solomon_state(2.75, 3, 0.5),
                 penson_solomon_state(0.5, 1, 0.5)]
        for spec in specs[::order]:
            n_max = truncate(spec, AdaptiveTruncation()).n_max
            assert_same_bits(spec, FixedTruncation(n_max=n_max))

    def test_retained_size(self, empty_table):
        """Not built at import; built once on first use, the rows ln j and
        2 ln j, _TABLE_CAP wide and read-only, and kept through calls within
        and past the cap."""
        assert fresh_process_stdout("import fockseries, fockseries.cli, fockseries.series as s\n"
                                    "print(s._table is None)\n") == "True\n"
        truncate(penson_solomon_state(2.75, 3, 0.5), FixedTruncation(n_max=700))
        table = series._table
        ln_j = np.log(np.arange(1.0, series._TABLE_CAP + 1))
        assert table.tobytes() == np.stack((ln_j, 2.0 * ln_j)).tobytes()
        assert table.shape == (2, series._TABLE_CAP) and not table.flags.writeable
        with pytest.raises(ValueError):
            series._index_row(1, 0, 10)[0] = 0.0
        for spec, n_max in [((300.0, 0, 1.0), 100_000), ((0.5, 3, 0.5), 100)]:
            truncate(penson_solomon_state(*spec), FixedTruncation(n_max=n_max))
        truncate(penson_solomon_state(1e-3, 2_000_000, 1.0), AdaptiveTruncation())
        assert series._table is table


class TestTruncate:
    def test_zero_amplitude_single_term(self):
        for policy in (AdaptiveTruncation(), FixedTruncation(n_max=100)):
            series = truncate(penson_solomon_state(0.0, 3, 0.5), policy)
            assert series.n_max == 0
            assert series.log_weights.size == 1
            assert series.tail_bound_rel == 0.0
            assert series.converged

    @pytest.mark.parametrize("k", [0, 3, 200, 1 << 15])
    def test_zero_amplitude_weight_is_zero_when_read(self, k):
        """The lone weight, built on first read, is ln(w_0/w_0) = 0.0 at
        anchor 0 for any k, past the index table's columns too."""
        series = truncate(penson_solomon_state(0.0, k, 0.5), AdaptiveTruncation())
        assert series.n_max == 0 and series.anchor == 0
        assert series.rel_log_weights.tolist() == [0.0]
        assert series.log_weights.tolist() == [log_weight(series.spec, 0)]

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

    @pytest.mark.parametrize("alpha, k, q", [(2.0, 0, 1.0), (3.0, 2, 0.5), (5.0, 3, 0.5)])
    def test_fixed_cutoffs_share_the_adaptive_kernel(self, alpha, k, q):
        """A cutoff past the peak is anchored there too, so it keeps the
        adaptive series' own terms; one before the peak ends on ln w_{n_max}."""
        spec = penson_solomon_state(alpha, k, q)
        adaptive = truncate(spec, AdaptiveTruncation())
        fixed = truncate(spec, FixedTruncation(n_max=adaptive.n_max))
        assert fixed.log_weights.tobytes() == adaptive.log_weights.tobytes()
        assert abs(fixed.tail_bound_rel / adaptive.tail_bound_rel - 1.0) <= 1e-12
        n_short = _first_subunit_ratio_index(_ratio_constant(spec), k) // 2
        short = truncate(spec, FixedTruncation(n_max=n_short))
        assert short.log_weights[-1] == log_weight(spec, n_short)

    def test_converged_tail_respects_tolerance(self):
        for tol in (1e-10, 1e-14):
            series = adaptive_series(3.0, 2, 0.7, rel_tol=tol)
            assert series.converged
            assert series.tail_bound_rel <= tol

    def test_underflowing_ratio_constant_still_bounds_the_tail(self):
        """|alpha|^2 = 1e-400 underflows, but c = 1e-100: two terms are kept,
        and past w_1/w_0 = 2c the bound is 2c * r_1 = 2c * 3c/4."""
        series = adaptive_series(1e-200, 1, 1e-150)
        assert series.n_max == 1
        assert 1.49e-200 < series.tail_bound_rel < 1.51e-200

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


def absolute_log_weights(spec, anchor, size):
    """ln w_n as truncate built them when a series held them absolute: the
    log-ratio sums from the anchor plus its log_weight, or the lone ln w_0 at
    |alpha| = 0."""
    if spec.alpha_abs == 0.0:
        return np.array([log_weight(spec, 0)])
    ln_c = math.log(_ratio_constant(spec))  # c is a normal double at every point here
    return series._log_ratio_sums(spec.k, ln_c, anchor, size) + log_weight(spec, anchor)


class TestPeakRelativeSums:
    """A series keeps ln(w_n/w_anchor), exactly 0.0 at its largest term, and
    log_weights adds ln w_anchor back to the bits of the absolute form."""

    @pytest.mark.parametrize("alpha, k, q, policy, anchor", [
        (2.75, 3, 0.5, AdaptiveTruncation(), None),
        (5.0, 3, 0.5, FixedTruncation(n_max=100), 100),  # the peak is past n_max
        (2.0, 3, 0.5, FixedTruncation(n_max=400), None),  # fig2's cutoff past the peak
        (2.0, 0, 1.0, FixedTruncation(n_max=80), None),  # a tie w_3 = w_4 at the peak
        (0.0, 3, 0.5, AdaptiveTruncation(), 0),
        (128.0, 0, 1.0, AdaptiveTruncation(), None),  # a window past _TABLE_CAP
    ])
    def test_anchored_at_the_largest_term(self, alpha, k, q, policy, anchor):
        spec = penson_solomon_state(alpha, k, q)
        got = truncate(spec, policy)
        if anchor is None:
            anchor = _first_subunit_ratio_index(_ratio_constant(spec), k)
        assert got.anchor == anchor
        rel = got.rel_log_weights
        assert float(rel[anchor]).hex() == (0.0).hex()
        assert rel.max() == 0.0
        want = absolute_log_weights(spec, anchor, got.n_max + 1)
        assert got.log_weights.tobytes() == want.tobytes()
        if alpha == 128.0:
            assert got.n_max + k > series._TABLE_CAP


class TestToleranceProperties:
    """Over (q, k, |alpha|, rel_tol): a tighter tolerance only appends terms,
    every certificate meets its tolerance, and Q never passes the Fock floor."""

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.3, 1.0), st.integers(0, 8),
           st.one_of(st.just(0.0), st.floats(1e-9, 5.0)),
           st.lists(st.sampled_from([0.5, 1e-4, 1e-8, 1e-14, 1e-20, 1e-30]),
                    min_size=2, max_size=2, unique=True))
    def test_tighter_tolerance_extends_the_series(self, q, k, alpha, tols):
        spec = penson_solomon_state(alpha, k, q)
        assume(alpha == 0.0 or _ratio_constant(spec) <= 1e4)  # peaks below n = 1e4
        loose_tol, tight_tol = sorted(tols, reverse=True)
        loose = truncate(spec, AdaptiveTruncation(loose_tol))
        tight = truncate(spec, AdaptiveTruncation(tight_tol))
        assert tight.n_max >= loose.n_max
        assert tight.log_weights[:loose.n_max + 1].tobytes() == loose.log_weights.tobytes()
        for series, tol in ((loose, loose_tol), (tight, tight_tol)):
            assert series.converged and series.tail_bound_rel <= tol
            q_value = photon_statistics(series).mandel_q
            if alpha == 0.0 and k == 0:
                assert q_value is None
            else:
                assert q_value >= -1.0 - 1e-12


def same_bits(x, y):
    return np.array_equal(np.asarray(x).view(np.int64), np.asarray(y).view(np.int64))


class TestScipyFreeKernels:
    """The log-sum-exp equals scipy.special's bit for bit, so the runtime can
    go without scipy and no output byte moves."""

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


def reference_retained_moments(series):
    """_retained_statistics' mean and variance through the ndarray methods,
    in fresh arrays: it must equal them bit for bit."""
    z = np.exp(series.rel_log_weights)
    ns = np.arange(z.size, dtype=np.float64) + series.spec.k
    total = z.sum()
    mean = float((z * ns).sum() / total)
    return mean, float((z * (ns - mean) ** 2).sum() / total)


class TestPhotonStatistics:
    def test_retained_moments_match_the_reference_bitwise(self):
        for spec, policy in index_table_grid(size=100, seed=29):
            series = truncate(spec, policy)
            got = _retained_statistics(series)
            assert (got.mean_n, got.variance) == reference_retained_moments(series), _point(spec)

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

    @pytest.mark.parametrize("alpha", [5e-9, 1e-8])
    def test_coherent_state_at_tiny_alpha_is_not_the_vacuum(self, alpha):
        """w_1/w_0 = |alpha|^2 is far below rel_tol, yet two terms are kept,
        so the mean is positive and Q = 0 within rounding."""
        series = adaptive_series(alpha, 0, 1.0)
        assert series.n_max == 1
        assert series.converged
        assert abs(photon_statistics(series).mandel_q) <= 1e-12

    def test_loose_tolerance_keeps_two_terms(self):
        series = adaptive_series(0.5, 0, 1.0, rel_tol=0.5)
        assert photon_statistics(series).mandel_q is not None
        assert series.converged

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

    @pytest.mark.parametrize("q, k, alpha", [(0.3, 5, 3.0), (0.3, 5, 3.4), (1.0, 2, 300.0)])
    def test_mandel_q_at_large_x_matches_the_oracle(self, q, k, alpha):
        """x = |alpha|^2 q^(-2k) of 1.5e6, 2.0e6 and 9e4, where ln w_n is
        about x: log-ratios summed from the peak keep Q to about 1e-12."""
        spec = penson_solomon_state(alpha, k, q)
        got = photon_statistics(truncate(spec, AdaptiveTruncation())).mandel_q
        assert abs(got - float(oracle_statistics(spec).mandel_q)) <= 2e-12

    def test_retained_variance_where_ln_w_is_large(self):
        """At (q, k, x) = (0.346, 128, 4.5e-11) ln w_0 is about 1.8e4, so its
        ulp is 3.6e-12.  The moments read the peak-relative sums, which never
        held that log: absolute log-weights missed the variance by 6.6e-13."""
        q, k, x = 0.346, 128, 4.5e-11
        spec = penson_solomon_state(math.sqrt(x) * q ** k, k, q)
        series = truncate(spec, AdaptiveTruncation(1e-30))
        assert series.n_max == 3
        assert log_weight(spec, 0) > 1.7e4
        got = _retained_statistics(series).variance
        assert abs(got / float(oracle_statistics(spec).variance) - 1.0) <= 3e-14

    def test_retained_variance_where_ln_c_cancels(self):
        """At the same point 2 ln|alpha| and 2k ln(1/q) are about -295.5 and
        +271.7: their sum misses ln c by 1.5e-14 and every log-ratio carries
        that, so the variance missed by 1.45e-14.  truncate takes math.log(c)."""
        q, k, x = 0.346, 128, 4.5e-11
        spec = penson_solomon_state(math.sqrt(x) * q ** k, k, q)
        got = _retained_statistics(truncate(spec, AdaptiveTruncation(1e-30))).variance
        assert abs(got / float(oracle_statistics(spec).variance) - 1.0) <= 1e-15

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
        assert photon_statistics(fixed).mandel_q is not None
        assert not fixed.converged
        assert math.isinf(fixed.tail_bound_rel)

    def test_normalization_vacuum_limit(self):
        series = adaptive_series(0.0, 0, 1.0)
        assert normalization_log(series) == 0.0
        pinned = normalization_log(adaptive_series(0.5, 1, 0.5))
        assert abs(pinned - LNN_Q05_K1_A05) < 1e-13


def closed_form_grid(size=240, seed=22):
    """Seeded states over q in [0.3, 1], k in {0..8, 64, 128} and x =
    |alpha|^2 q^(-2k) log-uniform in [1e-12, 2e6]."""
    rng = np.random.default_rng(seed)
    ks = [*range(9), 64, _CLOSED_FORM_MAX_K]
    for _ in range(size):
        q, k = float(rng.uniform(0.3, 1.0)), int(rng.choice(ks))
        x = math.exp(rng.uniform(math.log(1e-12), math.log(2e6)))
        yield penson_solomon_state(math.sqrt(x) * q ** k, k, q)


class TestClosedFormStatistics:
    """A converged series takes its moments from the Laguerre ratios of the
    untruncated state; an unconverged one from the retained distribution."""

    @pytest.mark.parametrize("alpha", [1e-4, 2e-4, 1e-3])
    def test_coherent_state_is_exactly_poissonian(self, alpha):
        """The retained distribution gave -1.0e-8, -4.0e-8 and -1.0e-12."""
        assert photon_statistics(adaptive_series(alpha, 0, 1.0)).mandel_q == 0.0

    @pytest.mark.parametrize("alpha", [1e-4, 2e-4, 1e-3])
    def test_one_added_photon_at_small_alpha_matches_the_oracle(self, alpha):
        spec = penson_solomon_state(alpha, 1, 1.0)
        got = photon_statistics(truncate(spec, AdaptiveTruncation())).mandel_q
        assert abs(got - float(oracle_statistics(spec).mandel_q)) <= 1e-15

    def test_matches_the_oracle_on_a_seeded_grid(self):
        for spec in closed_form_grid():
            got = photon_statistics(truncate(spec, AdaptiveTruncation()))
            ref = oracle_statistics(spec)
            assert abs(got.mandel_q - float(ref.mandel_q)) <= 1e-14, _point(spec)
            assert abs(got.mean_n / float(ref.mean_n) - 1.0) <= 1e-15, _point(spec)
            assert abs(got.variance / float(ref.variance) - 1.0) <= 1e-13, _point(spec)

    def test_matches_the_retained_moments_on_a_seeded_grid(self):
        """The oracle takes the same Laguerre values, so hold the closed form
        to the retained distribution at rel_tol = 1e-30 too, a path sharing
        no formula with it.  Var = (Q + 1) <m>, so Q and the mean cover both
        moments.  Q's 2e-12 is the retained distribution's own accuracy at
        x ~ 2e6 (test_mandel_q_at_large_x_matches_the_oracle), where its
        log-ratio sums leave it up to 1.4e-12 off on this grid."""
        for spec in closed_form_grid():
            got = _closed_statistics(spec)
            ref = _retained_statistics(truncate(spec, AdaptiveTruncation(1e-30)))
            assert abs(got.mandel_q - ref.mandel_q) <= 2e-12, _point(spec)
            assert abs(got.mean_n / ref.mean_n - 1.0) <= 1e-12, _point(spec)

    @pytest.mark.parametrize("k", [129, 200, 1000])
    @pytest.mark.parametrize("alpha", [0.5, 2.0])
    def test_matches_the_oracle_past_k_128(self, alpha, k):
        """Adaptive series past k = 128 are certified from their weight
        arrays; their moments still come from the closed form (the retained
        distribution's Q missed the oracle by up to 7.8e-14 at k = 129-1000)."""
        spec = penson_solomon_state(alpha, k, 1.0)
        got = photon_statistics(truncate(spec, AdaptiveTruncation()))
        assert abs(got.mandel_q - float(oracle_statistics(spec).mandel_q)) <= 1e-14

    def test_reads_no_log_weights(self):
        """Converged series give the same moments from NaN log-weights, past
        k = 128 too; an unconverged one's NaNs reach its moments."""
        for k in (0, 5, _CLOSED_FORM_MAX_K, _CLOSED_FORM_MAX_K + 1):
            series = adaptive_series(1.0, k, 0.3 if k == 5 else 1.0)
            blind = TruncatedSeries(series.spec, np.full_like(series.rel_log_weights, np.nan),
                                    series.anchor, series.tail_bound_rel, series.converged)
            assert photon_statistics(blind) == photon_statistics(series)
        fixed = truncate(penson_solomon_state(5.0, 3, 0.5), FixedTruncation(n_max=100))
        blind = TruncatedSeries(fixed.spec, np.full(101, np.nan), fixed.anchor,
                                fixed.tail_bound_rel, fixed.converged)
        assert not fixed.converged and math.isnan(photon_statistics(blind).mean_n)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.01, 1.0), st.integers(0, _CLOSED_FORM_MAX_K), st.floats(0.0, 2e6))
    def test_moments_are_physical(self, q, k, x):
        stats = _closed_statistics(penson_solomon_state(math.sqrt(x) * q ** k, k, q))
        assume(stats.mandel_q is not None)  # the vacuum
        assert stats.mean_n >= k
        assert stats.variance >= 0.0
        assert -1.0 <= stats.mandel_q <= 0.0


def raise_if_called(*args):
    raise AssertionError("an array kernel ran")


class TestClosedFormCertificate:
    """An adaptive series with k <= _CLOSED_FORM_MAX_K takes its stop and
    bound from the closed-form norm and builds its weights only when read."""

    POINTS = [(2.75, 3, 0.5), (5.0, 3, 0.5), (1e-4, 0, 1.0), (0.3, _CLOSED_FORM_MAX_K, 1.0),
              (128.0, 0, 1.0)]

    @pytest.mark.parametrize("alpha, k, q", POINTS)
    def test_values_need_no_weights(self, monkeypatch, alpha, k, q):
        """Q, S and both sweep rows, as they read with the kernels in place."""
        spec = penson_solomon_state(alpha, k, q)
        requests = [sweep.SweepRequest(observable=observable, q=q, k=k, output_path="unused")
                    for observable in sweep.OBSERVABLES]

        def values():
            got = truncate(spec, AdaptiveTruncation())
            assert got.converged
            return (photon_statistics(got), linear_entropy(got),
                    [sweep._evaluate_point(req, BeamSplitterSetting(), alpha) for req in requests])

        want = values()
        monkeypatch.setattr(series, "_log_ratio_sums", raise_if_called)
        assert values() == want

    @pytest.mark.parametrize("alpha, k, q", POINTS)
    def test_certificate_reads_build_nothing(self, monkeypatch, alpha, k, q):
        calls = []
        monkeypatch.setattr(series, "_log_ratio_sums", lambda *args: calls.append(args))
        got = truncate(penson_solomon_state(alpha, k, q), AdaptiveTruncation())
        assert got.n_max >= 1 and got.converged and got.tail_bound_rel <= DEFAULT_REL_TOL
        assert calls == [] and "rel_log_weights" not in vars(got)

    @pytest.mark.parametrize("alpha, k, q", POINTS)
    def test_weights_built_on_first_read(self, alpha, k, q):
        """The sums the array path kept, log_weights on them, and
        a series rebuilt through the constructor before and after the first read."""
        spec = penson_solomon_state(alpha, k, q)
        c = _ratio_constant(spec)
        n_peak = _first_subunit_ratio_index(c, k)
        got = truncate(spec, AdaptiveTruncation())
        assert "rel_log_weights" not in vars(got)
        want = series._log_ratio_sums(k, math.log(c), n_peak, got.n_max + 1)
        rel = got.rel_log_weights
        assert rel.tobytes() == want.tobytes() and got.anchor == n_peak
        assert got.rel_log_weights is rel and got.n_max == rel.size - 1
        assert got.log_weights.tobytes() == (want + log_weight(spec, n_peak)).tobytes()
        shorter = TruncatedSeries(got.spec, rel[:-1], got.anchor, got.tail_bound_rel,
                                  got.converged)
        assert (shorter.n_max, shorter.tail_bound_rel) == (got.n_max - 1, got.tail_bound_rel)
        fresh = truncate(spec, AdaptiveTruncation())
        unread = TruncatedSeries(fresh.spec, fresh.rel_log_weights, fresh.anchor,
                                 fresh.tail_bound_rel, converged=False)
        assert unread.rel_log_weights.tobytes() == want.tobytes() and not unread.converged

    def test_peak_memory_where_the_series_is_longest(self):
        """x = 3.4^2 0.3^-10 is about 2e6, where the array path kept about
        2e6 terms (16 MB a row)."""
        assert adaptive_truncate_peak_bytes(3.4, 5, 0.3) < 1 << 20
