"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (printed regardless; -s shows them live).
"""
import math
import time

import numpy as np
from scipy.special import logsumexp

from fockseries import (
    AdaptiveTruncation,
    BeamSplitterSetting,
    DimensionTooLarge,
    FixedTruncation,
    linear_entropy,
    log_weight,
    penson_solomon_state,
    photon_statistics,
    truncate,
)
from fockseries.oracle import oracle_entropy, oracle_statistics

FIG1_SETS = [(0.5, 1), (0.5, 2), (0.5, 3), (0.8, 4), (0.8, 6), (0.8, 8)]
FIXTURE_GRID = [(q, k, a)
                for q in (0.5, 0.8, 1.0)
                for k in (0, 1, 3)
                for a in (0.0, 0.5, 1.0, 2.0)]


def report(number: int, description: str, ok: bool, elapsed: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance {number}] {verdict} ({elapsed:.2f}s) - {description}")
    assert ok, f"acceptance criterion {number} failed: {description}"


def mandel_curve(q: float, k: int, alphas, policy) -> list[float]:
    out = []
    for alpha in alphas:
        series = truncate(penson_solomon_state(alpha, k, q), policy)
        out.append(photon_statistics(series).mandel_q)
    return out


def test_criterion_1_fock_limit():
    """Q(|alpha|=0) = -1 within 1e-12 for all six parameter sets, < 1 s."""
    t0 = time.perf_counter()
    ok = True
    for q, k in FIG1_SETS:
        series = truncate(penson_solomon_state(0.0, k, q), AdaptiveTruncation())
        ok &= abs(photon_statistics(series).mandel_q - (-1.0)) <= 1e-12
    elapsed = time.perf_counter() - t0
    report(1, "Fock limit: Q(0) = -1 for the six parameter sets", ok and elapsed < 1.0, elapsed)


def test_criterion_2_corrected_monotonicity():
    """Adaptive Q is non-decreasing on a 201-point grid over [0, 5]: no step
    below -1e-10; < 10 s total."""
    t0 = time.perf_counter()
    alphas = np.linspace(0.0, 5.0, 201)
    ok = True
    for q, k in FIG1_SETS:
        values = mandel_curve(q, k, alphas, AdaptiveTruncation())
        worst = min(b - a for a, b in zip(values, values[1:]))
        ok &= worst >= -1e-10
    elapsed = time.perf_counter() - t0
    report(2, "corrected monotonicity: Q non-decreasing on [0, 5]", ok and elapsed < 10.0, elapsed)


def test_criterion_3_truncation_error_reproduction():
    """Fixed cutoffs 100..700 at q=0.5, k=3: each curve leaves the adaptive
    one by more than 0.5 somewhere, collapses below -0.9 at alpha=5, and the
    deviation onset grows strictly with n_max; < 10 s."""
    t0 = time.perf_counter()
    alphas = np.linspace(0.0, 5.0, 201)
    reference = np.array(mandel_curve(0.5, 3, alphas, AdaptiveTruncation()))
    onsets = []
    ok = True
    for n_max in (100, 200, 400, 700):
        fixed = np.array(mandel_curve(0.5, 3, alphas, FixedTruncation(n_max=n_max)))
        deviation = np.abs(fixed - reference)
        ok &= bool(deviation.max() > 0.5)
        ok &= fixed[-1] < -0.9
        onsets.append(float(alphas[np.argmax(deviation > 0.5)]))
    ok &= all(a < b for a, b in zip(onsets, onsets[1:]))
    elapsed = time.perf_counter() - t0
    report(3, f"fixed-cutoff forensics: onsets {[round(o, 3) for o in onsets]}",
           ok and elapsed < 10.0, elapsed)


def test_criterion_4_oracle_equivalence():
    """Double precision agrees with the 256-bit oracle within 1e-9 relative
    (absolute floor 1e-9 where the true value is 0) on the fixture grid;
    < 2 min, oracle-dominated."""
    t0 = time.perf_counter()
    policy = AdaptiveTruncation()
    setting = BeamSplitterSetting()
    ok = True
    for q, k, alpha in FIXTURE_GRID:
        spec = penson_solomon_state(alpha, k, q)
        series = truncate(spec, policy)
        if not (k == 0 and alpha == 0.0):
            main_q = photon_statistics(series).mandel_q
            ref_q = float(oracle_statistics(spec).mandel_q)
            ok &= math.isclose(main_q, ref_q, rel_tol=1e-9, abs_tol=1e-9)
        try:
            ref_s = float(oracle_entropy(spec, setting).linear_entropy)
        except DimensionTooLarge:
            continue
        main_s = linear_entropy(series, setting=setting).linear_entropy
        ok &= math.isclose(main_s, ref_s, rel_tol=1e-9, abs_tol=1e-9)
    elapsed = time.perf_counter() - t0
    report(4, "oracle equivalence: Q and S within 1e-9 on the fixture grid",
           ok and elapsed < 120.0, elapsed)


def test_criterion_5_entropy_anchors():
    """S(0, k) matches the closed form 1 - sum_j (C(k,j)/2^k)^2 within 1e-12
    for k = 1..6; coherent input gives S <= 1e-12 on 21 points over [0, 2];
    < 5 s."""
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 7):
        series = truncate(penson_solomon_state(0.0, k, 0.5), AdaptiveTruncation())
        closed = 1.0 - sum((math.comb(k, j) / 2.0 ** k) ** 2 for j in range(k + 1))
        ok &= abs(linear_entropy(series).linear_entropy - closed) <= 1e-12
    for alpha in np.linspace(0.0, 2.0, 21):
        series = truncate(penson_solomon_state(float(alpha), 0, 1.0), AdaptiveTruncation())
        ok &= linear_entropy(series).linear_entropy <= 1e-12
    elapsed = time.perf_counter() - t0
    report(5, "entropy anchors: Fock closed forms and separable coherent output",
           ok and elapsed < 5.0, elapsed)


def test_criterion_6_corrected_entropy_trend():
    """S non-increasing over [0, 3] (61 points) for q=0.5, k in {1,2,3},
    theta=pi/4, tolerance 1e-10 per step; < 60 s."""
    t0 = time.perf_counter()
    alphas = np.linspace(0.0, 3.0, 61)
    ok = True
    for k in (1, 2, 3):
        values = []
        for alpha in alphas:
            series = truncate(penson_solomon_state(float(alpha), k, 0.5), AdaptiveTruncation())
            values.append(linear_entropy(series).linear_entropy)
        worst = max(b - a for a, b in zip(values, values[1:]))
        ok &= worst <= 1e-10
    elapsed = time.perf_counter() - t0
    report(6, "corrected entropy trend: S non-increasing on [0, 3]",
           ok and elapsed < 60.0, elapsed)


def test_criterion_7_tail_certificate_soundness():
    """50 random draws (q in [0.3,1], k <= 5, alpha <= 4): extending a
    converged adaptive series by 500 terms moves the sum by less than
    tail_bound_rel times the sum; < 10 s."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1905)
    ok = True
    for _ in range(50):
        q = float(rng.uniform(0.3, 1.0))
        k = int(rng.integers(0, 6))
        alpha = float(rng.uniform(0.0, 4.0))
        spec = penson_solomon_state(alpha, k, q)
        series = truncate(spec, AdaptiveTruncation())
        assert series.converged
        if spec.alpha_abs == 0.0:
            continue  # zero-probability edge; every extension term is exactly 0
        extension = [log_weight(spec, n)
                     for n in range(series.n_max + 1, series.n_max + 501)]
        gained = math.exp(logsumexp(extension) - logsumexp(series.log_weights))
        ok &= gained < series.tail_bound_rel
    elapsed = time.perf_counter() - t0
    report(7, "tail certificate: 500-term extension stays under the bound",
           ok and elapsed < 10.0, elapsed)
