"""Independent extended-precision reference pipeline (mpmath).

Deliberately avoids the main pipeline's two approximation sources (log-gamma
weights and log-sum-exp accumulation) by building the weights with the exact
multiplicative recurrence

    w_0 = q^(-k(k-1)) k!,    w_{n+1} = w_n * |alpha|^2 q^(-2k) (n+k+1)/(n+1)^2

in 256-bit (default) arithmetic and summing directly, so any disagreement
with the double-precision modules localizes the bug.  Also generates the
golden fixture CSVs consumed by the test suite; fixtures are written once,
committed with their generation metadata, and never hand-edited.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import mpmath as mp

from .entangle import BeamSplitterSetting, EntanglementResult
from .errors import DimensionTooLarge, HardCapExceeded, InvalidParameter, VacuumUndefined
from .output import write_curve_csv
from .series import PhotonStatistics, _point
from .states import StateSpec, penson_solomon_state

ORACLE_DIM_CAP = 400  # extended-precision purity is O(D^3); larger D is not desk-scale
_TERM_CAP = 5_000_000
# summation stops once the next term drops below this fraction of the running
# sum (and the ratio is below 1)
TERM_FLOOR_REL = 1e-40


@dataclass(frozen=True)
class PrecisionConfig:
    """mantissa_bits of working precision."""

    mantissa_bits: int = 256

    def __post_init__(self) -> None:
        if not isinstance(self.mantissa_bits, int) or self.mantissa_bits < 128:
            raise InvalidParameter(f"mantissa_bits must be an integer >= 128, got {self.mantissa_bits!r}")


def _series_terms(spec: StateSpec, cfg: PrecisionConfig) -> tuple[list, mp.mpf, float]:
    """Weights w_0..w_nmax and their sum, by exact recurrence at working precision.

    Returns (weights, total, tail_bound_rel); the caller is responsible for
    holding mp.workprec open if it needs further arithmetic on the values.
    """
    q = mp.mpf(spec.q)
    a2 = mp.mpf(spec.alpha_abs) ** 2
    k = spec.k
    w = q ** (-k * (k - 1)) * mp.factorial(k)
    if spec.alpha_abs == 0.0:
        return [w], w, 0.0
    c = a2 * q ** (-2 * k)
    floor = mp.mpf(TERM_FLOOR_REL)
    weights = []
    total = mp.mpf(0)
    n = 0
    while True:
        weights.append(w)
        total += w
        ratio = c * (n + k + 1) / mp.mpf((n + 1) * (n + 1))
        w_next = w * ratio
        if ratio < 1 and w_next < floor * total:
            tail = float(w_next / (1 - ratio) / total)
            return weights, total, tail
        w = w_next
        n += 1
        if n > _TERM_CAP:
            raise HardCapExceeded(f"oracle series passed {_TERM_CAP} terms")


def oracle_statistics(spec: StateSpec,
                      cfg: PrecisionConfig = PrecisionConfig()) -> PhotonStatistics:
    """Mean, variance, and Mandel Q by direct extended-precision summation.

    The returned fields hold mpmath values (callers wanting float64 should
    convert); at 256 bits the plain <n^2> - <n>^2 form is safe.
    """
    with mp.workprec(cfg.mantissa_bits):
        weights, total, tail = _series_terms(spec, cfg)
        k = spec.k
        s1 = mp.fsum(w * (n + k) for n, w in enumerate(weights))
        s2 = mp.fsum(w * (n + k) ** 2 for n, w in enumerate(weights))
        mean = s1 / total
        if mean == 0:
            raise VacuumUndefined(f"{_point(spec)}: Mandel Q undefined for the vacuum")
        variance = s2 / total - mean ** 2
        mandel = variance / mean - 1
    return PhotonStatistics(mean_n=mean, variance=variance, mandel_q=mandel,
                            tail_bound_rel=tail, converged=True)


def oracle_entropy(spec: StateSpec,
                   setting: BeamSplitterSetting = BeamSplitterSetting(),
                   cfg: PrecisionConfig = PrecisionConfig()) -> EntanglementResult:
    """Linear entropy by the same splitter expansion, in extended precision."""
    with mp.workprec(cfg.mantissa_bits):
        weights, total, tail = _series_terms(spec, cfg)
        k = spec.k
        dim = len(weights) + k
        if dim > ORACLE_DIM_CAP:
            raise DimensionTooLarge(
                f"output dimension {dim} exceeds the oracle cap {ORACLE_DIM_CAP}")
        amps = [mp.sqrt(w / total) for w in weights]  # c_m, m = n + k
        t = mp.cos(mp.mpf(setting.theta))
        r = mp.sin(mp.mpf(setting.theta))
        t_pow = [mp.mpf(1)]
        r_pow = [mp.mpf(1)]
        for _ in range(dim - 1):
            t_pow.append(t_pow[-1] * t)
            r_pow.append(r_pow[-1] * r)
        zero = mp.mpf(0)
        rows = [[zero] * dim for _ in range(dim)]
        for m in range(k, dim):
            c_m = amps[m - k]
            for j in range(m + 1):
                rows[j][m - j] = c_m * mp.sqrt(mp.binomial(m, j)) * t_pow[j] * r_pow[m - j]
        purity = mp.mpf(0)
        for j in range(dim):
            row_j = rows[j]
            rho = mp.fdot(row_j, row_j)
            purity += rho * rho
            for jp in range(j + 1, dim):
                rho = mp.fdot(row_j, rows[jp])
                purity += 2 * rho * rho
        entropy = 1 - purity
    return EntanglementResult(purity=purity, linear_entropy=entropy,
                              theta=setting.theta, converged=True)


# --- golden fixtures -------------------------------------------------------

FIXTURE_QS = (0.5, 0.8, 1.0)
FIXTURE_KS = (0, 1, 3)
FIXTURE_ALPHAS = (0.0, 0.5, 1.0, 2.0)


def write_fixtures(out_dir: Path | str,
                   cfg: PrecisionConfig = PrecisionConfig(),
                   observables: tuple[str, ...] = ("mandel_q", "linear_entropy")) -> list[Path]:
    """Emit the golden fixture CSVs for the {q} x {k} x {alpha} grid.

    Vacuum points are skipped for mandel_q (Q undefined) and points whose
    output dimension exceeds the oracle cap are skipped for linear_entropy;
    every written row is a valid combination.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    setting = BeamSplitterSetting()
    written = []
    for observable in observables:
        for q in FIXTURE_QS:
            for k in FIXTURE_KS:
                rows = []
                for alpha in FIXTURE_ALPHAS:
                    spec = penson_solomon_state(alpha, k, q)
                    if observable == "mandel_q":
                        try:
                            stats = oracle_statistics(spec, cfg)
                        except VacuumUndefined:
                            continue
                        n_used, tail = _oracle_terms(spec, cfg)
                        rows.append((alpha, float(stats.mandel_q), n_used, tail, True))
                    else:
                        try:
                            result = oracle_entropy(spec, setting, cfg)
                        except DimensionTooLarge:
                            continue
                        n_used, tail = _oracle_terms(spec, cfg)
                        rows.append((alpha, float(result.linear_entropy), n_used, tail, True))
                metadata = {
                    "observable": observable,
                    "q": float(q),
                    "k": k,
                    "generator": "oracle",
                    "mantissa_bits": cfg.mantissa_bits,
                    "term_floor_rel": TERM_FLOOR_REL,
                    "stopping": "next-term < term_floor_rel * sum and ratio < 1",
                }
                if observable == "linear_entropy":
                    metadata["theta"] = setting.theta
                name = f"{observable}_q{q:g}_k{k}.csv"
                written.append(write_curve_csv(out_dir / name, metadata, rows))
    return written


def _oracle_terms(spec: StateSpec, cfg: PrecisionConfig) -> tuple[int, float]:
    with mp.workprec(cfg.mantissa_bits):
        weights, _, tail = _series_terms(spec, cfg)
    return len(weights) - 1, tail


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m fockseries.oracle",
        description="Regenerate the committed golden fixtures.")
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--mantissa-bits", type=int, default=256)
    args = parser.parse_args(argv)
    paths = write_fixtures(args.out_dir, PrecisionConfig(mantissa_bits=args.mantissa_bits))
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
