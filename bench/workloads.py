"""The two benchmark workloads.

Each workload knows the CLI commands a user would type, the same work as
public calls in a warm process (for tracing), the public per-point chain for
each grid point, the output checks with their mpmath oracle
references, and how many grid points one round evaluates.  The seed moves
the |alpha| grid endpoints by at most 0.01.  Import this module only after
``src/`` is first on ``sys.path``.
"""
from __future__ import annotations

import functools
import hashlib
import random
import sys
from pathlib import Path

import numpy as np

import fockseries.oracle as oracle
import fockseries.sweep as sweep
from fockseries.entangle import linear_entropy
from fockseries.series import AdaptiveTruncation, photon_statistics, truncate
from fockseries.states import penson_solomon_state

Q_TOL = 1e-9          # criterion-4 agreement between Q and the oracle
S_TOL = 1e-9          # the same agreement for the linear entropy
ORACLE_S_EVERY = 5    # entropy grid points checked against the oracle: every
ORACLE_S_ALPHA = 0.5  # fifth up to this |alpha|, about 1 s of mpmath
REL_TOL = 1e-14       # the program's default certificate tolerance
FOCK_ANCHOR_K3 = 0.6875  # S(0) for k=3 at a 50:50 splitter (closed form)

FIGURE_PRESETS = ("fig1-left", "fig1-right", "fig2")
FIGURE_CURVES = 11    # 3 + 3 + (4 fixed cutoffs and 1 adaptive reference)
# (q, k) of every adaptive figure curve; fig2's reference repeats (0.5, 3)
FIGURE_ADAPTIVE = ((0.5, 1), (0.5, 2), (0.5, 3), (0.8, 4), (0.8, 6), (0.8, 8))


def grid_endpoints(seed: int, top: float, anchor_at_zero: bool) -> tuple[float, float]:
    """|alpha| in [lo, hi] with hi in (top - 0.01, top] and lo in [0, 0.01)."""
    rng = random.Random(seed)
    hi = top - 0.01 * rng.random()
    lo = 0.0 if anchor_at_zero else 0.01 * rng.random()
    return lo, hi


def read_csv(path: Path) -> tuple[dict[str, str], list[dict[str, str]]]:
    """Metadata and rows of a fockseries CSV, parsed independently of the
    package's own reader."""
    meta: dict[str, str] = {}
    rows: list[dict[str, str]] = []
    columns = None
    for line in path.read_text(encoding="ascii").splitlines():
        if line.startswith("#"):
            key, sep, val = line[1:].strip().partition("=")
            if sep:
                meta[key] = val
        elif columns is None:
            columns = line.split(",")
        elif line:
            rows.append(dict(zip(columns, line.split(","))))
    return meta, rows


def digests(outdir: Path) -> dict[str, str]:
    return {str(p.relative_to(outdir)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(outdir.rglob("*")) if p.is_file()}


class Workload:
    name = ""

    def __init__(self, seed: int) -> None:
        self.q_err_max = 0.0

    @property
    def points(self) -> int:
        """Grid points one round evaluates."""
        raise NotImplementedError

    def cli_argvs(self, outdir: Path) -> list[list[str]]:
        raise NotImplementedError

    def warm(self, outdir: Path) -> None:
        """The same work as ``cli_argvs`` through the public API."""
        raise NotImplementedError

    def point_calls(self) -> list:
        """One zero-argument call per grid point: the public per-point chain
        that ``warm`` runs for it, without the writing."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Oracle reference values, computed outside every timed region."""

    def check(self, outdir: Path) -> list[str]:
        """Failures found in a round's output (empty when it is correct)."""
        raise NotImplementedError


def _cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "fockseries.cli", *args]


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    return [float(a) for a in np.linspace(lo, hi, steps)]


def _mandel_q(alpha, k, q, policy):
    return photon_statistics(truncate(penson_solomon_state(alpha, k, q), policy)).mandel_q


def _entropy(alpha, k, q):
    series = truncate(penson_solomon_state(alpha, k, q), AdaptiveTruncation())
    return linear_entropy(series, allow_unconverged=True).linear_entropy


class Figures(Workload):
    """The three Mandel Q presets of the paper, one CLI process each."""

    name = "figures"
    steps = 101  # the oracle references cost about 7 ms per adaptive point

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.lo, self.hi = grid_endpoints(seed, 5.0, anchor_at_zero=False)
        self.alphas = _grid(self.lo, self.hi, self.steps)
        self.refs: dict[tuple[float, int], list[tuple[float, float]]] = {}

    @property
    def points(self) -> int:
        return FIGURE_CURVES * self.steps

    def cli_argvs(self, outdir):
        return [_cli("preset", "--name", name, "--out-dir", str(outdir / name),
                     "--steps", str(self.steps), "--alpha-min", repr(self.lo),
                     "--alpha-max", repr(self.hi))
                for name in FIGURE_PRESETS]

    def warm(self, outdir):
        for name in FIGURE_PRESETS:
            sweep.run_preset(name, outdir / name, steps=self.steps,
                             alpha_min=self.lo, alpha_max=self.hi)

    def point_calls(self):
        return [functools.partial(_mandel_q, a, curve.k, sweep.PRESETS[name].q, curve.policy)
                for name in FIGURE_PRESETS for curve in sweep.PRESETS[name].curves
                for a in self.alphas]

    def prepare(self):
        for q, k in FIGURE_ADAPTIVE:
            self.refs[(q, k)] = [
                (a, float(oracle.oracle_statistics(penson_solomon_state(a, k, q)).mandel_q))
                for a in self.alphas]

    def check(self, outdir):
        failures = []
        curves = 0
        for name in FIGURE_PRESETS:
            if not (outdir / name / "manifest.json").is_file():
                failures.append(f"{name}: no manifest.json")
            for path in sorted((outdir / name).glob("*.csv")):
                curves += 1
                failures += self._check_curve(path)
        if curves != FIGURE_CURVES:
            failures.append(f"{curves} curve CSVs, expected {FIGURE_CURVES}")
        return failures

    def _check_curve(self, path: Path) -> list[str]:
        meta, rows = read_csv(path)
        q, k = float(meta["q"]), int(meta["k"])
        if len(rows) != self.steps:
            return [f"{path.name}: {len(rows)} rows, expected {self.steps}"]
        if not meta["policy"].startswith("adaptive"):
            # fig2 fixed cutoffs: a failed certificate must be flagged
            return [f"{path.name}: alpha={row['alpha']} tail bound {row['tail_bound_rel']} "
                    "fails but the row is flagged converged"
                    for row in rows
                    if float(row["tail_bound_rel"]) > REL_TOL and row["converged"] != "false"]
        failures = []
        for row, (alpha, q_ref) in zip(rows, self.refs[(q, k)]):
            err = abs(float(row["value"]) - q_ref)
            self.q_err_max = max(self.q_err_max, err)
            if abs(float(row["alpha"]) - alpha) > 1e-12 or row["converged"] != "true" or err > Q_TOL:
                failures.append(f"{path.name}: alpha={row['alpha']} Q={row['value']} "
                                f"oracle={q_ref!r} converged={row['converged']}")
        return failures


class Entropy(Workload):
    """Linear entropy at q=0.5, k=3, theta=pi/4 over [0, 2.75], where D
    reaches 668 and reduced_purity takes about 1.3x the time of split.  Up
    to |alpha|=5 (D=1923) one point costs 2.5 s with one BLAS thread, too
    long for the repeats a steady run needs."""

    name = "entropy"
    q, k = 0.5, 3
    top = 2.75
    steps = 101

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        # lo stays 0, which keeps the S(0) anchor on the grid
        self.lo, self.hi = grid_endpoints(seed, self.top, anchor_at_zero=True)
        self.alphas = _grid(self.lo, self.hi, self.steps)
        self.refs: dict[int, float] = {}

    @property
    def points(self) -> int:
        return self.steps

    def cli_argvs(self, outdir):
        return [_cli("sweep", "--observable", "linear_entropy", "--q", repr(self.q),
                     "--k", str(self.k), "--alpha-min", repr(self.lo),
                     "--alpha-max", repr(self.hi), "--steps", str(self.steps),
                     "--out", str(outdir / "entropy.csv"))]

    def warm(self, outdir):
        sweep.run_sweep(sweep.SweepRequest(
            observable="linear_entropy", q=self.q, k=self.k,
            output_path=outdir / "entropy.csv",
            alpha_min=self.lo, alpha_max=self.hi, steps=self.steps))

    def point_calls(self):
        return [functools.partial(_entropy, a, self.k, self.q) for a in self.alphas]

    def prepare(self):
        for i in range(0, self.steps, ORACLE_S_EVERY):
            if self.alphas[i] > ORACLE_S_ALPHA:
                break
            state = penson_solomon_state(self.alphas[i], self.k, self.q)
            self.refs[i] = float(oracle.oracle_entropy(state).linear_entropy)

    def check(self, outdir):
        rows = read_csv(outdir / "entropy.csv")[1]
        if len(rows) != self.steps:
            return [f"{len(rows)} rows, expected {self.steps}"]
        failures = []
        for row in rows:
            s = float(row["value"])
            dim = int(row["n_max_used"]) + self.k + 1
            if not 0.0 <= s <= 1.0 - 1.0 / dim or row["converged"] != "true":
                failures.append(f"alpha={row['alpha']}: S={s!r} outside [0, 1-1/{dim}] "
                                f"or converged={row['converged']}")
        if float(rows[0]["alpha"]) != 0.0:
            failures.append("grid does not start at alpha=0")
        elif abs(float(rows[0]["value"]) - FOCK_ANCHOR_K3) > 1e-12:
            failures.append(f"S(0)={rows[0]['value']}, expected {FOCK_ANCHOR_K3}")
        for i, s_ref in self.refs.items():
            if abs(float(rows[i]["value"]) - s_ref) > S_TOL:
                failures.append(f"alpha={rows[i]['alpha']}: S={rows[i]['value']} "
                                f"oracle={s_ref!r}")
        return failures


WORKLOADS = {cls.name: cls for cls in (Figures, Entropy)}
