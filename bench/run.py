"""fockseries benchmark: end-to-end CLI metrics and per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload figures --seed 1 --seconds 50 --trace 0

``--trace 0`` measures what a user sees: import time in a fresh interpreter,
CLI wall time and peak RSS of each command in a fresh process, and the
throughput and per-point latency of the public per-point chain in this
(warm) process, each timing from repeats spread over the run.
``--trace 1`` times each layer instead, by wrapping the package's public
functions at the module attributes their callers use (see ``spans.py``).
Every output is checked.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with the machine facts, goes to ``.bench_out/``.  The program is always the
checked-out ``src/`` tree; see ``README.md`` in this directory.
"""
from __future__ import annotations

import argparse
import ctypes
import hashlib
import importlib
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
ENTRY_MODULE = "fockseries.cli"  # what every CLI command imports first

SETUP_SAMPLES = 11      # fresh interpreters for setup_s, spread over the run
IMPORTTIME_REPEATS = 3  # fresh interpreters for the setup.* layer split
MIN_ROUNDS = 3          # rounds of each kind, however long they take
CHAIN_SLICES = 8        # a per-point round times every 8th grid point
MIN_POINTS = 100        # grid points, so that ten lie beyond p90
CHILD_TIMEOUT_S = 150
DEFAULT_SEED = 1
# shares of --seconds for each kind of round
SHARES = {"cli": 0.6, "chain": 0.4}
# On a small shared host two BLAS threads made one entropy point vary 20x
# between processes (0.13 s to 2.6 s at D=1015); one thread varies ~10%.
BLAS_THREADS = 1


def use_checked_out_tree() -> None:
    """Put ``src/`` first on the path of this process and of every child, with
    the program's default thread count and one BLAS thread."""
    os.environ.pop("FOCKSERIES_THREADS", None)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[name] = str(BLAS_THREADS)
    old = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    sys.path.insert(0, str(SRC))


# --- child processes ----------------------------------------------------------

class Launcher:
    """The small process that spawns every CLI child, so that a child's peak
    RSS is its own (see ``launcher.py``).  Start it before importing numpy."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path) -> tuple[float, float, int, str]:
        """Wall seconds, peak RSS in MB, exit code and stderr of one child."""
        self.proc.stdin.write(json.dumps([argv, str(cwd), CHILD_TIMEOUT_S]) + "\n")
        self.proc.stdin.flush()
        return tuple(json.loads(self.proc.stdout.readline()))

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()


def _python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{args}: exit {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def import_seconds(module: str, cwd: Path) -> float:
    """Import time of ``module`` in a fresh interpreter; fails unless the
    module came from the checked-out ``src/``."""
    code = ("import time; t = time.perf_counter(); import {0} as m; "
            "print(time.perf_counter() - t); print(m.__file__)").format(module)
    seconds, path = _python(["-c", code], cwd).stdout.split("\n")[:2]
    if not Path(path).resolve().is_relative_to(SRC):
        raise RuntimeError(f"{module} was imported from {path}, not from {SRC}")
    return float(seconds)


def import_layers(module: str, cwd: Path) -> dict[str, float]:
    """Split one fresh import by ``-X importtime``: the dependencies' cumulative
    time and the package's own self time, in seconds."""
    stderr = _python(["-X", "importtime", "-c", f"import {module}"], cwd).stderr
    cumulative: dict[str, int] = {}
    own = 0
    for line in stderr.splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        name = parts[2].strip()
        cumulative.setdefault(name, int(parts[1]))
        if name == "fockseries" or name.startswith("fockseries."):
            own += int(parts[0])
    return {"setup.numpy_s": cumulative.get("numpy", 0) / 1e6,
            "setup.scipy_special_s": cumulative.get("scipy.special", 0) / 1e6,
            "setup.mpmath_s": cumulative.get("mpmath", 0) / 1e6,
            "setup.fockseries_s": own / 1e6}


# --- machine facts ------------------------------------------------------------

def _blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    import numpy
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import mpmath
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    git_sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        git_sha = proc.stdout.strip() if proc.returncode == 0 else None
    src_hash = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_hash.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "openblas_num_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "fockseries_threads_env": os.environ.get("FOCKSERIES_THREADS"),
        "git_sha": git_sha,
        "src_sha256": src_hash.hexdigest(),
    }


# --- tracing configuration ----------------------------------------------------

def _observe_truncate(tracer, args, kwargs, result, exc):
    if exc is not None:
        if type(exc).__name__ == "HardCapExceeded":
            tracer.counts["series.cap_exceeded"] += 1
        return
    lw = result.log_weights
    tracer.counts["series.terms"] += lw.size
    # kept terms within e^-40 of the point's peak; the rest add nothing at 1e-14
    tracer.counts["series.useful_terms"] += int((lw >= lw.max() - 40.0).sum())


def _observe_split(tracer, args, kwargs, result, exc):
    series = args[0] if args else kwargs["series"]
    k = series.spec.k
    dim = series.n_max + k + 1
    c = tracer.counts
    c["entangle.dim_max"] = max(c["entangle.dim_max"], dim)
    c["entangle.dim_sum"] += dim
    c["entangle.matrix_bytes"] += 8 * dim * dim
    c["entangle.cells"] += dim * dim
    # A(j, l) can be nonzero only for k <= j + l <= D - 1
    c["entangle.nonzero_cells"] += (dim * (dim + 1) - k * (k + 1)) // 2
    # Gram rows j' >= j of a D x D matrix: D * D(D+1)/2 multiply-adds
    c["entangle.purity_madds"] += dim * dim * (dim + 1) // 2


def _observe_csv(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    data = Path(result).read_bytes()
    lines = data.splitlines()
    tracer.counts["output.bytes"] += len(data)
    tracer.counts["output.rows"] += sum(1 for line in lines if not line.startswith(b"#")) - 1


def _observe_oracle(tracer, args, kwargs, result, exc):
    if exc is not None:
        return
    from fockseries import oracle
    spec = args[0]
    terms = oracle._oracle_terms(spec, oracle.PrecisionConfig())[0] + 1
    tracer.counts["oracle.terms"] += terms
    if isinstance(result, oracle.EntanglementResult):
        tracer.counts["oracle.dim_max"] = max(tracer.counts["oracle.dim_max"], terms + spec.k)


# (module, attribute, span name, role, observer)
LAYERS = (
    ("fockseries.sweep", "run_preset", "sweep.run_preset", "outer", None),
    ("fockseries.sweep", "run_sweep", "sweep.run_sweep", "outer", None),
    ("fockseries.sweep", "truncate", "series.truncate", "point", _observe_truncate),
    ("fockseries.sweep", "photon_statistics", "series.photon_statistics", "inner", None),
    ("fockseries.sweep", "linear_entropy", "entangle.linear_entropy", "inner", None),
    ("fockseries.entangle", "split", "entangle.split", "inner", _observe_split),
    ("fockseries.entangle", "reduced_purity", "entangle.reduced_purity", "inner", None),
    ("fockseries.sweep", "write_curve_csv", "output.write_csv", "outer", _observe_csv),
    ("fockseries.sweep", "write_manifest", "output.write_manifest", "outer", None),
)
# the mpmath references of a workload's checks, computed once a run
ORACLE_LAYERS = (
    ("fockseries.oracle", "oracle_statistics", "oracle.statistics", "point", _observe_oracle),
    ("fockseries.oracle", "oracle_entropy", "oracle.entropy", "point", _observe_oracle),
)

PER_LAYER = (
    ("setup.numpy_s", "s"), ("setup.scipy_special_s", "s"), ("setup.mpmath_s", "s"),
    ("setup.fockseries_s", "s"),
    ("series.truncate_s", "s"), ("series.truncate_calls", "count"), ("series.terms", "count"),
    ("series.useful_frac", "frac"), ("series.photon_statistics_s", "s"),
    ("series.cap_exceeded", "count"), ("series.q_err_max", "abs"),
    ("entangle.split_s", "s"), ("entangle.reduced_purity_s", "s"), ("entangle.dim_max", "count"),
    ("entangle.dim_sum", "count"), ("entangle.matrix_bytes", "B"),
    ("entangle.nonzero_frac", "frac"), ("entangle.purity_madds", "count"),
    ("output.write_csv_s", "s"), ("output.rows", "count"), ("output.bytes", "B"),
    ("output.write_manifest_s", "s"),
    ("oracle.statistics_s", "s"), ("oracle.entropy_s", "s"), ("oracle.terms", "count"),
    ("oracle.dim_max", "count"),
    ("sweep.self_s", "s"), ("trace.overhead_frac", "frac"),
)
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("points_per_s", "1/s"), ("point_ms_p50", "ms"),
    ("point_ms_p90", "ms"), ("peak_rss_mb", "MB"),
)


def install(tracer: Tracer, layers=LAYERS) -> Tracer:
    """Wrap every layer; ``Tracer.restore`` undoes it."""
    for module, attr, name, role, observe in layers:
        tracer.wrap(importlib.import_module(module), attr, name, role, observe)
    return tracer


def layer_metrics(tracer, rounds: int, workload) -> dict[str, float]:
    """Per-layer metrics of ``rounds`` traced rounds, per round; the oracle
    layer's are per run, for the references computed once."""
    own = tracer.self_ns()
    c = tracer.counts

    def seconds(*names, per=rounds):
        return sum(own.get(n, 0) for n in names) / 1e9 / per

    terms = c["series.terms"]
    return {
        "series.truncate_s": seconds("series.truncate"),
        "series.truncate_calls": tracer.calls("series.truncate") / rounds,
        "series.terms": terms / rounds,
        "series.useful_frac": c["series.useful_terms"] / terms if terms else 0.0,
        "series.photon_statistics_s": seconds("series.photon_statistics"),
        "series.cap_exceeded": c["series.cap_exceeded"] / rounds,
        "series.q_err_max": workload.q_err_max,
        "entangle.split_s": seconds("entangle.split"),
        "entangle.reduced_purity_s": seconds("entangle.reduced_purity"),
        "entangle.dim_max": c["entangle.dim_max"],
        "entangle.dim_sum": c["entangle.dim_sum"] / rounds,
        "entangle.matrix_bytes": c["entangle.matrix_bytes"] / rounds,
        "entangle.nonzero_frac": (c["entangle.nonzero_cells"] / c["entangle.cells"]
                                  if c["entangle.cells"] else 0.0),
        "entangle.purity_madds": c["entangle.purity_madds"] / rounds,
        "output.write_csv_s": seconds("output.write_csv"),
        "output.rows": c["output.rows"] / rounds,
        "output.bytes": c["output.bytes"] / rounds,
        "output.write_manifest_s": seconds("output.write_manifest"),
        "oracle.statistics_s": seconds("oracle.statistics", per=1),
        "oracle.entropy_s": seconds("oracle.entropy", per=1),
        "oracle.terms": c["oracle.terms"],
        "oracle.dim_max": c["oracle.dim_max"],
        "sweep.self_s": seconds(*(n for n in own if n.startswith("sweep."))),
    }


# --- one run ------------------------------------------------------------------

class Run:
    """Operations of one run, each checked; a failure is a nonzero exit, an
    exception or a failed output check."""

    def __init__(self, workload, scratch: Path, launcher: Launcher) -> None:
        self.workload = workload
        self.scratch = scratch
        self.launcher = launcher
        self.attempted = 0
        self.failures: list[str] = []
        self._digests = None
        self._rounds = 0

    def outdir(self, kind: str) -> Path:
        self._rounds += 1
        path = self.scratch / f"{kind}-{self._rounds}"
        path.mkdir()
        return path

    def finish(self, outdir: Path, errors: list[str]) -> None:
        """Check one operation's output, fully the first time and afterwards by
        requiring the same bytes; then delete it."""
        from workloads import digests
        self.attempted += 1
        if not errors:
            got = digests(outdir)
            if self._digests is None:
                errors = self.workload.check(outdir)
                if not errors:
                    self._digests = got
            elif got != self._digests:
                errors = [f"output bytes differ from the first run's: {outdir.name}"]
        if errors:
            self.failures.append(f"{outdir.name}: " + "; ".join(errors[:5]))
        shutil.rmtree(outdir)

    def cli_round(self) -> tuple[list[float], float]:
        """Wall seconds of each of the round's commands, and their largest
        peak RSS in MB."""
        outdir = self.outdir("cli")
        walls = []
        rss = 0.0
        errors = []
        for argv in self.workload.cli_argvs(outdir):
            seconds, mb, code, stderr = self.launcher.run(argv, self.scratch)
            walls.append(seconds)
            rss = max(rss, mb)
            if code != 0:
                errors.append(f"exit {code}: {stderr.strip()[-500:]}")
        self.finish(outdir, errors)
        return walls, rss

    def chain_slice(self, calls: list, first: int, samples: list[list[int]]) -> None:
        """Time the per-point calls ``first``, ``first + CHAIN_SLICES``, ...
        and add each time in nanoseconds to that point's samples."""
        self.attempted += 1
        for i in range(first, len(calls), CHAIN_SLICES):
            t0 = time.perf_counter_ns()
            try:
                calls[i]()
            except Exception:
                self.failures.append(f"point {i}: {traceback.format_exc(limit=3)}")
                return
            samples[i].append(time.perf_counter_ns() - t0)

    def warm_round(self, tracer=None) -> float:
        """Seconds of the workload's public calls; ``tracer``, if given, has
        wrapped the layers and is restored afterwards."""
        outdir = self.outdir("warm")
        errors = []
        t0 = time.perf_counter()
        try:
            self.workload.warm(outdir)
        except Exception:
            errors.append(traceback.format_exc(limit=3))
        finally:
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.restore()
        self.finish(outdir, errors)
        return seconds


def contended(samples: list[float]) -> float:
    """The 90th percentile of one unit's repeats: its time under the host's
    usual contention (README.md, "Estimators")."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def measure(run: Run, seconds: float) -> tuple[dict[str, float], dict]:
    """End-to-end metrics.  CLI rounds and rounds of the per-point chain share
    ``seconds`` by ``SHARES`` and alternate; a per-point round times one
    slice of the grid points, in turn.  Each kind runs at least
    ``MIN_ROUNDS`` times (passes, for the per-point chain).  A set-up sample
    is taken every ``seconds / SETUP_SAMPLES``."""
    wl = run.workload
    wl.prepare()
    calls = wl.point_calls()
    spent = dict.fromkeys(SHARES, 0.0)
    rounds = dict.fromkeys(SHARES, 0)
    least = {"cli": MIN_ROUNDS, "chain": MIN_ROUNDS * CHAIN_SLICES}
    setup, cli, rss = [], [], []
    point_samples: list[list[int]] = [[] for _ in calls]
    start = next_setup = time.perf_counter()
    while True:
        if time.perf_counter() >= next_setup and len(setup) < SETUP_SAMPLES:
            setup.append(import_seconds(ENTRY_MODULE, run.scratch))
            next_setup += seconds / SETUP_SAMPLES
            continue
        short = [kind for kind in SHARES if rounds[kind] < least[kind]]
        late = time.perf_counter() - start >= seconds
        if late and not short:
            break
        kind = min(short if late else SHARES, key=lambda k: spent[k] / SHARES[k])
        t0 = time.perf_counter()
        if kind == "cli":
            walls, mb = run.cli_round()
            cli.append(walls)
            rss.append(mb)
        else:
            run.chain_slice(calls, rounds[kind] % CHAIN_SLICES, point_samples)
        spent[kind] += time.perf_counter() - t0
        rounds[kind] += 1
    while len(setup) < SETUP_SAMPLES:
        setup.append(import_seconds(ENTRY_MODULE, run.scratch))
    points = [contended(samples) for samples in point_samples if samples]
    if len(points) < MIN_POINTS:
        raise RuntimeError(f"{len(points)} grid points timed, fewer than {MIN_POINTS}")
    deciles = statistics.quantiles(points, n=10)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(contended(walls) for walls in zip(*cli)),
        "points_per_s": len(points) / sum(points) * 1e9,
        "point_ms_p50": statistics.median(points) / 1e6,
        "point_ms_p90": deciles[8] / 1e6,
        "peak_rss_mb": statistics.median(rss),
    }, {"setup_samples": setup, "cli_walls": cli, "peak_rss_mb": rss,
        "point_samples": point_samples}


def measure_layers(run: Run, seconds: float, spans_path: Path) -> tuple[dict[str, float], dict]:
    """Per-layer metrics from the traced oracle references and from traced
    warm rounds, alternated with untraced rounds that give the tracing
    overhead."""
    wl = run.workload
    parts = [import_layers(ENTRY_MODULE, run.scratch) for _ in range(IMPORTTIME_REPEATS)]
    metrics = {key: statistics.median(p[key] for p in parts) for key in parts[0]}
    tracer = install(Tracer(), ORACLE_LAYERS)
    try:
        wl.prepare()
    finally:
        tracer.restore()

    plain, traced, t0 = [], [], time.perf_counter()
    while not traced or time.perf_counter() - t0 + (plain[-1] + traced[-1]) <= seconds:
        plain.append(run.warm_round())
        traced.append(run.warm_round(install(tracer)))
    metrics.update(layer_metrics(tracer, len(traced), wl))
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    tracer.dump(spans_path)
    return metrics, {"plain_rounds": len(plain), "traced_rounds": len(traced),
                     "spans": len(tracer.spans)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("figures", "entropy"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fockseries" / "__init__.py").is_file():
        print(f"bench: no program to measure: {SRC / 'fockseries'} is missing", file=sys.stderr)
        return 2

    use_checked_out_tree()
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = Path(tempfile.mkdtemp(prefix=stem + "-", dir=OUT))
    launcher = Launcher()
    try:
        from workloads import WORKLOADS
        workload = WORKLOADS[args.workload](args.seed)
        run = Run(workload, scratch, launcher)
        if args.trace:
            metrics, samples = measure_layers(run, args.seconds, OUT / f"{stem}-spans.jsonl")
            units = dict(PER_LAYER)
        else:
            metrics, samples = measure(run, args.seconds)
            units = dict(END_TO_END)
    finally:
        launcher.close()
        shutil.rmtree(scratch)

    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures),
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "grid": [getattr(workload, "lo", None),
                                            getattr(workload, "hi", None)],
              "machine": machine_facts(), "samples": samples,
              "failures": run.failures, **result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="ascii")
    for name, unit in units.items():
        print(f"{name:32s} {metrics[name]:.6g} {unit}")
    for failure in run.failures:
        print(f"FAILED {failure}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
