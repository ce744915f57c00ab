"""Tests of the benchmark itself: the counts that must repeat exactly for the
default seed, and tracing that leaves the output bytes unchanged.

Run from the repository root:  python -m pytest bench -q
"""
import json
import shutil
import subprocess
import sys

import pytest

import run

run.use_checked_out_tree()

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, digests  # noqa: E402

# One round of each workload at the default seed.  A change that moves one of
# these counts changes the work the program does; update the pin with a reason.
PINNED = {
    "figures": {"series.terms": 390167, "output.bytes": 75068},
    "entropy": {"series.terms": 26126, "entangle.dim_sum": 26429,
                "entangle.matrix_bytes": 85843832, "entangle.purity_madds": 2587900821,
                "output.bytes": 7344},
}


def traced_round(name, outdir):
    workload = WORKLOADS[name](run.DEFAULT_SEED)
    tracer = run.install(Tracer())
    try:
        workload.warm(outdir)
    finally:
        tracer.restore()
    return run.layer_metrics(tracer, 1, workload)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_counts_repeat_exactly(name, tmp_path):
    metrics = traced_round(name, tmp_path)
    assert {key: metrics[key] for key in PINNED[name]} == PINNED[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tracing_leaves_output_bytes_unchanged(name, tmp_path):
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    WORKLOADS[name](run.DEFAULT_SEED).warm(tmp_path / "plain")
    traced_round(name, tmp_path / "traced")
    plain = digests(tmp_path / "plain")
    assert plain and plain == digests(tmp_path / "traced")


def test_benchmark_json_declares_what_the_runs_report():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "figures"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_contended_time_is_the_upper_decile_of_the_repeats():
    assert run.contended([3.0]) == 3.0
    assert run.contended([float(t) for t in range(1, 12)]) == 10.0
