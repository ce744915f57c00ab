"""Sweep evaluation, CSV/manifest emission, presets and their plot scripts, CLI codes."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fockseries
from fockseries import (
    AdaptiveTruncation,
    FixedTruncation,
    HardCapExceeded,
    InvalidParameter,
    SweepRequest,
    __version__,
    parse_policy,
    penson_solomon_state,
    photon_statistics,
    run_preset,
    run_sweep,
    truncate,
)
from fockseries.cli import main
from fockseries.sweep import MAX_STEPS, policy_label

from curve_csv import read_curve_csv


def small_sweep(tmp_path, **overrides):
    params = dict(observable="mandel_q", q=1.0, k=0,
                  alpha_min=0.5, alpha_max=3.0, steps=6,
                  output_path=tmp_path / "out.csv")
    params.update(overrides)
    return SweepRequest(**params)


class TestPolicyParsing:
    def test_round_trips(self):
        assert parse_policy("adaptive") == AdaptiveTruncation()
        assert parse_policy("adaptive:1e-10") == AdaptiveTruncation(rel_tol=1e-10)
        assert parse_policy("fixed:700") == FixedTruncation(n_max=700)
        assert policy_label(parse_policy("fixed:700")) == "fixed:700"
        assert policy_label(AdaptiveTruncation()) == "adaptive:1e-14"
        odd = AdaptiveTruncation(rel_tol=1.23456789101112e-12)
        assert parse_policy(policy_label(odd)) == odd

    def test_numpy_tolerance_round_trips(self, tmp_path):
        """A numpy tolerance is held as a float, so the header reads back."""
        policy = AdaptiveTruncation(np.float64(1e-12))
        assert type(policy.rel_tol) is float
        assert parse_policy(policy_label(policy)) == policy
        lines = run_sweep(small_sweep(tmp_path, steps=2, policy=policy)).read_text().splitlines()
        assert "# policy=adaptive:1e-12" in lines and "# tol=1e-12" in lines

    def test_rejects_garbage(self):
        for bad in ("geometric", "fixed", "fixed:x", "adaptive:zero"):
            with pytest.raises(InvalidParameter):
                parse_policy(bad)


class TestRunSweep:
    def test_poisson_row_is_flat_zero(self, tmp_path):
        """Coherent-family sweeps give Q = 0 row-wise.  The 1e-12 bound needs
        a tail tolerance below the default: the neglected tail biases the
        second moment by ~ tail * (n_max - mean)^2 / mean, which reaches
        2e-12 at alpha = 0.5 under the default 1e-14 policy."""
        path = run_sweep(small_sweep(tmp_path, policy=AdaptiveTruncation(rel_tol=1e-16)))
        metadata, rows = read_curve_csv(path)
        assert metadata["observable"] == "mandel_q"
        assert metadata["policy"] == "adaptive:1e-16"
        assert len(rows) == 6
        for row in rows:
            assert abs(float(row["value"])) < 1e-12
            assert row["converged"] == "true"

    def test_poisson_row_default_policy_envelope(self, tmp_path):
        _, rows = read_curve_csv(run_sweep(small_sweep(tmp_path)))
        for row in rows:
            assert abs(float(row["value"])) < 5e-12
            assert row["converged"] == "true"

    def test_schema_header_and_version(self, tmp_path):
        path = run_sweep(small_sweep(tmp_path))
        lines = path.read_text().splitlines()
        assert lines[0] == f"# fockseries v{__version__}"
        assert any(line == "# q=1.0" for line in lines)
        assert any(line == "# k=0" for line in lines)
        header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        assert lines[header_idx] == "alpha,value,n_max_used,tail_bound_rel,converged"

    def test_vacuum_row_has_empty_value(self, tmp_path):
        path = run_sweep(small_sweep(tmp_path, alpha_min=0.0, alpha_max=1.0, steps=3))
        _, rows = read_curve_csv(path)
        assert rows[0]["alpha"] == "0.0"
        assert rows[0]["value"] == ""
        assert rows[0]["converged"] == "false"
        assert rows[1]["value"] != ""

    def test_mandel_sweep_starts_at_minus_one_and_grows(self, tmp_path):
        req = small_sweep(tmp_path, q=0.5, k=3, alpha_min=0.0, alpha_max=5.0, steps=21)
        _, rows = read_curve_csv(run_sweep(req))
        values = [float(r["value"]) for r in rows]
        assert values[0] == -1.0
        assert all(v2 >= v1 for v1, v2 in zip(values, values[1:]))

    def test_linear_entropy_sweep_coherent_is_zero(self, tmp_path):
        req = small_sweep(tmp_path, observable="linear_entropy",
                          alpha_min=0.0, alpha_max=2.0, steps=5)
        metadata, rows = read_curve_csv(run_sweep(req))
        assert "theta" in metadata
        for row in rows:
            assert abs(float(row["value"])) < 1e-12

    def test_linear_entropy_is_never_negative(self, tmp_path):
        """A coherent input's purity rounds a few ulps above 1 at some points
        of this grid; S is clamped at 0 there."""
        req = SweepRequest(observable="linear_entropy", q=1.0, k=0, theta=0.3,
                           output_path=tmp_path / "s.csv")
        _, rows = read_curve_csv(run_sweep(req))
        assert len(rows) == 201
        assert all(float(row["value"]) >= 0.0 for row in rows)

    def test_unconverged_fixed_rows_are_flagged(self, tmp_path):
        req = small_sweep(tmp_path, q=0.5, k=3, alpha_min=4.0, alpha_max=5.0,
                          steps=2, policy=FixedTruncation(n_max=100))
        _, rows = read_curve_csv(run_sweep(req))
        for row in rows:
            assert row["converged"] == "false"
            assert row["tail_bound_rel"] == "inf"
            assert row["n_max_used"] == "100"

    def test_determinism_byte_identical(self, tmp_path):
        req1 = small_sweep(tmp_path, q=0.7, k=2, output_path=tmp_path / "a.csv")
        req2 = small_sweep(tmp_path, q=0.7, k=2, output_path=tmp_path / "b.csv")
        assert run_sweep(req1).read_bytes() == run_sweep(req2).read_bytes()

    def test_row_round_trip_reproduces_exact_value(self, tmp_path):
        """Re-running any row from its own parameters lands on the same digits."""
        req = small_sweep(tmp_path, q=0.6, k=2, alpha_min=0.3, alpha_max=4.7, steps=7)
        metadata, rows = read_curve_csv(run_sweep(req))
        policy = parse_policy(metadata["policy"])
        for row in rows:
            spec = penson_solomon_state(float(row["alpha"]), int(metadata["k"]),
                                        float(metadata["q"]))
            stats = photon_statistics(truncate(spec, policy))
            assert repr(stats.mandel_q) == row["value"]

    def test_request_validation(self, tmp_path):
        with pytest.raises(InvalidParameter):
            small_sweep(tmp_path, steps=1)
        with pytest.raises(InvalidParameter):
            small_sweep(tmp_path, alpha_min=2.0, alpha_max=1.0)
        for observable in ("wigner", "distribution", "mean_n"):
            with pytest.raises(InvalidParameter):
                small_sweep(tmp_path, observable=observable)
        assert small_sweep(tmp_path, steps=MAX_STEPS).steps == MAX_STEPS
        with pytest.raises(InvalidParameter):
            small_sweep(tmp_path, steps=MAX_STEPS + 1)

    def test_request_takes_the_observable_default_grid(self, tmp_path):
        """Unset grid fields resolve to the paper's range; set ones are kept."""
        req = SweepRequest(observable="linear_entropy", q=0.5, k=1, output_path=tmp_path / "s.csv")
        assert (req.alpha_min, req.alpha_max, req.steps) == (0.0, 5.0, 201)
        req = SweepRequest(observable="mandel_q", q=0.5, k=1, output_path=tmp_path / "q.csv")
        assert (req.alpha_min, req.alpha_max, req.steps) == (0.0, 5.0, 201)
        req = SweepRequest(observable="linear_entropy", q=0.5, k=1, output_path=tmp_path / "s.csv",
                           alpha_max=1.0)
        assert (req.alpha_min, req.alpha_max, req.steps) == (0.0, 1.0, 201)


class TestPresets:
    def test_fig1_left_curves(self, tmp_path):
        paths = run_preset("fig1-left", tmp_path, steps=9)
        names = {p.name for p in paths}
        assert names == {"fig1-left_k1.csv", "fig1-left_k2.csv",
                         "fig1-left_k3.csv", "manifest.json", "plot.gp"}
        for k in (1, 2, 3):
            _, rows = read_curve_csv(tmp_path / f"fig1-left_k{k}.csv")
            assert len(rows) == 9
            assert float(rows[0]["value"]) == -1.0  # Fock point at alpha = 0

    def test_fig1_right_override_steps(self, tmp_path):
        run_preset("fig1-right", tmp_path, steps=5)
        for k in (4, 6, 8):
            _, rows = read_curve_csv(tmp_path / f"fig1-right_k{k}.csv")
            assert len(rows) == 5
            assert rows[-1]["alpha"] == "5.0"

    def test_fig2_emits_five_curves_and_assumption(self, tmp_path):
        paths = run_preset("fig2", tmp_path, steps=11)
        csvs = [p for p in paths if p.suffix == ".csv"]
        assert len(csvs) == 5
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["fockseries_version"] == __version__
        assert "0.5" in manifest["assumptions"]["q"]
        labels = {c["label"] for c in manifest["curves"]}
        assert labels == {"n_max=100", "n_max=200", "n_max=400", "n_max=700",
                          "adaptive reference"}
        styles = {c["style"] for c in manifest["curves"]}
        assert styles == {"dotted", "dashed", "dot-dashed", "solid"}

    def test_preset_determinism(self, tmp_path):
        run_preset("fig1-left", tmp_path / "one", steps=5)
        run_preset("fig1-left", tmp_path / "two", steps=5)
        for name in ("fig1-left_k1.csv", "manifest.json", "plot.gp"):
            assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()

    def test_integer_grid_bounds_write_the_default_manifest(self, tmp_path):
        run_preset("fig1-left", tmp_path / "int", steps=3, alpha_min=0, alpha_max=5)
        run_preset("fig1-left", tmp_path / "default", steps=3)
        assert ((tmp_path / "int" / "manifest.json").read_bytes()
                == (tmp_path / "default" / "manifest.json").read_bytes())

    def test_unknown_preset(self, tmp_path):
        with pytest.raises(InvalidParameter):
            run_preset("fig9", tmp_path)

    def test_bad_grid_leaves_no_directory(self, tmp_path):
        """Every curve's request is validated, and every curve evaluated,
        before the directory is made or any file written."""
        out_dir = tmp_path / "fig2"
        with pytest.raises(InvalidParameter):
            run_preset("fig2", out_dir, alpha_min=3.0, alpha_max=1.0)
        assert not out_dir.exists()
        with pytest.raises(InvalidParameter, match="alpha_max must be finite, got inf"):
            run_preset("fig2", out_dir, steps=3, alpha_max=math.inf)
        assert not out_dir.exists()
        # the four fixed cutoffs succeed at |alpha| = 2000; the adaptive reference fails
        with pytest.raises(HardCapExceeded, match="q=0.5, k=3, .alpha.=1000.0"):
            run_preset("fig2", out_dir, steps=3, alpha_max=2000.0)
        assert not out_dir.exists()

    def test_failing_preset_keeps_an_earlier_run(self, tmp_path):
        run_preset("fig2", tmp_path, steps=3)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert len(before) == 7
        assert main(["preset", "--name", "fig2", "--steps", "3", "--alpha-max", "2000",
                     "--out-dir", str(tmp_path)]) == 3
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestPlotScript:
    def test_script_references_all_curves(self, tmp_path):
        run_preset("fig2", tmp_path, steps=5)
        text = (tmp_path / "plot.gp").read_text()
        for n in (100, 200, 400, 700):
            assert f"fig2_nmax{n}.csv" in text
        assert "fig2_adaptive.csv" in text
        assert "dashtype 3" in text   # dotted, per the caption
        assert "dashtype 4" in text   # dot-dashed
        assert "set ylabel 'Mandel Q'" in text


class TestCliExitCodes:
    def test_sweep_success(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        code = main(["sweep", "--observable", "mandel_q", "--q", "0.5", "--k", "1",
                     "--alpha-min", "0", "--alpha-max", "2", "--steps", "4",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out

    def test_bad_arguments_exit_2(self, tmp_path):
        for observable in ("wigner", "distribution", "mean_n"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--observable", observable, "--out", "x.csv"])
            assert exc.value.code == 2
        code = main(["sweep", "--observable", "mandel_q", "--steps", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        code = main(["sweep", "--observable", "mandel_q", "--policy", "fixed:nope",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        code = main(["sweep", "--observable", "mandel_q", "--q", "0.0",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("args", [
        ["--q", "1e-320", "--k", "1", "--policy", "fixed:5", "--steps", "3"],
        ["--q", "1e-320", "--k", "0", "--steps", "3"],
        ["--policy", "fixed:1000000000000"],
        ["--steps", "1000000000000"],
        ["--k", "2000001"],
        ["--k", "1" + "0" * 160],
        ["--alpha-max", "inf", "--steps", "3"],
    ])
    def test_out_of_range_inputs_exit_2(self, tmp_path, args):
        """A q whose reciprocal overflows, the n_max, steps and k caps, and a
        non-finite grid bound are rejected before any weight or grid is
        allocated."""
        out = tmp_path / "x.csv"
        assert main(["sweep", "--observable", "mandel_q", *args, "--out", str(out)]) == 2
        assert not out.exists()

    def test_dimension_cap_exit_3(self, tmp_path, capsys):
        code = main(["sweep", "--observable", "linear_entropy", "--k", "50000",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("fockseries: numeric failure: ")
        assert "q=1.0" in err and "k=50000" in err and "|alpha|=0.0" in err and "D=50001" in err

    @pytest.mark.parametrize("tol", ["1e-320", "5e-324"])
    def test_subnormal_tolerance_exit_0(self, tmp_path, tol):
        """A subnormal rel_tol has no finite reciprocal; the tail still runs."""
        out = tmp_path / "x.csv"
        assert main(["sweep", "--observable", "mandel_q", "--policy", f"adaptive:{tol}",
                     "--steps", "3", "--out", str(out)]) == 0
        rows = [line for line in out.read_text().splitlines() if line[0].isdigit()]
        assert len(rows) == 3 and rows[1].endswith(",true") and rows[2].endswith(",true")

    def test_internal_value_error_propagates(self, tmp_path, monkeypatch):
        """Only fockseries errors are reported as bad arguments."""
        def broken(req):
            raise ValueError("internal fault")
        monkeypatch.setattr("fockseries.cli.run_sweep", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["sweep", "--observable", "mandel_q", "--out", str(tmp_path / "x.csv")])

    def test_numeric_failure_exit_3(self, tmp_path, capsys):
        """The message names the (q, k, |alpha|) that hit the cap."""
        code = main(["sweep", "--observable", "mandel_q", "--q", "0.2", "--k", "5",
                     "--alpha-min", "3.9", "--alpha-max", "4.0", "--steps", "2",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert "q=0.2" in err and "k=5" in err and "|alpha|=3.9" in err

    def test_io_failure_exit_4(self, tmp_path):
        code = main(["sweep", "--observable", "mandel_q", "--steps", "2",
                     "--alpha-min", "1", "--alpha-max", "2",
                     "--out", str(tmp_path / "no-such-dir" / "x.csv")])
        assert code == 4

    def test_preset_and_plot_pipeline(self, tmp_path):
        assert main(["preset", "--name", "fig1-left", "--out-dir", str(tmp_path),
                     "--steps", "4"]) == 0
        assert (tmp_path / "plot.gp").exists()

    def test_preset_defaults_are_the_library_defaults(self, tmp_path):
        assert main(["preset", "--name", "fig1-right", "--out-dir", str(tmp_path / "cli")]) == 0
        run_preset("fig1-right", tmp_path / "lib")
        cli, lib = ({p.name: p.read_bytes() for p in (tmp_path / side).iterdir()}
                    for side in ("cli", "lib"))
        assert len(lib) == 5 and cli == lib

    @pytest.mark.parametrize("args", [["--q", "1e-200", "--k", "2"],
                                      ["--alpha-max", "1e200"]])
    def test_overflowing_ratio_exit_3(self, tmp_path, args):
        """A term ratio beyond float range fails the adaptive cap check."""
        code = main(["sweep", "--observable", "mandel_q", *args,
                     "--out", str(tmp_path / "x.csv")])
        assert code == 3

    def test_ratio_constant_from_logs_when_q_power_overflows(self, tmp_path):
        """q^(-2k) = 1e600 overflows, but c = (|alpha|/q^k)^2 is 0.25 at the
        middle point: the photon-added coherent state at |beta| = 0.5."""
        out = tmp_path / "x.csv"
        assert main(["sweep", "--observable", "mandel_q", "--q", "1e-300", "--k", "1",
                     "--alpha-max", "1e-300", "--steps", "3", "--out", str(out)]) == 0
        _, rows = read_curve_csv(out)
        assert [r["converged"] for r in rows] == ["true"] * 3
        assert float(rows[1]["alpha"]) == 5e-301
        same = photon_statistics(truncate(penson_solomon_state(0.5, 1, 1.0), AdaptiveTruncation()))
        assert abs(float(rows[1]["value"]) - same.mandel_q) < 1e-12

    def test_overflowing_ratio_fixed_rows_are_flagged(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(["sweep", "--observable", "mandel_q", "--q", "1e-200", "--k", "2",
                     "--policy", "fixed:10", "--out", str(out)])
        assert code == 0
        _, rows = read_curve_csv(out)
        assert len(rows) == 201
        assert all(r["converged"] == "false" and r["tail_bound_rel"] == "inf"
                   for r in rows[1:])

    @pytest.mark.parametrize("module", ["mpmath", "scipy"])
    def test_cli_does_not_load(self, module):
        """The oracle's mpmath is loaded only by fockseries.oracle, and scipy
        (a test-only reference) never."""
        src = Path(fockseries.__file__).resolve().parent.parent
        code = f"import sys, fockseries.cli; assert {module!r} not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_default_grids_per_observable(self, tmp_path):
        """Unset flags take the library's defaults: 201 points on [0,5] for
        both Q and S, the adaptive policy and the 50:50 splitter."""
        for observable in ("mandel_q", "linear_entropy"):
            out = tmp_path / f"{observable}-cli.csv"
            assert main(["sweep", "--observable", observable, "--q", "0.5", "--k", "1",
                         "--out", str(out)]) == 0
            _, rows = read_curve_csv(out)
            assert len(rows) == 201
            assert (rows[0]["alpha"], rows[-1]["alpha"]) == ("0.0", "5.0")
            lib = run_sweep(SweepRequest(observable, 0.5, 1, tmp_path / f"{observable}-lib.csv"))
            assert out.read_bytes() == lib.read_bytes()
