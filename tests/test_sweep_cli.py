"""Sweep evaluation, CSV/manifest emission, presets and their plot scripts, CLI codes."""
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

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
from fockseries import sweep
from fockseries.oracle import oracle_entropy
from fockseries.sweep import MAX_STEPS, PRESETS, policy_label

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
        """A fixed cutoff is judged against the default tolerance, which the
        header records: short of the peak it fails, past it it can pass."""
        req = small_sweep(tmp_path, q=0.5, k=3, alpha_min=4.0, alpha_max=5.0,
                          steps=2, policy=FixedTruncation(n_max=100))
        meta, rows = read_curve_csv(run_sweep(req))
        assert meta["policy"] == "fixed:100"
        assert meta["tol"] == "1e-14"
        for row in rows:
            assert row["converged"] == "false"
            assert row["tail_bound_rel"] == "inf"
            assert row["n_max_used"] == "100"
        req = small_sweep(tmp_path, q=1.0, k=0, alpha_min=1.0, alpha_max=1.0,
                          steps=2, policy=FixedTruncation(n_max=80))
        meta, rows = read_curve_csv(run_sweep(req))
        assert meta["tol"] == "1e-14"
        for row in rows:
            assert [row["n_max_used"], row["tail_bound_rel"], row["converged"]] == [
                "80", "6.425217130919811e-122", "true"]

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


# grid bounds: any finite nonnegative float, or one near the subnormals, where the step rounds to 0
grid_bounds = st.one_of(st.floats(0.0, sys.float_info.max), st.floats(0.0, 1e-320))


class TestGrid:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(bounds=st.tuples(grid_bounds, grid_bounds).map(sorted), steps=st.integers(2, 64))
    @example(bounds=[0.0, sys.float_info.max], steps=4)
    @example(bounds=[5e-324, 1e-323], steps=7)
    @example(bounds=[0.0, 5.0], steps=MAX_STEPS)
    @example(bounds=[0.0, sys.float_info.max], steps=MAX_STEPS)
    def test_grid_is_linspace_bit_for_bit(self, bounds, steps):
        """The sweep's grid, built from floats, is numpy.linspace's."""
        lo, hi = bounds
        with np.errstate(over="ignore"):  # linspace's unused last step can overflow
            ref = np.linspace(lo, hi, steps)
        assert np.array(sweep._grid(lo, hi, steps)).tobytes() == ref.tobytes()


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


class TestOutputFiles:
    def test_every_file_is_ascii_with_lf_line_ends(self, tmp_path):
        paths = [run_sweep(small_sweep(tmp_path, q=0.7, k=2)),
                 *run_preset("fig2", tmp_path / "fig2", steps=3)]
        assert len(paths) == 8
        assert set(paths[1:]) == set((tmp_path / "fig2").iterdir())
        for path in paths:
            data = path.read_bytes()
            data.decode("ascii")
            assert b"\r" not in data, path.name
            assert data.endswith(b"\n"), path.name

    def test_writers_are_called_through_the_module(self, tmp_path, monkeypatch):
        """Rebinding the sweep module's writers reroutes every CSV and manifest."""
        calls = []

        def recording(name, writer):
            def wrapper(path, *args):
                calls.append((name, Path(path).name))
                return writer(path, *args)
            return wrapper

        monkeypatch.setattr(sweep, "write_curve_csv",
                            recording("csv", sweep.write_curve_csv))
        monkeypatch.setattr(sweep, "write_manifest",
                            recording("manifest", sweep.write_manifest))
        run_preset("fig2", tmp_path, steps=3)
        assert [name for name, _ in calls] == ["csv"] * 5 + ["manifest"]
        assert calls[-1] == ("manifest", "manifest.json")
        calls.clear()
        run_sweep(small_sweep(tmp_path))
        assert calls == [("csv", "out.csv")]


class TestCliExitCodes:
    def test_sweep_success(self, tmp_path, capsys):
        out = tmp_path / "q.csv"
        code = main(["sweep", "--observable", "mandel_q", "--q", "0.5", "--k", "1",
                     "--alpha-min", "0", "--alpha-max", "2", "--steps", "4",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out

    def test_bad_arguments_exit_2(self, tmp_path, capsys):
        for observable in ("wigner", "distribution", "mean_n"):
            with pytest.raises(SystemExit) as exc:
                main(["sweep", "--observable", observable, "--out", "x.csv"])
            assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--observable", "mandel_q", "--k", "-1e3", "--out", "x.csv"])
        assert exc.value.code == 2
        assert "argument --k: invalid int value: '-1e3'" in capsys.readouterr().err
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
        ["--alpha-min", "-0.5"],
        ["--alpha-min", "-1e-05"],
        ["--alpha-max", "-inf"],
        ["--theta", "-5e-01"],
        ["--q", "-1e-3"],
    ])
    def test_out_of_range_inputs_exit_2(self, tmp_path, capsys, args):
        """A q whose reciprocal overflows, the n_max, steps and k caps, and a
        non-finite or negative grid bound, q or theta are rejected, with the
        library's message, before any weight or grid is allocated.  A
        negative value argparse would read as an option (-1e-05, -inf) is
        attached to its option, so the message names that parameter."""
        out = tmp_path / "x.csv"
        assert main(["sweep", "--observable", "mandel_q", *args, "--out", str(out)]) == 2
        assert not out.exists()
        name = "n_max" if args[0] == "--policy" else args[0][2:].replace("-", "_")
        assert re.match(rf"fockseries: .*\b{name}\b", capsys.readouterr().err)

    def test_dimension_cap_exit_3(self, tmp_path, capsys):
        """Only an unconverged series builds the D x D matrix: a cutoff of
        9000 terms is short of the certificate at |alpha| = 1 with q = 0.3."""
        code = main(["sweep", "--observable", "linear_entropy", "--q", "0.3", "--k", "5",
                     "--policy", "fixed:9000", "--alpha-min", "1", "--alpha-max", "2",
                     "--steps", "2", "--out", str(tmp_path / "x.csv")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("fockseries: numeric failure: ")
        assert "q=0.3" in err and "k=5" in err and "|alpha|=1.0" in err and "D=9006" in err

    def test_entropy_past_the_split_cap_exit_0(self, tmp_path):
        """At q=0.3, k=5 the dense path would need D = 9302 by |alpha| = 0.3
        and 172521 at |alpha| = 1; converged series take the closed form."""
        out = tmp_path / "s.csv"
        assert main(["sweep", "--observable", "linear_entropy", "--q", "0.3", "--k", "5",
                     "--alpha-max", "1", "--steps", "11", "--out", str(out)]) == 0
        _, rows = read_curve_csv(out)
        assert len(rows) == 11 and all(r["converged"] == "true" for r in rows)
        ref = float(oracle_entropy(penson_solomon_state(1.0, 5, 0.3)).linear_entropy)
        assert rows[-1]["alpha"] == "1.0" and abs(float(rows[-1]["value"]) - ref) <= 1e-12

    def test_entropy_at_k_100_exit_0(self, tmp_path):
        """At q=0.9, k=100 the dense path would need D = 24041 by |alpha| =
        0.004; |alpha| = 0.03 takes x to 1.3e6, below truncate's peak cap."""
        out = tmp_path / "s.csv"
        assert main(["sweep", "--observable", "linear_entropy", "--q", "0.9", "--k", "100",
                     "--alpha-max", "0.03", "--steps", "16", "--out", str(out)]) == 0
        _, rows = read_curve_csv(out)
        assert len(rows) == 16 and all(r["converged"] == "true" for r in rows)
        fock = 1.0 - math.comb(200, 100) / 4 ** 100  # |100> on a 50:50 splitter
        assert abs(float(rows[0]["value"]) - fock) <= 1e-15

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

    @pytest.mark.parametrize("module", ["mpmath", "scipy", "numpy", "dataclasses", "json"])
    def test_cli_does_not_load(self, module):
        """The oracle's mpmath is loaded only by fockseries.oracle, scipy (a
        test-only reference) never, numpy only where a point builds an
        array, dataclasses never (the value types are named tuples and plain
        classes), and json only where a preset writes its manifest."""
        src = Path(fockseries.__file__).resolve().parent.parent
        code = f"import sys, fockseries.cli; assert {module!r} not in sys.modules"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr

    def test_closed_form_runs_load_no_numpy(self, tmp_path):
        """The fig1 presets, an adaptive Q sweep with k <= 128 and an adaptive
        S sweep on the default grid, which starts at |alpha| = 0, take every
        point from scalar closed forms, so no process of theirs imports numpy."""
        src = Path(fockseries.__file__).resolve().parent.parent
        runs = [["preset", "--name", "fig1-left", "--out-dir", str(tmp_path / "left")],
                ["preset", "--name", "fig1-right", "--out-dir", str(tmp_path / "right")],
                ["sweep", "--observable", "mandel_q", "--q", "0.5", "--k", "3",
                 "--out", str(tmp_path / "q.csv")],
                ["sweep", "--observable", "linear_entropy", "--q", "0.5", "--k", "3",
                 "--out", str(tmp_path / "s.csv")]]
        for argv in runs:
            code = ("import sys\nfrom fockseries.cli import main\n"
                    f"assert main({argv!r}) == 0\nassert 'numpy' not in sys.modules\n")
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                  env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
            assert proc.returncode == 0, (argv, proc.stderr)
        for name in ("q.csv", "s.csv"):
            _, rows = read_curve_csv(tmp_path / name)
            assert (len(rows), rows[0]["alpha"]) == (201, "0.0")

    def test_console_script_checks(self, tmp_path):
        """tests/console_script.sh, the calls and pins CI runs against the
        installed console script, pass against src/ through a wrapper."""
        src = Path(fockseries.__file__).resolve().parent.parent
        wrapper = tmp_path / "fockseries"
        wrapper.write_text(f'#!/bin/sh\nexec {shlex.quote(sys.executable)} -m fockseries.cli "$@"\n')
        wrapper.chmod(0o755)
        script = Path(__file__).with_name("console_script.sh")
        proc = subprocess.run(["bash", str(script), str(wrapper), sys.executable],
                              capture_output=True, text=True, timeout=600,
                              env={**os.environ, "PYTHONPATH": str(src), "TMPDIR": str(tmp_path)})
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "oracle at |alpha|=5" in proc.stdout

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


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse exits 2 by itself, e.g. on --alpha-max -inf
        return exc.code


@st.composite
def mostly(draw, valid, other):
    """``valid`` about six times in seven, else ``other``: a run of six options
    then passes validation often enough to reach exits 0 and 3."""
    return draw(other if draw(st.integers(0, 6)) == 0 else valid)


# fixed cutoffs stop at 300 and k at 300, so no case sums millions of terms
policies = mostly(
    st.one_of(st.integers(0, 300).map(lambda n: f"fixed:{n}"),
              st.floats(0.0, 1.0, exclude_min=True, exclude_max=True).map(
                  lambda tol: f"adaptive:{tol!r}"),
              st.just("adaptive")),
    st.one_of(st.integers(-5, 0).map(lambda n: f"fixed:{n}"),
              st.floats().map(lambda tol: f"adaptive:{tol!r}"),
              st.sampled_from(["adaptive:", "fixed:", "fixed:x", "fixed:1.5", "", "garbage"]),
              st.text(max_size=8)))
steps = mostly(st.integers(2, 4), st.integers(-1, 1))


def grids(alpha_max, any_alpha_max):
    return mostly(st.tuples(st.floats(0.0, alpha_max), st.floats(0.0, alpha_max)).map(sorted),
                  st.tuples(st.floats(), any_alpha_max))


class TestCliExitCodeProperties:
    """Any sweep input ends in a documented exit code, writes its CSV if and
    only if it succeeds, and writes the same bytes when repeated."""

    @staticmethod
    def check(args):
        with tempfile.TemporaryDirectory() as tmp:
            out, again = Path(tmp) / "o.csv", Path(tmp) / "again.csv"
            code = exit_code(["sweep", *args, "--out", str(out)])
            assert code in (0, 2, 3, 4)
            assert out.exists() == (code == 0)
            if code == 0:
                assert exit_code(["sweep", *args, "--out", str(again)]) == 0
                assert again.read_bytes() == out.read_bytes()

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(q=mostly(st.floats(1e-300, 1.0), st.sampled_from([math.nan, math.inf, -math.inf])),
           k=st.integers(-2, 300), grid=grids(5.0, st.floats()), steps=steps, policy=policies)
    # the widest grid: its step is a third of the largest float, and every point is finite
    @example(q=1.0, k=0, grid=(0.0, sys.float_info.max), steps=4, policy="fixed:0")
    def test_mandel_q(self, q, k, grid, steps, policy):
        lo, hi = grid
        self.check(["--observable", "mandel_q", "--q", repr(q), "--k", str(k),
                    "--alpha-min", repr(lo), "--alpha-max", repr(hi), "--steps", str(steps),
                    "--policy", policy])

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(q=mostly(st.floats(0.5, 1.0), st.floats(min_value=0.5)), k=st.integers(-2, 8),
           grid=grids(3.0, st.floats(max_value=3.0)), steps=steps, policy=policies,
           theta=mostly(st.floats(0.0, math.pi / 2.0), st.floats()))
    def test_linear_entropy(self, q, k, grid, steps, policy, theta):
        lo, hi = grid
        # the split matrix is D x D with D near x = |alpha|^2 q^(-2k): keep it small
        assume(not (q <= 1.0 and k >= 0 and hi >= 0.0 and hi * hi * q ** (-2 * k) > 1000.0))
        self.check(["--observable", "linear_entropy", "--q", repr(q), "--k", str(k),
                    "--alpha-min", repr(lo), "--alpha-max", repr(hi), "--steps", str(steps),
                    "--policy", policy, "--theta", repr(theta)])


def tree_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*"))
            if p.is_file()}


class TestPresetExitCodeProperties:
    """Any preset input ends in a documented exit code, creates --out-dir if
    and only if it succeeds, and writes the same bytes when repeated."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(name=mostly(st.sampled_from(sorted(PRESETS)), st.text(max_size=8)),
           grid=grids(5.0, st.floats()), steps=steps)
    @example(name="fig2", grid=(0.0, 2000.0), steps=3)  # the adaptive curve's hard cap
    def test_preset(self, name, grid, steps):
        lo, hi = grid
        args = ["preset", "--name", name, "--alpha-min", repr(lo), "--alpha-max", repr(hi),
                "--steps", str(steps), "--out-dir"]
        with tempfile.TemporaryDirectory() as tmp:
            out, again = Path(tmp) / "out", Path(tmp) / "again"
            code = exit_code([*args, str(out)])
            assert code in (0, 2, 3, 4)
            assert out.exists() == (code == 0)
            if code == 0:
                assert exit_code([*args, str(again)]) == 0
                assert tree_bytes(again) == tree_bytes(out)
