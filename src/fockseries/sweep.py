"""Parameter sweeps over |alpha| and figure presets with their gnuplot scripts.

Grid points are independent pure evaluations, written in grid order.  A
curve CSV holds a `# fockseries v<version>` header line, `# key=value`
metadata lines, a column-name line, then comma-separated rows.  Floats are
written with repr() (the shortest decimal that parses back to the identical
float64), booleans as lowercase true/false, missing values as empty fields;
every file is ASCII with LF line ends, so identical inputs yield
byte-identical files.  Building the grid loads no numpy.
"""
from __future__ import annotations

import math
from collections.abc import Iterable, Mapping, Sequence

from ._version import __version__
from .entangle import BeamSplitterSetting, linear_entropy
from .errors import InvalidParameter
from .series import (
    AdaptiveTruncation,
    FixedTruncation,
    TruncationPolicy,
    photon_statistics,
    truncate,
)
from .states import _record, penson_solomon_state

OBSERVABLES = ("mandel_q", "linear_entropy")

# default (alpha_min, alpha_max, steps): the paper's full |alpha| range for
# both observables
DEFAULT_GRID = (0.0, 5.0, 201)
# the grid is materialized before any point is evaluated
MAX_STEPS = 100_000
SCALAR_COLUMNS = ("alpha", "value", "n_max_used", "tail_bound_rel", "converged")


def parse_policy(text: str) -> TruncationPolicy:
    """Parse ``adaptive``, ``adaptive:<tol>``, or ``fixed:<n>``."""
    kind, _, arg = text.strip().partition(":")
    if kind == "adaptive":
        if not arg:
            return AdaptiveTruncation()
        try:
            return AdaptiveTruncation(rel_tol=float(arg))
        except ValueError as exc:
            raise InvalidParameter(f"bad adaptive tolerance {arg!r}: {exc}") from exc
    if kind == "fixed":
        try:
            return FixedTruncation(n_max=int(arg))
        except ValueError as exc:
            raise InvalidParameter(f"bad fixed cutoff {arg!r}: {exc}") from exc
    raise InvalidParameter(f"policy must be adaptive[:<tol>] or fixed:<n>, got {text!r}")


def policy_label(policy: TruncationPolicy) -> str:
    # repr keeps the tolerance round-trippable through parse_policy
    if isinstance(policy, AdaptiveTruncation):
        return f"adaptive:{policy.rel_tol!r}"
    return f"fixed:{policy.n_max}"


class SweepRequest(_record("SweepRequest", "observable q k output_path alpha_min alpha_max "
                           "steps policy theta")):
    """One observable over an |alpha| grid, by default DEFAULT_GRID."""

    __slots__ = ()

    def __new__(cls, observable: str, q: float, k: int, output_path: Path | str,
                alpha_min: float = DEFAULT_GRID[0], alpha_max: float = DEFAULT_GRID[1],
                steps: int = DEFAULT_GRID[2], policy: TruncationPolicy = AdaptiveTruncation(),
                theta: float = BeamSplitterSetting().theta) -> SweepRequest:
        if observable not in OBSERVABLES:
            raise InvalidParameter(f"unknown observable {observable!r}")
        bounds = float(alpha_min), float(alpha_max)
        for name, bound in zip(("alpha_min", "alpha_max"), bounds):
            if not math.isfinite(bound):
                raise InvalidParameter(f"{name} must be finite, got {bound!r}")
        if not (0.0 <= bounds[0] <= bounds[1]):
            raise InvalidParameter("need 0 <= alpha_min <= alpha_max")
        if not isinstance(steps, int) or not 2 <= steps <= MAX_STEPS:
            raise InvalidParameter(f"steps must be an integer in [2, {MAX_STEPS}], got {steps!r}")
        BeamSplitterSetting(theta)  # validates
        return tuple.__new__(cls, (observable, q, k, output_path, *bounds, steps, policy, theta))


def _evaluate_point(req: SweepRequest, setting: BeamSplitterSetting, alpha: float) -> tuple:
    """The CSV row for one grid point; ``setting`` is the request's theta."""
    spec = penson_solomon_state(alpha, req.k, req.q)
    series = truncate(spec, req.policy)
    if req.observable == "linear_entropy":
        value = linear_entropy(series, setting=setting, allow_unconverged=True).linear_entropy
    else:
        value = photon_statistics(series).mandel_q
    # the vacuum's Q row is still written: empty value cell, flagged unconverged
    converged = series.converged and value is not None
    return (alpha, value, series.n_max, series.tail_bound_rel, converged)


def _sweep_metadata(req: SweepRequest) -> dict:
    metadata = {
        "observable": req.observable,
        "q": float(req.q),
        "k": req.k,
        "policy": policy_label(req.policy),
        "tol": req.policy.rel_tol,
    }
    if req.observable == "linear_entropy":
        metadata["theta"] = float(req.theta)
    return metadata


def _grid(lo: float, hi: float, steps: int) -> list[float]:
    """numpy.linspace(lo, hi, steps) by its float operations: i * step + lo, or
    i / div * delta + lo where the step rounds to 0 (subnormal bounds), then hi."""
    div, delta = steps - 1, hi - lo
    step = delta / div
    return [i * step + lo if step else i / div * delta + lo for i in range(div)] + [hi]


def _evaluate(req: SweepRequest) -> list[tuple]:
    """The CSV rows of the whole grid."""
    setting = BeamSplitterSetting(req.theta)
    return [_evaluate_point(req, setting, alpha)
            for alpha in _grid(req.alpha_min, req.alpha_max, req.steps)]


def format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_ascii(path: Path | str, text: str) -> Path:
    from pathlib import Path  # only writing needs it, not the import of the CLI
    path = Path(path)
    path.write_text(text, encoding="ascii", newline="\n")
    return path


def write_curve_csv(path: Path | str,
                    metadata: Mapping[str, object],
                    rows: Iterable[Sequence[object]]) -> Path:
    """One row per grid point in the SCALAR_COLUMNS shape."""
    lines = [f"# fockseries v{__version__}"]
    lines.extend(f"# {key}={format_cell(val)}" for key, val in metadata.items())
    lines.append(",".join(SCALAR_COLUMNS))
    for row in rows:
        if len(row) != len(SCALAR_COLUMNS):
            raise ValueError(f"row has {len(row)} cells, expected {len(SCALAR_COLUMNS)}")
        lines.append(",".join(format_cell(cell) for cell in row))
    return _write_ascii(path, "\n".join(lines) + "\n")


def write_manifest(path: Path | str, manifest: Mapping[str, object]) -> Path:
    import json  # only presets write a manifest
    return _write_ascii(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def run_sweep(req: SweepRequest) -> Path:
    """Evaluate the grid and write the curve CSV; returns the written path."""
    return write_curve_csv(req.output_path, _sweep_metadata(req), _evaluate(req))


# --- figure presets ---------------------------------------------------------

class PresetCurve(_record("PresetCurve", "filename label style width k policy")):
    __slots__ = ()


class Preset(_record("Preset", "name q curves assumptions")):
    """A Mandel Q figure: one curve per (k, policy) at a shared q.  ``assumptions``
    holds (key, text) pairs, recorded in the manifest."""

    __slots__ = ()


def _fig1(name: str, q: float, ks: tuple[int, int, int]) -> Preset:
    styles = ("dashed", "dotted", "solid")
    curves = tuple(
        PresetCurve(filename=f"{name}_k{k}.csv", label=f"k={k}", style=style,
                    width=1, k=k, policy=AdaptiveTruncation())
        for k, style in zip(ks, styles))
    return Preset(name=name, q=q, curves=curves, assumptions=())


def _fig2() -> Preset:
    styles = {100: "dotted", 200: "dashed", 400: "dot-dashed", 700: "solid"}
    curves = [
        PresetCurve(filename=f"fig2_nmax{n}.csv", label=f"n_max={n}", style=style,
                    width=1, k=3, policy=FixedTruncation(n_max=n))
        for n, style in styles.items()
    ]
    curves.append(PresetCurve(filename="fig2_adaptive.csv", label="adaptive reference",
                              style="solid", width=2, k=3, policy=AdaptiveTruncation()))
    return Preset(name="fig2", q=0.5, curves=tuple(curves),
                  assumptions=(("q", "0.5 assumed; the source figure caption does not state it"),))


PRESETS = {
    "fig1-left": _fig1("fig1-left", 0.5, (1, 2, 3)),
    "fig1-right": _fig1("fig1-right", 0.8, (4, 6, 8)),
    "fig2": _fig2(),
}


def run_preset(name: str,
               out_dir: Path | str,
               steps: int = DEFAULT_GRID[2],
               alpha_min: float = DEFAULT_GRID[0],
               alpha_max: float = DEFAULT_GRID[1]) -> list[Path]:
    """Emit one CSV per preset curve, a manifest recording every parameter,
    and ``plot.gp``, a gnuplot script drawing the curves.  Every curve is
    evaluated before anything touches the disk, so a failing point leaves
    the output directory as it was."""
    from pathlib import Path
    if name not in PRESETS:
        raise InvalidParameter(f"unknown preset {name!r} (have {', '.join(sorted(PRESETS))})")
    preset = PRESETS[name]
    out_dir = Path(out_dir)
    requests = [SweepRequest(observable="mandel_q", q=preset.q, k=curve.k,
                             output_path=out_dir / curve.filename, alpha_min=alpha_min,
                             alpha_max=alpha_max, steps=steps, policy=curve.policy)
                for curve in preset.curves]
    tables = [_evaluate(req) for req in requests]
    out_dir.mkdir(parents=True, exist_ok=True)

    written = [write_curve_csv(req.output_path, _sweep_metadata(req), rows)
               for req, rows in zip(requests, tables)]
    manifest_curves = [{
        "file": curve.filename,
        "label": curve.label,
        "style": curve.style,
        "width": curve.width,
        "parameters": _sweep_metadata(req),
    } for curve, req in zip(preset.curves, requests)]
    # every curve's request holds the same grid, its bounds as floats
    grid = requests[0]
    manifest = {
        "fockseries_version": __version__,
        "preset": preset.name,
        "observable": "mandel_q",
        "q": preset.q,
        "alpha_min": grid.alpha_min,
        "alpha_max": grid.alpha_max,
        "steps": grid.steps,
        "assumptions": dict(preset.assumptions),
        "curves": manifest_curves,
    }
    written.append(write_manifest(out_dir / "manifest.json", manifest))
    written.append(_write_ascii(out_dir / "plot.gp", _plot_script(preset)))
    return written


_DASHTYPES = {"solid": 1, "dashed": 2, "dotted": 3, "dot-dashed": 4}


def _plot_script(preset: Preset) -> str:
    """gnuplot script naming the preset's CSVs relative to its directory."""
    lines = [
        f"# fockseries v{__version__} plot script for {preset.name}",
        "set datafile separator ','",
        "set key autotitle columnhead",
        "set key bottom right",
        "set xlabel '|alpha|'",
        "set ylabel 'Mandel Q'",
        "set grid",
        "set terminal pngcairo size 900,600",
        f"set output '{preset.name}.png'",
        "plot \\",
        ", \\\n".join(
            f"  '{curve.filename}' using 1:2 with lines lw {curve.width}"
            f" dashtype {_DASHTYPES[curve.style]} title '{curve.label}'"
            for curve in preset.curves),
    ]
    return "\n".join(lines) + "\n"
