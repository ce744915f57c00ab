"""Command-line front end.

Subcommands: ``sweep`` (one observable over an |alpha| grid) and ``preset``
(a figure's curve CSVs, manifest and gnuplot script ``plot.gp``).  Exit
codes: 0 success, 2 bad arguments, 3 numeric failure (adaptive hard cap,
including a term ratio that overflows, or an entropy dimension past the
split cap), 4 I/O failure.
"""
from __future__ import annotations

import argparse
import math
import sys

from ._version import __version__
from .errors import FockSeriesError, HardCapExceeded
from .sweep import (
    OBSERVABLES,
    PRESETS,
    SweepRequest,
    parse_policy,
    run_preset,
    run_sweep,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fockseries",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fockseries {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="evaluate one observable over an |alpha| grid")
    sweep.add_argument("--observable", required=True, choices=OBSERVABLES)
    sweep.add_argument("--q", type=float, default=1.0,
                       help="deformation parameter in (0, 1]; 1 gives photon-added coherent states")
    sweep.add_argument("--k", type=int, default=0, help="number of added photons")
    sweep.add_argument("--alpha-min", type=float, default=None)
    sweep.add_argument("--alpha-max", type=float, default=None)
    sweep.add_argument("--steps", type=int, default=None)
    sweep.add_argument("--policy", default="adaptive",
                       help="adaptive[:<tol>] or fixed:<n_max>")
    sweep.add_argument("--theta", type=float, default=math.pi / 4.0,
                       help="beam-splitter angle (linear_entropy only)")
    sweep.add_argument("--out", required=True, help="output CSV path")

    preset = sub.add_parser("preset",
                            help="emit the CSVs, manifest and gnuplot script of a named figure")
    preset.add_argument("--name", required=True, choices=sorted(PRESETS))
    preset.add_argument("--out-dir", required=True)
    preset.add_argument("--steps", type=int, default=None)
    preset.add_argument("--alpha-min", type=float, default=None)
    preset.add_argument("--alpha-max", type=float, default=None)
    return parser


def _cmd_sweep(args: argparse.Namespace) -> int:
    req = SweepRequest(
        observable=args.observable,
        q=args.q,
        k=args.k,
        output_path=args.out,
        alpha_min=args.alpha_min,
        alpha_max=args.alpha_max,
        steps=args.steps,
        policy=parse_policy(args.policy),
        theta=args.theta,
    )
    path = run_sweep(req)
    print(path)
    return EXIT_OK


def _cmd_preset(args: argparse.Namespace) -> int:
    for path in run_preset(args.name, args.out_dir, steps=args.steps,
                           alpha_min=args.alpha_min, alpha_max=args.alpha_max):
        print(path)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"sweep": _cmd_sweep, "preset": _cmd_preset}[args.command]
    try:
        return handler(args)
    except HardCapExceeded as exc:
        print(f"fockseries: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FockSeriesError as exc:
        print(f"fockseries: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"fockseries: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
