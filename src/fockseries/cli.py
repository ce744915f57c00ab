"""Command-line front end.

Subcommands: ``sweep`` (one observable over an |alpha| grid) and ``preset``
(a figure's curve CSVs, manifest and gnuplot script ``plot.gp``).  Exit
codes: 0 success, 2 bad arguments, 3 numeric failure (adaptive hard cap,
including a term ratio that overflows, or, on the dense entropy path, a
dimension past the split cap), 4 I/O failure.
"""
from __future__ import annotations

import argparse
import re
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
NUMBER_OPTIONS = ("--alpha-min", "--alpha-max", "--steps", "--q", "--k", "--theta")


def build_parser() -> argparse.ArgumentParser:
    """Options left out are not set, so the library's defaults apply."""
    parser = argparse.ArgumentParser(prog="fockseries",
                                     description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"fockseries {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    grid = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    grid.add_argument("--alpha-min", type=float)
    grid.add_argument("--alpha-max", type=float)
    grid.add_argument("--steps", type=int)

    sweep = sub.add_parser("sweep", parents=[grid], argument_default=argparse.SUPPRESS,
                           help="evaluate one observable over an |alpha| grid")
    sweep.add_argument("--observable", required=True, choices=OBSERVABLES)
    sweep.add_argument("--q", type=float, default=1.0,
                       help="deformation parameter in (0, 1]; 1 gives photon-added coherent states")
    sweep.add_argument("--k", type=int, default=0, help="number of added photons")
    sweep.add_argument("--policy", help="adaptive[:<tol>] or fixed:<n_max>")
    sweep.add_argument("--theta", type=float, help="beam-splitter angle (linear_entropy only)")
    sweep.add_argument("--out", dest="output_path", metavar="OUT", required=True,
                       help="output CSV path")

    preset = sub.add_parser("preset", parents=[grid], argument_default=argparse.SUPPRESS,
                            help="emit the CSVs, manifest and gnuplot script of a named figure")
    preset.add_argument("--name", required=True, choices=sorted(PRESETS))
    preset.add_argument("--out-dir", required=True)
    return parser


def main(argv: list[str] | None = None) -> int:
    args: list[str] = []
    for arg in sys.argv[1:] if argv is None else argv:
        # argparse takes a lone -1e-05, -inf or -nan for an option; attach it
        if args and args[-1] in NUMBER_OPTIONS and re.match(r"-[\d.iInN]", arg):
            arg = args.pop() + "=" + arg
        args.append(arg)
    options = vars(build_parser().parse_args(args))
    command = options.pop("command")
    try:
        if command == "preset":
            paths = run_preset(**options)
        else:
            if "policy" in options:
                options["policy"] = parse_policy(options["policy"])
            paths = [run_sweep(SweepRequest(**options))]
        for path in paths:
            print(path)
    except HardCapExceeded as exc:
        print(f"fockseries: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FockSeriesError as exc:
        print(f"fockseries: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"fockseries: I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
