"""Command line entry point.

Subcommands: solve, convergence, decay, coeff-export.  A preset (desk or
paper) provides the base configuration; a config file and the --out and
--threads flags override it.  Exit codes: 0 success, 1 configuration error,
2 solver failure.  A solve or convergence run whose row failed still writes
every row, the failed one as NaN errors with its reason on stderr, and
exits 2.
"""

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, PRESETS, load_config
from .harness import run_coeff_export, run_convergence, run_decay, run_solve
from .linalg import SolverFailure


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="lodfem",
        description="Multiscale FEM experiments on the unit square")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in [
            ("solve", "single multiscale solve with error report"),
            ("convergence", "sweep coarse sizes and patch orders"),
            ("decay", "corrector tail norms at increasing radii"),
            ("coeff-export", "write the coefficient raster"),
    ]:
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--config", help="key = value config file")
        cmd.add_argument("--out", help="output CSV/raster path")
        cmd.add_argument("--threads", type=int, help="corrector worker processes")
        cmd.add_argument("--preset", choices=sorted(PRESETS),
                         default="desk", help="base configuration")
    return parser


def _load(args):
    base = PRESETS[args.preset]
    cfg = load_config(args.config, base) if args.config else base
    overrides = {}
    if args.out:
        overrides["out"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def _print_report(report):
    print("coarse_n  level  err_l2        err_h1        err_energy    order_h1")
    for row in report.rows:
        print(f"{row.coarse_n:>8}  {row.level:>5}  {row.err_l2:<12.6g}  "
              f"{row.err_h1:<12.6g}  {row.err_energy:<12.6g}  {row.order_h1:.3g}")


def main(argv=None):
    args = _build_parser().parse_args(argv)
    report = None
    try:
        cfg = _load(args)
        if args.command == "solve":
            report = run_solve(cfg)
            _print_report(report)
        elif args.command == "convergence":
            report = run_convergence(cfg)
            _print_report(report)
        elif args.command == "decay":
            tails, _ = run_decay(cfg)
            print("radius        tail_h1")
            for radius, tail in tails:
                print(f"{radius:<12.6g}  {tail:.6g}")
        elif args.command == "coeff-export":
            coeff = run_coeff_export(cfg)
            print(f"coefficient written: bounds [{coeff.alpha:.6g}, {coeff.beta:.6g}]")
        if cfg.out:
            print(f"output written to {cfg.out}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 2
    return 2 if report is not None and report.failed() else 0


if __name__ == "__main__":
    sys.exit(main())
