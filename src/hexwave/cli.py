"""Command-line front end.

``hexwave run`` executes one scenario from an INI config (flags override
individual settings) and writes a JSON report; ``hexwave compare``
sweeps preconditioner kinds and rank counts over one base scenario and
emits a CSV iteration/traffic table.

Exit codes: 0 converged, 2 non-converged, 3 solver breakdown,
4 config error (also a bad flag value or an unwritable output path),
5 mesh budget exceeded.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace

from .fabric import CONCAT_STRATEGIES
from .mesh import MeshBudgetError
from .runner import (PRECONDITIONERS, STORAGES, ConfigError, Scenario,
                     compare_preconditioners, run_scenario)
from .solver import SolverError

EXIT_OK = 0
EXIT_NOT_CONVERGED = 2
EXIT_BREAKDOWN = 3
EXIT_CONFIG = 4
EXIT_BUDGET = 5


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI scenario file (flags override it)")
    p.add_argument("--ranks", type=int, help="simulated rank count P")
    p.add_argument("--precond", choices=PRECONDITIONERS,
                   help="preconditioner (default dp)")
    p.add_argument("--concat", choices=list(CONCAT_STRATEGIES),
                   help="concatenation strategy that rebuilds the product "
                        "and each bicp apply (default spmd)")
    p.add_argument("--storage", choices=STORAGES,
                   help="matrix layout: 1 = lower-triangle rows, "
                        "2 = layout 1 plus the mirrored upper triangle "
                        "(default 2)")
    p.add_argument("--tol", type=float,
                   help="relative residual tolerance (default 1e-6)")
    p.add_argument("--max-iter", type=int, help="iteration cap (default 10n)")
    p.add_argument("--seed", type=int, help="recorded reproducibility seed")


def _scenario_from_args(args) -> Scenario:
    scenario = (Scenario.from_config(args.config) if args.config
                else Scenario())
    overrides = {"ranks": args.ranks, "preconditioner": args.precond,
                 "concat": args.concat, "storage": args.storage,
                 "tol": args.tol, "max_iter": args.max_iter,
                 "seed": args.seed}
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if overrides:
        scenario = replace(scenario, **overrides)
    return scenario


class _Parser(argparse.ArgumentParser):
    """Reports a bad command-line value as a ``ConfigError`` (exit 4)."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hexwave",
        description="Parallel FE workbench for time-harmonic scattering on "
                    "hexahedral box meshes (simulated rank fabric).")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario")
    _add_common_flags(run_p)
    run_p.add_argument("--export-matrix", metavar="PATH",
                       help="write the assembled system in Matrix Market "
                            "format (RHS side-car at PATH.rhs)")
    run_p.add_argument("--report", metavar="PATH",
                       help="write the JSON run report here (default stdout)")
    run_p.add_argument("--probe-grid", type=int, metavar="STRIDE", default=0,
                       help="sample |H| at every STRIDE-th node into the report")

    cmp_p = sub.add_parser("compare",
                           help="sweep preconditioners and rank counts")
    _add_common_flags(cmp_p)
    cmp_p.add_argument("--precond-list", default="dp,icp,bicp",
                       help="comma-separated preconditioners (default all)")
    cmp_p.add_argument("--ranks-list", default="1,2,4,8",
                       help="comma-separated rank counts (default 1,2,4,8)")
    cmp_p.add_argument("--report", metavar="PATH",
                       help="write the CSV table here (default stdout)")
    return parser


def _cmd_run(args) -> int:
    scenario = _scenario_from_args(args)
    result = run_scenario(scenario, probe_stride=args.probe_grid,
                          export_matrix=args.export_matrix)
    text = json.dumps(result.as_dict(), indent=2)
    if args.report:
        with open(args.report, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if result.report.breakdown:
        return EXIT_BREAKDOWN
    return EXIT_OK if result.report.converged else EXIT_NOT_CONVERGED


def _cmd_compare(args) -> int:
    scenario = _scenario_from_args(args)
    preconds = [p.strip() for p in args.precond_list.split(",") if p.strip()]
    ranks = [int(r) for r in args.ranks_list.split(",") if r.strip()]
    for p in preconds:
        if p not in PRECONDITIONERS:
            raise ConfigError(f"unknown preconditioner {p!r}")
    if not preconds or not ranks or min(ranks) < 1:
        raise ConfigError("need preconditioners and rank counts >= 1, got "
                          f"{args.precond_list!r} and {args.ranks_list!r}")
    rows = compare_preconditioners(scenario, preconds, ranks)
    fields = ["preconditioner", "ranks", "iterations", "converged",
              "messages", "bytes", "barriers", "error"]
    out = open(args.report, "w", newline="") if args.report else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.report:
            out.close()
    return EXIT_OK if all("error" not in r for r in rows) else EXIT_NOT_CONVERGED


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        return _cmd_compare(args)
    except MeshBudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ValueError as exc:          # ConfigError, other MeshErrors
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolverError as exc:
        print(f"solver breakdown: {exc}", file=sys.stderr)
        return EXIT_BREAKDOWN
    except OSError as exc:             # e.g. an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
