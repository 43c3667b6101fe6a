"""Command-line entry points: solve, sweep, baselines.

Exit codes: 0 on success, 2 when any run carried an infeasibility flag,
1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import replace

from . import bench
from .bench import ExperimentSpec


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_spec(args) -> ExperimentSpec:
    spec = bench.load_config(args.config) if args.config else ExperimentSpec()
    if args.seed is not None:
        spec = replace(spec, seeds=(args.seed,))
    if args.pairing:
        spec = replace(spec, pairing=args.pairing)
    return spec


def _cmd_solve(args) -> int:
    spec = _load_spec(args)
    seed, value = spec.seeds[0], spec.sweep_values[0]
    params = bench.cell_params(spec, value, spec.weights[0])
    started = time.perf_counter()
    outcome, row = bench.proposed_row(spec, value, params, seed)
    wall_time = time.perf_counter() - started

    if row.flag == "unreachable":
        print(outcome, file=sys.stderr)  # the message names the device
        print(f"seed {seed}  pairing {row.pairing}  flag {row.flag}")
    else:
        c = outcome.costs
        print(
            f"seed {seed}  pairing {row.pairing}  "
            f"converged {outcome.converged}  feasible {outcome.feasible}"
        )
        if spec.pairing == "best":
            per = "  ".join(f"{k}={v:.6g}" for k, v in outcome.scheme_objectives.items())
            print(f"scheme objectives: {per}")
        print(
            f"objective {c.objective:.9g}  energy {c.total_energy_j:.9g} J  "
            f"time {c.total_time_s:.9g} s  accuracy {c.total_accuracy:.9g}"
        )
        print(f"resolutions {row.resolutions}")
    print(f"wall time {wall_time:.3f} s")
    if args.out:
        bench.emit([row], args.format, args.out)
    return 2 if row.flag else 0


def _cmd_baselines(args) -> int:
    spec = replace(_load_spec(args), algorithms=("random", "greedy"))
    seed = spec.seeds[0]
    rows = bench.run_cell(spec, spec.sweep_values[0], spec.weights[0], seed)
    for row in rows:
        print(
            f"{row.algorithm}: objective {row.objective:.9g}  energy {row.energy_j:.9g} J  "
            f"time {row.time_s:.9g} s  accuracy {row.accuracy:.9g}"
        )
    if args.out:
        bench.emit(rows, args.format, args.out)
    return 2 if any(row.flag for row in rows) else 0


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    rows = bench.run_experiment(spec, out_path=args.out, fmt=args.format)
    flagged = [r for r in rows if r.flag and r.seed != "mean"]
    print(f"{len(rows)} rows ({len(flagged)} flagged)" + (f" -> {args.out}" if args.out else ""))
    return 2 if flagged else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedmar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--seed", type=int, help="override the configured seeds")
        p.add_argument("--pairing", choices=bench.PAIRING_CHOICES, help="user-pairing scheme")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p_solve = sub.add_parser("solve", help="solve a single seeded instance")
    common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run the configured experiment sweep")
    common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_base = sub.add_parser("baselines", help="run random and greedy baselines")
    common(p_base)
    p_base.set_defaults(func=_cmd_baselines)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # a ConfigError is a ValueError, an unreadable config or unwritable --out
    # an OSError; a device with zero uplink rate flags its rows instead of raising
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
