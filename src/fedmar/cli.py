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


def _metrics(row: bench.ResultRow) -> str:
    return (
        f"objective {row.objective:.9g}  energy {row.energy_j:.9g} J  "
        f"time {row.time_s:.9g} s  accuracy {row.accuracy:.9g}"
    )


def _flagged(rows: list[bench.ResultRow]) -> list[bench.ResultRow]:
    # a summary row counts its seeds' flags, so only per-seed rows count here
    return [r for r in rows if r.flag and r.seed != "mean"]


def _cmd_solve(spec: ExperimentSpec, out: str | None) -> list[bench.ResultRow]:
    seed, value = spec.seeds[0], spec.sweep_values[0]
    params = bench.cell_params(spec, value, spec.weights[0])
    started = time.perf_counter()
    outcome, row = bench.proposed_row(spec, value, params, seed)
    wall_time = time.perf_counter() - started

    if row.flag == "unreachable":
        print(outcome, file=sys.stderr)  # the message names the device
        print(f"seed {seed}  pairing {row.pairing}  flag {row.flag}")
    else:
        print(
            f"seed {seed}  pairing {row.pairing}  "
            f"converged {outcome.converged}  feasible {outcome.feasible}"
        )
        if spec.pairing == "best":
            per = "  ".join(f"{k}={v:.6g}" for k, v in outcome.scheme_objectives.items())
            print(f"scheme objectives: {per}")
        print(_metrics(row))
        print(f"resolutions {row.resolutions}")
    print(f"wall time {wall_time:.3f} s")
    return [row]


def _cmd_baselines(spec: ExperimentSpec, out: str | None) -> list[bench.ResultRow]:
    spec = replace(spec, algorithms=("random", "greedy"))
    rows = bench.run_cell(spec, spec.sweep_values[0], spec.weights[0], spec.seeds[0])
    for row in rows:
        print(f"{row.algorithm}: {_metrics(row)}")
    return rows


def _cmd_sweep(spec: ExperimentSpec, out: str | None) -> list[bench.ResultRow]:
    rows = bench.run_experiment(spec)
    print(f"{len(rows)} rows ({len(_flagged(rows))} flagged)" + (f" -> {out}" if out else ""))
    return rows


# name -> (help, command); a command computes, prints and returns its rows,
# and `main` loads the spec, checks --out before it and writes the rows after
_COMMANDS = {
    "solve": ("solve a single seeded instance", _cmd_solve),
    "sweep": ("run the configured experiment sweep", _cmd_sweep),
    "baselines": ("run random and greedy baselines", _cmd_baselines),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedmar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, command) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--seed", type=int, help="override the configured seeds")
        p.add_argument("--pairing", choices=bench.PAIRING_CHOICES, help="user-pairing scheme")
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=list(bench.FORMATS), default="csv")
        p.set_defaults(func=command)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = bench.load_config(args.config) if args.config else ExperimentSpec()
        if args.seed is not None:
            spec = replace(spec, seeds=(args.seed,))
        if args.pairing:
            spec = replace(spec, pairing=args.pairing)
        bench.check_out(args.out, args.format)
        rows = args.func(spec, args.out)
        if args.out is not None:
            bench.emit(rows, args.format, args.out)
    # a ConfigError is a ValueError, an unreadable config or unwritable --out
    # an OSError; a device with zero uplink rate flags its rows instead of raising
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2 if _flagged(rows) else 0


if __name__ == "__main__":
    raise SystemExit(main())
