"""Command-line entry points: topology, solve, sweep, baselines.

Exit codes: 0 on success, 2 when any run carried an infeasibility flag,
1 on configuration or runtime errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from . import allocator, bench, pairing
from .bench import ConfigError, ExperimentSpec
from .model import UnreachableDeviceError
from .sp2 import DeadlineInfeasibleError

class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load_spec(args) -> ExperimentSpec:
    spec = bench.load_config(args.config) if args.config else ExperimentSpec()
    if getattr(args, "seed", None) is not None:
        spec = replace(spec, seeds=(args.seed,))
    if getattr(args, "pairing", None):
        spec = replace(spec, pairing=args.pairing)
    if getattr(args, "jobs", None):
        spec = replace(spec, jobs=args.jobs)
    return spec


def _single_topology(spec: ExperimentSpec, seed: int):
    config = replace(spec.topology, rng_seed=seed)
    devices, gains = pairing.sample_topology(config, spec.ranges)
    scheme = bench.baseline_scheme(spec.pairing)
    return pairing.pair_users(spec.params, devices, gains, scheme, rng_seed=seed)


def _cmd_topology(args) -> int:
    spec = _load_spec(args)
    seed = spec.seeds[0]
    topology = _single_topology(spec, seed)
    pairing.save_topology(args.out, topology)
    print(f"wrote {topology.n_devices} devices on {len(topology.channels)} channels to {args.out}")
    return 0


def _report_rows(spec: ExperimentSpec, seed: int, reports: dict[str, allocator.SolveReport]):
    params = bench.cell_params(spec, spec.sweep_values[0], spec.weights[0])
    rows = []
    for algo, report in reports.items():
        label = report.scheme.value if report.scheme else spec.pairing
        rows.append(
            bench._row_from_report(
                report,
                seed=seed,
                spec=spec,
                sweep_value=spec.sweep_values[0],
                params=params,
                algorithm=algo,
                pairing_label=label,
            )
        )
    return rows


def _cmd_solve(args) -> int:
    spec = _load_spec(args)
    seed = spec.seeds[0]
    params = bench.cell_params(spec, spec.sweep_values[0], spec.weights[0])
    config = replace(spec.solve, rng_seed=seed)
    topo_config = replace(spec.topology, rng_seed=seed)
    devices, gains = pairing.sample_topology(topo_config, spec.ranges)
    if spec.pairing == "best":
        report = allocator.allocate_best_pairing(params, devices, gains, config)
    else:
        scheme = pairing.PairingScheme(spec.pairing)
        topology = pairing.pair_users(params, devices, gains, scheme, rng_seed=seed)
        report = allocator.allocate(params, topology, config)
        report.scheme = scheme

    c = report.costs
    scheme = report.scheme.value if report.scheme else spec.pairing
    print(f"seed {seed}  pairing {scheme}  converged {report.converged}  feasible {report.feasible}")
    if report.scheme_objectives:
        per = "  ".join(f"{k}={v:.6g}" for k, v in report.scheme_objectives.items())
        print(f"scheme objectives: {per}")
    print(
        f"objective {c.objective:.9g}  energy {c.total_energy_j:.9g} J  "
        f"time {c.total_time_s:.9g} s  accuracy {c.total_accuracy:.9g}"
    )
    print(f"resolutions {bench._format_resolutions(report.allocation.resolution_px)}")
    print(f"wall time {report.wall_time_s:.3f} s")
    if args.out:
        rows = _report_rows(spec, seed, {"proposed": report})
        bench.emit(rows, args.format, args.out)
    return 0 if report.feasible else 2


def _cmd_baselines(args) -> int:
    spec = _load_spec(args)
    seed = spec.seeds[0]
    params = bench.cell_params(spec, spec.sweep_values[0], spec.weights[0])
    topology = _single_topology(spec, seed)
    reports = {
        "random": allocator.random_baseline(params, topology, seed),
        "greedy": allocator.greedy_baseline(params, topology),
    }
    for algo, report in reports.items():
        c = report.costs
        print(
            f"{algo}: objective {c.objective:.9g}  energy {c.total_energy_j:.9g} J  "
            f"time {c.total_time_s:.9g} s  accuracy {c.total_accuracy:.9g}"
        )
    if args.out:
        rows = _report_rows(spec, seed, reports)
        bench.emit(rows, args.format, args.out)
    return 0


def _cmd_sweep(args) -> int:
    spec = _load_spec(args)
    rows = bench.run_experiment(spec, out_path=args.out, fmt=args.format)
    flagged = [r for r in rows if r.flag and r.seed != "mean"]
    print(f"{len(rows)} rows ({len(flagged)} flagged)" + (f" -> {args.out}" if args.out else ""))
    return 2 if flagged else 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fedmar", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, pairing_default=None):
        p.add_argument("--config", help="flat key=value configuration file")
        p.add_argument("--seed", type=int, help="override the configured seeds")
        p.add_argument(
            "--pairing",
            choices=["random", "nearest", "nearest-farthest", "best"],
            default=pairing_default,
            help="user-pairing scheme",
        )
        p.add_argument("--out", help="output file path")
        p.add_argument("--format", choices=["csv", "json"], default="csv")

    p_topo = sub.add_parser("topology", help="generate and save a paired topology")
    common(p_topo)
    p_topo.set_defaults(func=_cmd_topology)

    p_solve = sub.add_parser("solve", help="solve a single seeded instance")
    common(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_sweep = sub.add_parser("sweep", help="run the configured experiment sweep")
    common(p_sweep)
    p_sweep.add_argument("--jobs", type=int, help="concurrent workers")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_base = sub.add_parser("baselines", help="run random and greedy baselines")
    common(p_base)
    p_base.set_defaults(func=_cmd_baselines)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "topology" and not args.out:
        print("error: topology requires --out", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (UnreachableDeviceError, DeadlineInfeasibleError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
