"""The benchmark's workloads.

Each workload turns the benchmark seed into a fixed list of cells (one
"round") and runs the whole round at a time, so every run covers whole
rounds and its mix of cells does not depend on how fast the machine is.
Cells run one after another in this process (closed loop, one caller).

- ``paper-sweep``: the paper's figure experiment through ``fedmar sweep``.
  Many small calls: per-call overhead, config parsing, CSV emission.
- ``large-cell``: 10,000-device cells solved by ``allocate`` and both
  baselines. Per-element throughput.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import ClassVar

from fedmar import allocator, cli, pairing
from fedmar.model import SystemParams
from fedmar.pairing import PairingScheme, TopologyConfig

from tracing import patched


@dataclass
class Cell:
    """One timed unit of work and what it returned. ``reports`` pairs every
    ``SolveReport`` with the parameters it was solved under."""

    key: str
    time_s: float = 0.0
    objective: float | None = None
    flagged: bool = False
    error: str | None = None
    reports: list = field(default_factory=list)


@dataclass
class Round:
    wall_s: float
    cells: list[Cell]
    csv_sha256: str | None = None


def draw_seeds(seed: int, count: int) -> list[int]:
    """Library seeds derived from the benchmark seed, distinct and stable."""
    return random.Random(seed).sample(range(1, 2**31), count)


def _set_cell(tracer, label: str) -> None:
    if tracer is not None:
        tracer.cell = label


# --- paper-sweep -----------------------------------------------------------

SWEEP_VALUES = (6, 7, 8, 9, 10, 11, 12)


def _sweep_config(seeds: list[int], sweep_values) -> str:
    return (
        "sweep = p_max_dbm\n"
        f"sweep_values = {' '.join(str(v) for v in sweep_values)}\n"
        f"seeds = {' '.join(str(s) for s in seeds)}\n"
        "algorithms = proposed random greedy\n"
        "pairing = best\n"
        "jobs = 1\n"
    )


@dataclass(frozen=True)
class SweepInputs:
    config: Path
    warm_up_config: Path
    csv: Path
    cells: int


@dataclass(frozen=True)
class PaperSweep:
    name: ClassVar[str] = "paper-sweep"
    seeds_per_round: int = 16

    def describe(self) -> dict:
        return {
            "users": 50,
            "cells_per_round": self.seeds_per_round * len(SWEEP_VALUES),
            "cell": "one bench.run_cell: best pairing (3 allocate) + random + greedy",
        }

    def make_inputs(self, seed: int, workdir: Path) -> SweepInputs:
        seeds = draw_seeds(seed, self.seeds_per_round)
        config = workdir / "paper-sweep.cfg"
        config.write_text(_sweep_config(seeds, SWEEP_VALUES))
        warm = workdir / "warm-up.cfg"
        warm.write_text(_sweep_config(seeds[:1], SWEEP_VALUES[-1:]))
        return SweepInputs(config, warm, workdir / "sweep.csv", len(seeds) * len(SWEEP_VALUES))

    def warm_up(self, inputs: SweepInputs) -> None:
        self._sweep(inputs.warm_up_config, inputs.csv, None, "warm-up/")

    def run_round(self, inputs: SweepInputs, tracer=None, label: str = "") -> Round:
        wall, cells, exit_code = self._sweep(inputs.config, inputs.csv, tracer, label)
        if exit_code not in (0, 2) or len(cells) != inputs.cells:
            cells.append(
                Cell("sweep", error=f"sweep exited with {exit_code} after {len(cells)} cells")
            )
        digest = hashlib.sha256(inputs.csv.read_bytes()).hexdigest()
        return Round(wall, cells, digest)

    def _sweep(self, config: Path, csv: Path, tracer, label: str):
        cells: list[Cell] = []

        def timed_cell(run_cell):
            def wrapper(spec, sweep_value, weights, seed):
                cell = Cell(f"p{sweep_value:g}/s{seed}")
                cells.append(cell)
                _set_cell(tracer, label + cell.key)
                start = perf_counter()
                try:
                    rows = run_cell(spec, sweep_value, weights, seed)
                except Exception:  # counted as a failed cell; the sweep goes on
                    cell.error = traceback.format_exc()
                    rows = []
                cell.time_s = perf_counter() - start
                for row in rows:
                    cell.flagged |= bool(row.flag)
                    if row.algorithm == "proposed":
                        cell.objective = row.objective
                return rows

            return wrapper

        def keep_report(solve):
            def wrapper(params, *args, **kwargs):
                report = solve(params, *args, **kwargs)
                cells[-1].reports.append((params, report))
                return report

            return wrapper

        hooks = {("fedmar.bench", "run_cell"): timed_cell}
        for fn in ("allocate", "random_baseline", "greedy_baseline"):
            hooks[("fedmar.allocator", fn)] = keep_report
        argv = ["sweep", "--config", str(config), "--out", str(csv), "--format", "csv"]
        with patched(hooks), contextlib.redirect_stdout(io.StringIO()):
            start = perf_counter()
            exit_code = cli.main(argv)
            wall = perf_counter() - start
        return wall, cells, exit_code


# --- large-cell -------------------------------------------------------------


@dataclass(frozen=True)
class SolveCell:
    key: str
    params: SystemParams
    topology: object
    seed: int


def _paired(users: int, seed: int) -> tuple[SystemParams, object]:
    params = SystemParams(channel_count=users // 2)
    topo_config = TopologyConfig(user_count=users, channel_count=users // 2, rng_seed=seed)
    devices, gains = pairing.sample_topology(topo_config)
    topology = pairing.pair_users(
        params, devices, gains, PairingScheme.NEAREST_USER, rng_seed=seed
    )
    return params, topology


@dataclass(frozen=True)
class LargeCell:
    name: ClassVar[str] = "large-cell"
    users: int = 10_000
    topologies: int = 2

    def describe(self) -> dict:
        return {
            "users": self.users,
            "cells_per_round": self.topologies,
            "cell": "allocate + random_baseline + greedy_baseline, nearest pairing",
        }

    def make_inputs(self, seed: int, workdir: Path) -> list[SolveCell]:
        cells = []
        for s in draw_seeds(seed, self.topologies):
            params, topology = _paired(self.users, s)
            cells.append(SolveCell(f"n{self.users}/s{s}", params, topology, s))
        return cells

    def warm_up(self, inputs: list[SolveCell]) -> None:
        self._solve(inputs[0], Cell("warm-up"))

    def run_round(self, inputs: list[SolveCell], tracer=None, label: str = "") -> Round:
        cells = []
        start = perf_counter()
        for item in inputs:
            cell = Cell(item.key)
            _set_cell(tracer, label + item.key)
            t0 = perf_counter()
            try:
                self._solve(item, cell)
            except Exception:  # counted as a failed cell; the round goes on
                cell.error = traceback.format_exc()
            cell.time_s = perf_counter() - t0
            cells.append(cell)
        return Round(perf_counter() - start, cells)

    def _solve(self, item: SolveCell, cell: Cell) -> None:
        reports = [
            allocator.allocate(item.params, item.topology),
            allocator.random_baseline(item.params, item.topology, item.seed),
            allocator.greedy_baseline(item.params, item.topology),
        ]
        cell.objective = reports[0].costs.objective
        cell.flagged = not all(r.feasible for r in reports)
        cell.reports = [(item.params, r) for r in reports]


WORKLOADS = {w.name: w for w in (PaperSweep(), LargeCell())}
