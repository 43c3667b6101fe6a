"""Alternating allocation solve plus the random and greedy baselines.

The main solver alternates the two blocks: given powers, the frequency /
resolution / deadline block is solved in closed form through its dual;
given the resulting deadline, the power block is solved per channel. The
loop stops when the stacked decision vector moves less than a scale-free
tolerance. The resolution stays continuous while iterating and is rounded
to the discrete set once, at exit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import model, sp1, sp2
from .model import Allocation, CostBreakdown, Device, PairedTopology, SystemParams
from .pairing import STREAM_BASELINE, PairingScheme, pair_users

GRID_STEPS = 11  # baseline grids: bound + 0.1 * i * (range), i = 0..10


@dataclass(frozen=True)
class SolveConfig:
    outer_tolerance: float = 1e-4
    max_outer_iterations: int = 50
    schemes: tuple[PairingScheme, ...] = (
        PairingScheme.RANDOM,
        PairingScheme.NEAREST_USER,
        PairingScheme.NEAREST_FARTHEST,
    )
    rng_seed: int = 0
    initial: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def __post_init__(self) -> None:
        if self.outer_tolerance <= 0.0:
            raise ValueError("outer tolerance must be positive")
        if self.max_outer_iterations < 1:
            raise ValueError("need at least one outer iteration")
        if not self.schemes:
            raise ValueError("need at least one pairing scheme")


@dataclass
class SolveReport:
    """Final allocation and costs plus solve diagnostics.

    ``objective_trace`` holds the relaxed objective (continuous resolution,
    linearized accuracy) after each outer iteration; on the relaxation it
    is non-increasing. ``feasible`` is False when the last power solve
    could not meet some minimum rate within the power box.
    """

    allocation: Allocation
    costs: CostBreakdown
    topology: PairedTopology
    scheme: PairingScheme | None
    objective_trace: list[float]
    converged: bool
    feasible: bool
    wall_time_s: float
    scheme_objectives: dict[str, float] = field(default_factory=dict)


def relaxed_objective(
    params: SystemParams,
    topology: PairedTopology,
    power_w: np.ndarray,
    cpu_hz: np.ndarray,
    resolution: np.ndarray,
) -> float:
    """Objective of the continuous relaxation: true energies and times, but
    accuracy taken on the linearized fit the block solver optimizes."""
    rates = model.uplink_rates(params, topology, power_w)
    t_tr, e_tr = model.transmission_cost(topology, rates, power_w)
    t_c, e_c = model.computation_cost(params, topology, resolution, cpu_hz)
    acc = float(np.sum(sp1.linear_accuracy(params, np.asarray(resolution))))
    return (
        params.weight_energy * float(np.sum(e_tr + e_c))
        + params.weight_time * float(np.max(t_tr + t_c))
        - params.weight_accuracy * acc
    )


def _initial_point(
    params: SystemParams, n: int, config: SolveConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    if config.initial is not None:
        p0, f0, s0 = config.initial
        return (
            np.array(p0, dtype=float),
            np.array(f0, dtype=float),
            np.array(s0, dtype=float),
        )
    return (
        np.full(n, 0.5 * (params.p_min_w + params.p_max_w)),
        np.full(n, 0.5 * (params.f_min_hz + params.f_max_hz)),
        np.full(n, params.resolution_set_px[1]),
    )


def allocate(
    params: SystemParams, topology: PairedTopology, config: SolveConfig = SolveConfig()
) -> SolveReport:
    """Alternate the two block solves until the decision vector settles."""
    started = time.perf_counter()
    n = topology.n_devices
    power, cpu, s_cont = _initial_point(params, n, config)

    p_width = params.p_max_w - params.p_min_w
    f_width = params.f_max_hz - params.f_min_hz
    s_width = params.resolution_set_px[2] - params.resolution_set_px[0]

    trace: list[float] = []
    converged = False
    feasible = True
    for _ in range(config.max_outer_iterations):
        block1 = sp1.solve_sp1(params, topology, power)
        power_new, infeasible_flags, _ = sp2.solve_sp2(
            params,
            topology,
            block1.cpu_hz,
            block1.resolution_cont,
            block1.deadline_s,
        )
        delta = max(
            float(np.max(np.abs(power_new - power))) / p_width,
            float(np.max(np.abs(block1.cpu_hz - cpu))) / f_width,
            float(np.max(np.abs(block1.resolution_cont - s_cont))) / s_width,
        )
        power, cpu, s_cont = power_new, block1.cpu_hz, block1.resolution_cont
        trace.append(relaxed_objective(params, topology, power, cpu, s_cont))
        feasible = not bool(np.any(infeasible_flags))
        if delta <= config.outer_tolerance:
            converged = True
            break

    allocation = Allocation(
        power_w=power.copy(),
        cpu_hz=cpu.copy(),
        resolution_px=sp1.round_resolutions(params, s_cont),
    )
    costs = model.evaluate(params, topology, allocation)
    allocation.deadline_s = costs.total_time_s
    return SolveReport(
        allocation=allocation,
        costs=costs,
        topology=topology,
        scheme=None,
        objective_trace=trace,
        converged=converged,
        feasible=feasible,
        wall_time_s=time.perf_counter() - started,
    )


def allocate_best_pairing(
    params: SystemParams,
    devices: list[Device],
    gains: np.ndarray,
    config: SolveConfig = SolveConfig(),
) -> SolveReport:
    """Solve under every configured pairing scheme and keep the lowest
    objective; ties go to the scheme listed first."""
    reports: list[SolveReport] = []
    for scheme in config.schemes:
        topology = pair_users(params, devices, gains, scheme, rng_seed=config.rng_seed)
        report = allocate(params, topology, config)
        report.scheme = scheme
        reports.append(report)
    best = min(reports, key=lambda r: r.costs.objective)
    best.scheme_objectives = {
        r.scheme.value: r.costs.objective for r in reports if r.scheme is not None
    }
    return best


def random_baseline(
    params: SystemParams, topology: PairedTopology, seed: int
) -> SolveReport:
    """Uniform powers and frequencies, lowest resolution everywhere."""
    started = time.perf_counter()
    rng = np.random.default_rng([STREAM_BASELINE, seed])
    n = topology.n_devices
    allocation = Allocation(
        power_w=rng.uniform(params.p_min_w, params.p_max_w, n),
        cpu_hz=rng.uniform(params.f_min_hz, params.f_max_hz, n),
        resolution_px=np.full(n, params.resolution_set_px[0]),
    )
    costs = model.evaluate(params, topology, allocation)
    allocation.deadline_s = costs.total_time_s
    return SolveReport(
        allocation=allocation,
        costs=costs,
        topology=topology,
        scheme=None,
        objective_trace=[],
        converged=True,
        feasible=True,
        wall_time_s=time.perf_counter() - started,
    )


def _grid(low: float, high: float) -> np.ndarray:
    return low + 0.1 * np.arange(GRID_STEPS) * (high - low)


def greedy_baseline(params: SystemParams, topology: PairedTopology) -> SolveReport:
    """Exhaustive per-channel grid search at the lowest resolution.

    Every channel independently picks the (f, f, p, p) grid combination
    minimizing its own energy-plus-time cost, time taken as the max over
    the channel's two members. Aggregate energy sums over channels; the
    reported completion time is the max across channels.
    """
    started = time.perf_counter()
    p_grid = _grid(params.p_min_w, params.p_max_w)
    f_grid = _grid(params.f_min_hz, params.f_max_hz)
    s_low = params.resolution_set_px[0]
    alpha, beta = params.weight_energy, params.weight_time
    gains, bits = topology.gains, topology.upload_bits
    # grid axis first: (f, device)
    t_cmp, e_cmp = model.computation_cost(params, topology, s_low, f_grid[:, None])

    n = topology.n_devices
    power = np.empty(n)
    cpu = np.empty(n)
    for k, bandwidth in enumerate(topology.bandwidth_hz):
        a, b = 2 * k, 2 * k + 1
        # axes: (p_a, p_b)
        rates = model._pair_rates(
            params, bandwidth, gains[a], gains[b], p_grid[:, None], p_grid[None, :]
        )
        with np.errstate(divide="ignore"):
            t_tr = np.where(rates > 0.0, bits[a:b + 1, None, None] / rates, np.inf)
        t_tr_a, t_tr_b = t_tr[0, :, 0], t_tr[1]
        e_tr_a = p_grid * t_tr_a
        e_tr_b = p_grid[None, :] * t_tr_b

        # axes: (f_a, f_b, p_a, p_b)
        energy = (
            e_cmp[:, a, None, None, None]
            + e_cmp[None, :, b, None, None]
            + e_tr_a[None, None, :, None]
            + e_tr_b[None, None, :, :]
        )
        chan_time = np.maximum(
            t_cmp[:, a, None, None, None] + t_tr_a[None, None, :, None],
            t_cmp[None, :, b, None, None] + t_tr_b[None, None, :, :],
        )
        cost = alpha * energy + beta * chan_time
        fa, fb, pa, pb = np.unravel_index(int(np.argmin(cost)), cost.shape)
        cpu[a], cpu[b] = f_grid[fa], f_grid[fb]
        power[a], power[b] = p_grid[pa], p_grid[pb]

    allocation = Allocation(
        power_w=power, cpu_hz=cpu, resolution_px=np.full(n, s_low)
    )
    costs = model.evaluate(params, topology, allocation)
    allocation.deadline_s = costs.total_time_s
    return SolveReport(
        allocation=allocation,
        costs=costs,
        topology=topology,
        scheme=None,
        objective_trace=[],
        converged=True,
        feasible=True,
        wall_time_s=time.perf_counter() - started,
    )

