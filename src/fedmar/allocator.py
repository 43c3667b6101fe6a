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
from .model import (
    Allocation,
    CostBreakdown,
    Device,
    PairedTopology,
    ParamsError,
    SystemParams,
)
from .pairing import STREAM_BASELINE, PairingScheme, pair_users

GRID_STEPS = 11  # baseline grids: bound + 0.1 * i * (range), i = 0..10
GREEDY_CHUNK = 4  # channels per greedy kernel pass: two 0.47 MB cost buffers


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
            raise ParamsError("outer tolerance must be positive", "outer_tolerance")
        if self.max_outer_iterations < 1:
            raise ParamsError("need at least one outer iteration", "max_outer_iterations")
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


def _upload_time(bits, rate_bps):
    """bits / rate, with a finite 0 standing in where the rate is zero."""
    return np.divide(bits, rate_bps, out=np.zeros_like(rate_bps), where=rate_bps > 0.0)


def greedy_baseline(params: SystemParams, topology: PairedTopology) -> SolveReport:
    """Exhaustive per-channel grid search at the lowest resolution.

    Every channel independently picks the (f, f, p, p) grid combination
    minimizing its own energy-plus-time cost, time taken as the max over
    the channel's two members; a combination that leaves either member
    with zero rate (zero power) costs +inf. Ties go to the first
    combination in (f_a, f_b, p_a, p_b) order. Aggregate energy sums over
    channels; the reported completion time is the max across channels.

    The search runs GREEDY_CHUNK channels at a time over arrays shaped
    (channel, f_a, f_b, q) with the power pair flattened to
    q = p_a * GRID_STEPS + p_b, so the long contiguous axis comes last and
    the flat order is the (f_a, f_b, p_a, p_b) order.
    """
    started = time.perf_counter()
    p_grid = _grid(params.p_min_w, params.p_max_w)
    f_grid = _grid(params.f_min_hz, params.f_max_hz)
    s_low = params.resolution_set_px[0]
    alpha, beta = params.weight_energy, params.weight_time
    gains, bits = topology.gains, topology.upload_bits
    t_cmp, e_cmp = model.computation_cost(params, topology, s_low, f_grid[:, None])
    t_cmp, e_cmp = t_cmp.T, e_cmp.T  # axes: (device, f)

    steps = GRID_STEPS
    p_pair_b = np.tile(p_grid, steps)  # p_b along q
    shape = (GREEDY_CHUNK, steps, steps, steps * steps)
    cost, chan_time = np.empty(shape), np.empty(shape)
    n = topology.n_devices
    power = np.empty(n)
    cpu = np.empty(n)
    n_channels = len(topology.channels)
    for lo in range(0, n_channels, GREEDY_CHUNK):
        hi = min(lo + GREEDY_CHUNK, n_channels)
        c, a, b = hi - lo, slice(2 * lo, 2 * hi, 2), slice(2 * lo + 1, 2 * hi, 2)
        # axes: (channel, p_a, p_b)
        rates = model._pair_rates(
            params,
            topology.bandwidth_hz[lo:hi, None, None],
            gains[a, None, None],
            gains[b, None, None],
            p_grid[:, None],
            p_grid[None, :],
        )
        # axes: (channel, p_a) for the low-gain member, (channel, q) for both
        rate_a, rate_b = rates[0, :, :, 0], rates[1].reshape(c, -1)
        unreachable = np.repeat(rate_a <= 0.0, steps, axis=1) | (rate_b <= 0.0)
        t_tr_a = _upload_time(bits[a, None], rate_a)
        t_tr_b = _upload_time(bits[b, None], rate_b)
        e_tr_a = np.repeat(p_grid * t_tr_a, steps, axis=1)
        e_tr_b = p_pair_b * t_tr_b
        t_tr_a = np.repeat(t_tr_a, steps, axis=1)

        # axes: (channel, f_a, f_b, q); energy sums in the order
        # ((e_cmp_a + e_cmp_b) + e_tr_a) + e_tr_b
        out, span = cost[:c], chan_time[:c]
        e_cmp_ab = e_cmp[a, :, None] + e_cmp[b, None, :]
        np.add(e_cmp_ab[..., None], e_tr_a[:, None, None, :], out=out)
        out += e_tr_b[:, None, None, :]
        out *= alpha
        # beta * max(u, v) == max(beta * u, beta * v) exactly for beta >= 0
        time_a = beta * (t_cmp[a, :, None] + t_tr_a[:, None, :])
        time_b = beta * (t_cmp[b, :, None] + t_tr_b[:, None, :])
        np.maximum(time_a[:, :, None, :], time_b[:, None, :, :], out=span)
        out += span
        if unreachable.any():
            np.copyto(out, np.inf, where=unreachable[:, None, None, :])

        best = out.reshape(c, -1).argmin(axis=1)
        fa, fb, pa, pb = np.unravel_index(best, (steps, steps, steps, steps))
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

