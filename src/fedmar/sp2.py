"""Transmit-power subproblem: upload-energy minimization at a fixed deadline.

Each decoding stage minimizes, independently per subchannel, the upload
energy p * d / r(p) with r(p) = B * log2(1 + p / noise_floor), subject to
the minimum rate implied by the deadline and the power box. With
x = p / noise_floor the energy is (d * noise_floor / B) * x / log2(1 + x),
which is strictly increasing in x. The optimum is therefore the least
power that meets the minimum rate, boxed to the power bounds:

    p* = clip((2 ** (r_min / B) - 1) * noise_floor, p_min, p_max)

The parametric auxiliaries of the sum-of-ratios form follow from the
fixed-point identities rate_weight = energy_weight / r(p*) and
energy_bound = p* * d / r(p*).

Stage one covers the interference-free (low-gain) member of every channel.
Each stage's noise floor is (noise + received) / its member's gain, where
received is 0 in stage one and stage one's power times gain in stage two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import model
from .model import PairedTopology, SystemParams


class Stage(Enum):
    FIRST = "first"
    SECOND = "second"


class DeadlineInfeasibleError(ValueError):
    """The deadline leaves no time for transmission on some device."""


@dataclass(frozen=True)
class RatioProblem:
    """One stage's per-channel data. ``noise_floor_w`` is the received
    noise-plus-interference power divided by the member's own gain."""

    stage: Stage
    bandwidth_hz: np.ndarray | float
    upload_bits: np.ndarray
    noise_floor_w: np.ndarray
    min_rate_bps: np.ndarray
    p_min_w: float
    p_max_w: float
    weight_energy: float

    def __post_init__(self) -> None:
        if self.weight_energy <= 0.0:
            raise ValueError("the power solve requires a positive energy weight")
        if not np.asarray(self.noise_floor_w).min() > 0.0:
            raise ValueError("noise floors must be positive")
        r = np.asarray(self.min_rate_bps)
        if not (0.0 < r.min() and r.max() < math.inf):
            raise ValueError("minimum rates must be positive and finite")


@dataclass
class RatioSolution:
    power_w: np.ndarray
    rate_weight: np.ndarray
    energy_bound: np.ndarray
    # always all-True: the closed form is exact (kept for perfbench's sp2 counters)
    converged: np.ndarray
    rate_infeasible: np.ndarray
    # always all-zero: no iteration runs (kept for perfbench's sp2 counters)
    newton_steps: np.ndarray


def min_rate(upload_bits, deadline_s: float, t_cmp_s):
    """Rate needed to fit the upload into the time the deadline leaves
    after local computation. Bits and computation times may be scalars or
    per-device arrays."""
    slack = deadline_s - np.asarray(t_cmp_s)
    if slack.min() <= 0.0:
        raise DeadlineInfeasibleError(
            f"deadline {deadline_s:g} s does not cover computation time "
            f"{np.max(t_cmp_s):g} s"
        )
    return upload_bits / slack


def required_power(noise_floor_w, min_rate_bps, bandwidth_hz):
    """Power at which the channel rate equals the minimum rate exactly."""
    # float_power calls the C library's pow; np.power may dispatch to a SIMD
    # pow that differs in the last bit from one CPU to the next.
    return (np.float_power(2.0, min_rate_bps / bandwidth_hz) - 1.0) * noise_floor_w


def channel_rate(power_w, noise_floor_w, bandwidth_hz):
    return bandwidth_hz * np.log2(1.0 + power_w / noise_floor_w)


def solve_ratio_stage(problem: RatioProblem) -> RatioSolution:
    """Least power meeting each channel's minimum rate, boxed to the bounds.

    A channel whose minimum rate needs more than p_max gets p_max and is
    flagged rate-infeasible.
    """
    need = required_power(problem.noise_floor_w, problem.min_rate_bps, problem.bandwidth_hz)
    power = np.minimum(np.maximum(need, problem.p_min_w), problem.p_max_w)
    rate = channel_rate(power, problem.noise_floor_w, problem.bandwidth_hz)
    return RatioSolution(
        power_w=power,
        rate_weight=problem.weight_energy / rate,
        energy_bound=power * problem.upload_bits / rate,
        converged=np.ones(len(power), dtype=bool),
        rate_infeasible=need > problem.p_max_w,
        newton_steps=np.zeros(len(power), dtype=int),
    )


def solve_sp2(
    params: SystemParams,
    topology: PairedTopology,
    cpu_hz: np.ndarray,
    resolution_px: np.ndarray,
    deadline_s: float,
) -> tuple[np.ndarray, np.ndarray, tuple[RatioSolution, RatioSolution]]:
    """Solve both decoding stages and return all powers, channel-major.

    Stage one (interference-free members) runs first; its received powers
    enter the noise floors of stage two. Returns the flattened power vector, a
    matching rate-infeasibility flag vector and both stage solutions.
    """
    n = topology.n_devices
    t_cmp, _ = model.computation_cost(params, topology, resolution_px, cpu_hz)
    bits = topology.upload_bits
    rate_min = min_rate(bits, deadline_s, t_cmp)
    gains = topology.gains
    bandwidth, noise_w = params.subchannel_bandwidth_hz, params.subchannel_noise_w

    power = np.empty(n)
    flags = np.empty(n, dtype=bool)
    solutions = []
    for stage, members in ((Stage.FIRST, slice(0, None, 2)), (Stage.SECOND, slice(1, None, 2))):
        received = solutions[0].power_w * gains[0::2] if solutions else 0.0
        solution = solve_ratio_stage(
            RatioProblem(
                stage=stage,
                bandwidth_hz=bandwidth,
                upload_bits=bits[members],
                noise_floor_w=(noise_w + received) / gains[members],
                min_rate_bps=rate_min[members],
                p_min_w=params.p_min_w,
                p_max_w=params.p_max_w,
                weight_energy=params.weight_energy,
            )
        )
        power[members], flags[members] = solution.power_w, solution.rate_infeasible
        solutions.append(solution)
    return power, flags, tuple(solutions)
