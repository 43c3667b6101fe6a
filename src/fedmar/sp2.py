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

Stage one covers the interference-free (low-gain) member of every channel;
its powers set the noise floors of stage two.
"""

from __future__ import annotations

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
    bandwidth_hz: float
    upload_bits: np.ndarray
    noise_floor_w: np.ndarray
    min_rate_bps: np.ndarray
    p_min_w: float
    p_max_w: float
    weight_energy: float

    def __post_init__(self) -> None:
        if self.weight_energy <= 0.0:
            raise ValueError("the power solve requires a positive energy weight")
        if np.any(np.asarray(self.noise_floor_w) <= 0.0):
            raise ValueError("noise floors must be positive")
        r = np.asarray(self.min_rate_bps)
        if np.any(r <= 0.0) or not np.all(np.isfinite(r)):
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
    if np.any(slack <= 0.0):
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
    power = np.clip(need, problem.p_min_w, problem.p_max_w)
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

    Stage one (interference-free members) runs first; its powers define the
    noise floors seen by stage two. Returns the flattened power vector, a
    matching rate-infeasibility flag vector and both stage solutions.
    """
    devices = topology.devices()
    n = topology.n_devices
    t_cmp = np.array(
        [
            model.computation_cost(params, dev, float(resolution_px[i]), float(cpu_hz[i]))[0]
            for i, dev in enumerate(devices)
        ]
    )
    bits = topology.upload_bits_vector()
    rate_min = min_rate(bits, deadline_s, t_cmp)
    gains = topology.gain_vector()
    bandwidth = params.subchannel_bandwidth_hz
    noise_w = bandwidth * params.noise_psd_w_per_hz

    first = solve_ratio_stage(
        RatioProblem(
            stage=Stage.FIRST,
            bandwidth_hz=bandwidth,
            upload_bits=bits[0::2],
            noise_floor_w=noise_w / gains[0::2],
            min_rate_bps=rate_min[0::2],
            p_min_w=params.p_min_w,
            p_max_w=params.p_max_w,
            weight_energy=params.weight_energy,
        )
    )
    second = solve_ratio_stage(
        RatioProblem(
            stage=Stage.SECOND,
            bandwidth_hz=bandwidth,
            upload_bits=bits[1::2],
            noise_floor_w=(noise_w + first.power_w * gains[0::2]) / gains[1::2],
            min_rate_bps=rate_min[1::2],
            p_min_w=params.p_min_w,
            p_max_w=params.p_max_w,
            weight_energy=params.weight_energy,
        )
    )
    power = np.empty(n)
    power[0::2] = first.power_w
    power[1::2] = second.power_w
    flags = np.empty(n, dtype=bool)
    flags[0::2] = first.rate_infeasible
    flags[1::2] = second.rate_infeasible
    return power, flags, (first, second)
