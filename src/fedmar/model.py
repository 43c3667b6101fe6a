"""Cost model of an uplink-NOMA cell running federated MAR training.

Every quantity is SI once it enters this module: watts, hertz, joules,
seconds, bits, linear channel gains. Radio-style units (dBm, dB) are
converted exactly once at ingestion, by ``dbm_to_watts`` and
``pairing.channel_gain``. All
functions are pure, so concurrent evaluation needs no locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

# Detector-accuracy fit against square training-frame resolution s (pixels):
# accuracy(s) = 1 - 1.578 * exp(-6.5e-3 * s).
ACCURACY_SCALE = 1.578
ACCURACY_DECAY = 6.5e-3


class UnreachableDeviceError(RuntimeError):
    """A device with pending upload bits has zero uplink rate."""


class ParamsError(ValueError):
    """A parameter check failed; ``fields`` names the fields it read."""

    def __init__(self, message: str, *fields: str) -> None:
        super().__init__(message)
        self.fields = fields


def dbm_to_watts(dbm: float) -> float:
    try:
        return 1e-3 * 10.0 ** (dbm / 10.0)
    except OverflowError:
        raise ValueError(f"{dbm:g} dBm is more watts than a float holds") from None


@dataclass(frozen=True)
class SystemParams:
    """Cell-wide constants, box bounds and objective weights.

    Weights satisfy ``weight_energy + weight_time == 1`` and
    ``weight_accuracy >= 0``. Defaults are the reference small-cell setup:
    20 MHz shared by 25 subchannels, -174 dBm/Hz noise, powers 0..12 dBm,
    CPU 1 MHz..2 GHz, resolutions {160, 320, 640} px with a 100 px
    standard sample.
    """

    total_bandwidth_hz: float = 20e6
    channel_count: int = 25
    noise_psd_w_per_hz: float = dbm_to_watts(-174.0)
    switched_capacitance: float = 1e-28
    local_iterations: float = 10.0
    std_resolution_px: float = 100.0
    resolution_set_px: tuple[float, float, float] = (160.0, 320.0, 640.0)
    weight_energy: float = 0.5
    weight_time: float = 0.5
    weight_accuracy: float = 1.0
    p_min_w: float = dbm_to_watts(0.0)
    p_max_w: float = dbm_to_watts(12.0)
    f_min_hz: float = 1e6
    f_max_hz: float = 2e9

    def __post_init__(self) -> None:
        if not 0.0 < self.total_bandwidth_hz < math.inf:
            raise ParamsError("bandwidth must be positive and finite", "total_bandwidth_hz")
        if self.channel_count <= 0:
            raise ParamsError("channel count must be positive", "channel_count")
        if not 0.0 < self.noise_psd_w_per_hz < math.inf:
            raise ParamsError("noise PSD must be positive and finite", "noise_psd_w_per_hz")
        if self.switched_capacitance <= 0:
            raise ParamsError("switched capacitance must be positive", "switched_capacitance")
        if self.local_iterations <= 0:
            raise ParamsError("local iterations must be positive", "local_iterations")
        if not self.std_resolution_px * self.std_resolution_px > 0:
            raise ParamsError(
                "standard resolution must be positive, its square too", "std_resolution_px"
            )
        if len(self.resolution_set_px) != 3:
            raise ParamsError("need exactly three resolutions", "resolution_set_px")
        s1, s2, s3 = self.resolution_set_px
        if not (0 < s1 < s2 < s3):
            raise ParamsError(
                "resolution set must be positive and strictly increasing", "resolution_set_px"
            )
        a, b, g = self.weight_energy, self.weight_time, self.weight_accuracy
        if not (0.0 <= a <= 1.0 and 0.0 <= b <= 1.0):
            raise ParamsError(
                "energy/time weights must lie in [0, 1]", "weight_energy", "weight_time"
            )
        if abs(a + b - 1.0) > 1e-9:
            raise ParamsError(
                "energy and time weights must sum to 1", "weight_energy", "weight_time"
            )
        if not 0.0 <= g < math.inf:
            raise ParamsError("accuracy weight must be non-negative and finite", "weight_accuracy")
        if not (0.0 <= self.p_min_w < self.p_max_w < math.inf):
            raise ParamsError(
                "power bounds must satisfy 0 <= p_min < p_max < inf", "p_min_w", "p_max_w"
            )
        if not (0.0 < self.f_min_hz < self.f_max_hz < math.inf):
            raise ParamsError(
                "frequency bounds must satisfy 0 < f_min < f_max < inf", "f_min_hz", "f_max_hz"
            )

    @property
    def std_sample_scale(self) -> float:
        """Pixel-count normalizer: scale * std_resolution**2 == 1."""
        return 1.0 / (self.std_resolution_px * self.std_resolution_px)

    @property
    def subchannel_bandwidth_hz(self) -> float:
        return self.total_bandwidth_hz / self.channel_count

    @property
    def subchannel_noise_w(self) -> float:
        return self.subchannel_bandwidth_hz * self.noise_psd_w_per_hz


@dataclass(frozen=True)
class Device:
    """MAR users: position plus local-training workload. The fields are
    scalars for one user, or equal-length arrays for a sampled population."""

    id: int
    distance_km: float
    cycles_per_std_sample: float
    sample_count: float
    upload_bits: float


@dataclass(frozen=True, eq=False)
class PairedTopology:
    """All subchannels of a cell, two users each, as read-only arrays named
    after the ``Device`` fields so one formula serves a single device and a
    whole topology alike.

    The arrays are channel-major: index 2k is channel k's low-gain member,
    2k+1 its high-gain member. The high-gain member is decoded first at the
    base station, so the low-gain member's signal acts as interference on
    it; the low-gain member is decoded after cancellation and sees a clean
    channel. Every channel has the bandwidth
    ``SystemParams.subchannel_bandwidth_hz``, so a topology holds only what
    pairing decides.
    """

    id: np.ndarray
    distance_km: np.ndarray
    cycles_per_std_sample: np.ndarray
    sample_count: np.ndarray
    upload_bits: np.ndarray
    gains: np.ndarray

    def __post_init__(self) -> None:
        for name in _TOPOLOGY_ARRAYS:
            array = np.array(getattr(self, name))
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        n = self.id.size
        if n == 0 or n % 2 != 0:
            raise ValueError("topology needs two devices per channel and at least one channel")
        if any(getattr(self, name).shape != (n,) for name in _TOPOLOGY_ARRAYS):
            raise ValueError("need one value per device in every device array")
        g = self.gains
        if not np.all(np.isfinite(g) & (g > 0)):
            raise ValueError("channel gains must be finite and positive (linear scale)")
        if np.any(g[0::2] > g[1::2]):
            raise ValueError("pair members must be ordered by ascending gain")

    @property
    def n_devices(self) -> int:
        return self.id.size

    @property
    def n_channels(self) -> int:
        return self.n_devices // 2

    def devices(self) -> list[Device]:
        """One scalar ``Device`` per member, channel-major."""
        columns = (getattr(self, f.name).tolist() for f in fields(Device))
        return [Device(*values) for values in zip(*columns)]

    # accessors of the former vector API; new code reads the arrays
    def gain_vector(self) -> np.ndarray:
        return self.gains

    def upload_bits_vector(self) -> np.ndarray:
        return self.upload_bits


_TOPOLOGY_ARRAYS = tuple(f.name for f in fields(PairedTopology))


@dataclass
class Allocation:
    """Per-device decision variables, channel-major like PairedTopology.

    ``resolution_px`` may hold intermediate continuous values while a solver
    is iterating; final allocations use members of the discrete set.
    """

    power_w: np.ndarray
    cpu_hz: np.ndarray
    resolution_px: np.ndarray


@dataclass
class CostBreakdown:
    """Per-device costs plus the aggregates entering the objective.

    ``weighted_energy_time`` is the accuracy-free part of the objective,
    weight_energy * E + weight_time * T.
    """

    rate_bps: np.ndarray
    t_trans_s: np.ndarray
    e_trans_j: np.ndarray
    t_cmp_s: np.ndarray
    e_cmp_j: np.ndarray
    accuracy: np.ndarray
    total_energy_j: float
    total_time_s: float
    total_accuracy: float
    weighted_energy_time: float
    objective: float


def _pair_rates(params: SystemParams, gain_low, gain_high, power_low, power_high, out=None):
    """Shannon rates (low, high) of NOMA pair members under successive
    decoding, each over the subchannel bandwidth. Each broadcasts over its
    own inputs only: the low-gain rate over gain_low and power_low, the
    high-gain rate over all four; given ``out``, the high-gain rate is built
    in it, every step in place.

    The low-gain member transmits interference-free; the high-gain member is
    decoded first and sees the low-gain member's received power as extra
    noise. Zero transmit power yields rate 0, which is a valid value.
    """
    bandwidth_hz, noise_w = params.subchannel_bandwidth_hz, params.subchannel_noise_w
    received_low = power_low * gain_low
    snr_high = np.divide(power_high * gain_high, noise_w + received_low, out=out)
    rate_high = np.log2(np.add(1.0, snr_high, out=out), out=out)
    return (
        bandwidth_hz * np.log2(1.0 + received_low / noise_w),
        np.multiply(bandwidth_hz, rate_high, out=out),
    )


def uplink_rates(
    params: SystemParams, topology: PairedTopology, power_w: np.ndarray
) -> np.ndarray:
    """Rates for every device, channel-major order."""
    p = np.asarray(power_w, dtype=float)
    g = topology.gains
    rates = np.empty(g.shape)
    rates[0::2], rates[1::2] = _pair_rates(params, g[0::2], g[1::2], p[0::2], p[1::2])
    return rates


def transmission_cost(devices, rate_bps, power_w):
    """Upload time and energy, t = bits/rate and e = p * t, of one
    ``Device`` or of every device of a ``PairedTopology``."""
    rate = np.asarray(rate_bps)
    if rate.min() <= 0.0:
        i = int(np.argmax(rate <= 0.0))
        raise UnreachableDeviceError(
            f"device {np.ravel(devices.id)[i]} has zero uplink rate but "
            f"{np.ravel(devices.upload_bits)[i]:g} bits to send"
        )
    t = devices.upload_bits / rate_bps
    return t, power_w * t


def load(params: SystemParams, devices):
    """Cycles per squared pixel of resolution: iterations * pixel scale *
    cycles per standard sample * samples, for a ``Device`` or a topology."""
    return (
        params.local_iterations
        * params.std_sample_scale
        * devices.cycles_per_std_sample
        * devices.sample_count
    )


def _f_floor(params: SystemParams) -> float:
    """f_min less the 1e-9 relative tolerance of every box check."""
    return params.f_min_hz * (1 - 1e-9)


def computation_cost(params: SystemParams, devices, resolution_px, cpu_hz):
    """Local-training time and energy at a given frame resolution, for one
    ``Device`` or every device of a topology.

    Cycles are load * s**2, scaling with the pixel count relative to the
    standard sample, so a frame at the standard resolution costs exactly
    kappa * iterations * cycles * samples * f**2 joules.
    """
    lowest = np.asarray(cpu_hz).min()
    if lowest < _f_floor(params):
        raise ValueError(
            f"cpu frequency {lowest:g} Hz lies {params.f_min_hz - lowest:g} Hz below "
            f"the minimum {params.f_min_hz:g} Hz"
        )
    cycles = load(params, devices) * resolution_px * resolution_px
    t = cycles / cpu_hz
    e = params.switched_capacitance * cycles * cpu_hz * cpu_hz
    return t, e


def accuracy_of(resolution_px):
    """Analytic detector accuracy for a square training resolution."""
    s = np.asarray(resolution_px)
    if s.min() <= 0:
        raise ValueError("resolution must be positive")
    return 1.0 - ACCURACY_SCALE * np.exp(-ACCURACY_DECAY * s)


def _check_bounds(params: SystemParams, allocation: Allocation, n: int) -> None:
    """Raises unless every value lies in its box; a NaN lies in none."""
    tol = 1e-9
    p, f, s = allocation.power_w, allocation.cpu_hz, allocation.resolution_px
    if len(p) != n or len(f) != n or len(s) != n:
        raise ValueError("allocation length does not match topology")
    if not (params.p_min_w * (1 - tol) - tol <= p.min() and p.max() <= params.p_max_w * (1 + tol)):
        raise ValueError("transmit power outside its bounds")
    if not (_f_floor(params) <= f.min() and f.max() <= params.f_max_hz * (1 + tol)):
        raise ValueError("cpu frequency outside its bounds")
    s1, _, s3 = params.resolution_set_px
    if not (s1 * (1 - tol) <= s.min() and s.max() <= s3 * (1 + tol)):
        raise ValueError("resolution outside [s1, s3]")


def evaluate(
    params: SystemParams, topology: PairedTopology, allocation: Allocation
) -> CostBreakdown:
    """Full cost breakdown of an allocation.

    Aggregates: total energy is the sum of per-device transmission plus
    computation energy, total time the max of per-device totals, total
    accuracy the sum of per-device accuracies, and the objective
    weight_energy * E + weight_time * T - weight_accuracy * A.
    """
    n = topology.n_devices
    _check_bounds(params, allocation, n)
    rates = uplink_rates(params, topology, allocation.power_w)
    t_trans, e_trans = transmission_cost(topology, rates, allocation.power_w)
    t_cmp, e_cmp = computation_cost(
        params, topology, allocation.resolution_px, allocation.cpu_hz
    )
    acc = accuracy_of(allocation.resolution_px)

    total_energy = float((e_trans + e_cmp).sum())
    total_time = float((t_trans + t_cmp).max())
    total_accuracy = float(acc.sum())
    weighted = params.weight_energy * total_energy + params.weight_time * total_time
    objective = weighted - params.weight_accuracy * total_accuracy
    return CostBreakdown(
        rate_bps=rates,
        t_trans_s=t_trans,
        e_trans_j=e_trans,
        t_cmp_s=t_cmp,
        e_cmp_j=e_cmp,
        accuracy=acc,
        total_energy_j=total_energy,
        total_time_s=total_time,
        total_accuracy=total_accuracy,
        weighted_energy_time=weighted,
        objective=objective,
    )
