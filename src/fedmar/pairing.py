"""Cell topology: device placement, channel gains and user pairing.

Placement, shadow fading, random pairing and the random baseline each draw
from an independent RNG stream derived from one master seed, so every part
of an experiment replays exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .model import ChannelPair, Device, PairedTopology, ParamsError, SystemParams

PATH_LOSS_OFFSET_DB = 128.1
PATH_LOSS_SLOPE_DB = 37.6

# Sub-stream tags mixed with the master seed (np.random.default_rng accepts
# sequences, so [tag, seed] yields independent reproducible streams).
STREAM_PLACEMENT = 0x01
STREAM_SHADOW = 0x02
STREAM_PAIRING = 0x03
STREAM_BASELINE = 0x04


class PairingScheme(Enum):
    RANDOM = "random"
    NEAREST_USER = "nearest"
    NEAREST_FARTHEST = "nearest-farthest"


@dataclass(frozen=True)
class DeviceParamRanges:
    """Sampling ranges / constants for per-device workload parameters."""

    cycles_low: float = 1e4
    cycles_high: float = 3e4
    sample_count: float = 500.0
    upload_bits: float = 28.1e3


@dataclass(frozen=True)
class TopologyConfig:
    user_count: int = 50
    channel_count: int = 25
    cell_radius_km: float = 0.5
    min_distance_km: float = 0.01
    shadow_sigma_db: float = 8.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.user_count != 2 * self.channel_count:
            raise ParamsError(
                "exactly two users per subchannel: user_count == 2 * channel_count",
                "user_count",
                "channel_count",
            )
        if not (0 < self.min_distance_km < self.cell_radius_km):
            raise ParamsError(
                "need 0 < min_distance < cell_radius", "min_distance_km", "cell_radius_km"
            )
        if self.shadow_sigma_db < 0:
            raise ParamsError("shadow sigma must be non-negative", "shadow_sigma_db")


def generate_topology(
    config: TopologyConfig, ranges: DeviceParamRanges = DeviceParamRanges()
) -> list[Device]:
    """Place devices uniformly in distance over the cell annulus and draw
    their workload parameters. Deterministic for a fixed seed."""
    rng = np.random.default_rng([STREAM_PLACEMENT, config.rng_seed])
    n = config.user_count
    distances = rng.uniform(config.min_distance_km, config.cell_radius_km, n)
    cycles = rng.uniform(ranges.cycles_low, ranges.cycles_high, n)
    return [
        Device(
            id=i,
            distance_km=float(distances[i]),
            cycles_per_std_sample=float(cycles[i]),
            sample_count=ranges.sample_count,
            upload_bits=ranges.upload_bits,
        )
        for i in range(n)
    ]


def channel_gain(distance_km: float, shadow_db_sample: float) -> float:
    """Linear gain from log-distance path loss plus a caller-supplied
    shadow-fading sample in dB (callers own the randomness)."""
    if distance_km <= 0:
        raise ValueError("distance must be positive")
    loss_db = PATH_LOSS_OFFSET_DB + PATH_LOSS_SLOPE_DB * math.log10(distance_km)
    return 10.0 ** (-(loss_db + shadow_db_sample) / 10.0)


def sample_gains(config: TopologyConfig, devices: list[Device]) -> np.ndarray:
    """One shadow draw per device (block fading over the studied round)."""
    rng = np.random.default_rng([STREAM_SHADOW, config.rng_seed])
    shadows = rng.normal(0.0, config.shadow_sigma_db, len(devices))
    return np.array(
        [channel_gain(d.distance_km, float(x)) for d, x in zip(devices, shadows)]
    )


def sample_topology(
    config: TopologyConfig, ranges: DeviceParamRanges = DeviceParamRanges()
) -> tuple[list[Device], np.ndarray]:
    devices = generate_topology(config, ranges)
    return devices, sample_gains(config, devices)


def _ordered_pair(
    params: SystemParams, index: int, a: tuple[Device, float], b: tuple[Device, float]
) -> ChannelPair:
    # ascending gain; equal gains ordered by device id to stay deterministic
    if (a[1], a[0].id) > (b[1], b[0].id):
        a, b = b, a
    return ChannelPair(
        channel_index=index,
        bandwidth_hz=params.subchannel_bandwidth_hz,
        members=(a, b),
    )


def pair_users(
    params: SystemParams,
    devices: list[Device],
    gains: np.ndarray,
    scheme: PairingScheme,
    rng_seed: int = 0,
) -> PairedTopology:
    """Group devices two per subchannel according to the chosen scheme.

    Random draws a uniform perfect matching; nearest sorts by distance and
    pairs consecutive devices; nearest-farthest pairs the sorted list from
    both ends inward. Pair members are then ordered by ascending gain.
    """
    n = len(devices)
    if n % 2 != 0:
        raise ValueError("cannot pair an odd number of devices")
    if len(gains) != n:
        raise ValueError("need one gain per device")

    tagged = list(zip(devices, (float(g) for g in gains)))
    if scheme is PairingScheme.RANDOM:
        rng = np.random.default_rng([STREAM_PAIRING, rng_seed])
        order = rng.permutation(n)
        chosen = [(tagged[order[2 * k]], tagged[order[2 * k + 1]]) for k in range(n // 2)]
    else:
        by_distance = sorted(tagged, key=lambda t: (t[0].distance_km, t[0].id))
        if scheme is PairingScheme.NEAREST_USER:
            chosen = [(by_distance[2 * k], by_distance[2 * k + 1]) for k in range(n // 2)]
        else:
            chosen = [(by_distance[k], by_distance[n - 1 - k]) for k in range(n // 2)]

    return PairedTopology(
        channels=tuple(
            _ordered_pair(params, k, a, b) for k, (a, b) in enumerate(chosen)
        )
    )


_HEADER = "# id distance_km cycles_per_std_sample sample_count upload_bits gain"


def topology_to_lines(topology: PairedTopology) -> list[str]:
    """One device per record, channel-major, so consecutive records form a
    pair. Uses repr-exact floats for lossless replay."""
    lines = [_HEADER]
    for ch in topology.channels:
        for dev, gain in ch.members:
            lines.append(
                f"{dev.id} {dev.distance_km!r} {dev.cycles_per_std_sample!r} "
                f"{dev.sample_count!r} {dev.upload_bits!r} {gain!r}"
            )
    return lines


def topology_from_lines(params: SystemParams, lines: list[str]) -> PairedTopology:
    records = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 6:
            raise ValueError(f"malformed topology record: {line!r}")
        dev = Device(
            id=int(parts[0]),
            distance_km=float(parts[1]),
            cycles_per_std_sample=float(parts[2]),
            sample_count=float(parts[3]),
            upload_bits=float(parts[4]),
        )
        records.append((dev, float(parts[5])))
    if len(records) % 2 != 0:
        raise ValueError("topology file must hold an even number of devices")
    if len(records) // 2 != params.channel_count:
        # every channel's bandwidth is the total divided by the channel count
        raise ValueError(
            f"topology file holds {len(records) // 2} channels "
            f"but the parameters define {params.channel_count}"
        )
    channels = tuple(
        ChannelPair(
            channel_index=k,
            bandwidth_hz=params.subchannel_bandwidth_hz,
            members=(records[2 * k], records[2 * k + 1]),
        )
        for k in range(len(records) // 2)
    )
    return PairedTopology(channels=channels)


def save_topology(path: str | Path, topology: PairedTopology) -> None:
    Path(path).write_text("\n".join(topology_to_lines(topology)) + "\n")


def load_topology(path: str | Path, params: SystemParams) -> PairedTopology:
    return topology_from_lines(params, Path(path).read_text().splitlines())
