"""Cell topology: device placement, channel gains and user pairing.

Placement, shadow fading, random pairing and the random baseline each draw
from an independent RNG stream derived from one master seed, so every part
of an experiment replays exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .model import Device, PairedTopology, ParamsError, SystemParams

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

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_count < math.inf:
            raise ParamsError("sample count must be positive and finite", "sample_count")
        if not 0.0 < self.upload_bits < math.inf:
            raise ParamsError("upload size must be positive and finite", "upload_bits")
        if not self.cycles_low > 0.0:
            raise ParamsError("cycles per sample must be positive", "cycles_low")
        if not self.cycles_low <= self.cycles_high < math.inf:
            raise ParamsError(
                "need cycles_low <= cycles_high, finite", "cycles_low", "cycles_high"
            )


@dataclass(frozen=True)
class TopologyConfig:
    user_count: int = 50
    channel_count: int = 25
    cell_radius_km: float = 0.5
    min_distance_km: float = 0.01
    shadow_sigma_db: float = 8.0
    rng_seed: int = 0
    # the gain at min_distance_km under a -10 sigma shadow draw, and at
    # cell_radius_km under a +10 sigma one, as __post_init__ checks them
    strongest_gain: float = field(init=False, repr=False, compare=False)
    weakest_gain: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.user_count != 2 * self.channel_count:
            raise ParamsError(
                "exactly two users per subchannel: user_count == 2 * channel_count",
                "user_count",
                "channel_count",
            )
        if not (0 < self.min_distance_km < self.cell_radius_km < math.inf):
            raise ParamsError(
                "need 0 < min_distance < cell_radius, finite", "min_distance_km", "cell_radius_km"
            )
        # numpy's normal draw refuses -0 as a negative scale
        if not (self.shadow_sigma_db < math.inf and math.copysign(1, self.shadow_sigma_db) > 0):
            raise ParamsError("shadow sigma must be finite and at least +0", "shadow_sigma_db")
        # the gains at both distances without shadowing, then the strongest
        # and weakest a +-10 sigma shadow draw can give
        with np.errstate(over="ignore", under="ignore"):
            path, extremes = channel_gain(
                np.array([self.min_distance_km, self.cell_radius_km]),
                np.array([[0.0, 0.0], [-10.0, 10.0]]) * self.shadow_sigma_db,
            )
        if not np.all((path > 0.0) & (path < math.inf)):
            raise ParamsError(
                "the path loss at min_distance_km or cell_radius_km takes the channel "
                "gain out of the float range",
                "min_distance_km",
                "cell_radius_km",
            )
        if not np.all((extremes > 0.0) & (extremes < math.inf)):
            raise ParamsError(
                "shadow sigma too large: a 10-sigma draw between min_distance_km and "
                "cell_radius_km takes the channel gain out of the float range",
                "shadow_sigma_db",
            )
        object.__setattr__(self, "strongest_gain", float(extremes[0]))
        object.__setattr__(self, "weakest_gain", float(extremes[1]))


def channel_gain(distance_km, shadow_db_sample):
    """Linear gain from log-distance path loss plus a caller-supplied
    shadow-fading sample in dB (callers own the randomness), for one device
    or elementwise over arrays."""
    d = np.asarray(distance_km, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    # math.log10 and float_power round like the scalar formula; np.log10 and
    # np.power can differ from it in the last bit
    log_d = np.fromiter(map(math.log10, d.ravel().tolist()), float, d.size).reshape(d.shape)
    loss_db = PATH_LOSS_OFFSET_DB + PATH_LOSS_SLOPE_DB * log_d
    return np.float_power(10.0, -(loss_db + shadow_db_sample) / 10.0)


def sample_topology(
    config: TopologyConfig, ranges: DeviceParamRanges = DeviceParamRanges()
) -> tuple[Device, np.ndarray]:
    """Place devices uniformly in distance over the cell annulus and draw
    their workload parameters, as one ``Device`` of arrays over ids 0..n-1,
    then one shadow draw per device (block fading over the studied round)
    for its gain. Deterministic for a fixed seed."""
    rng = np.random.default_rng([STREAM_PLACEMENT, config.rng_seed])
    n = config.user_count
    distances = rng.uniform(config.min_distance_km, config.cell_radius_km, n)
    cycles = rng.uniform(ranges.cycles_low, ranges.cycles_high, n)
    devices = Device(
        id=np.arange(n),
        distance_km=distances,
        cycles_per_std_sample=cycles,
        sample_count=np.full(n, ranges.sample_count),
        upload_bits=np.full(n, ranges.upload_bits),
    )
    rng = np.random.default_rng([STREAM_SHADOW, config.rng_seed])
    return devices, channel_gain(distances, rng.normal(0.0, config.shadow_sigma_db, n))


def pair_users(
    params: SystemParams,
    devices: Device,
    gains: np.ndarray,
    scheme: PairingScheme,
    rng_seed: int = 0,
) -> PairedTopology:
    """Group devices two per subchannel according to the chosen scheme.

    ``devices`` holds one array per field, as ``sample_topology`` returns
    it. Random draws a uniform perfect matching; nearest sorts by distance
    and pairs consecutive devices; nearest-farthest pairs the sorted list
    from both ends inward. Distance ties sort by device id. Pair members are
    then ordered by ascending gain, equal gains by device id. The device
    count must fill the ``params.channel_count`` subchannels exactly.
    """
    ids = np.asarray(devices.id)
    gains = np.asarray(gains, dtype=float)
    n = ids.size
    if n != 2 * params.channel_count:
        raise ValueError(f"{n} devices do not fill {params.channel_count} channels two each")
    if gains.shape != (n,):
        raise ValueError("need one gain per device")

    if scheme is PairingScheme.RANDOM:
        rng = np.random.default_rng([STREAM_PAIRING, rng_seed])
        order = rng.permutation(n)
    else:
        order = np.lexsort((ids, devices.distance_km))  # by distance, then id
        if scheme is PairingScheme.NEAREST_FARTHEST:
            order = np.stack((order, order[::-1]), axis=-1)[: n // 2].ravel()
    # members of each pair ascend by (gain, id)
    pairs = order.reshape(-1, 2)
    low, high = pairs.T
    swap = (gains[low] > gains[high]) | ((gains[low] == gains[high]) & (ids[low] > ids[high]))
    pairs[swap] = pairs[swap, ::-1]

    return PairedTopology(
        **{f.name: np.asarray(getattr(devices, f.name))[order] for f in fields(Device)},
        gains=gains[order],
    )
