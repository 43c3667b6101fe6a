"""Joint power / CPU-frequency / resolution allocation for uplink-NOMA
federated MAR cells, with greedy and random baselines and a sweep CLI."""

from .model import (
    Allocation,
    CostBreakdown,
    Device,
    PairedTopology,
    SystemParams,
    UnreachableDeviceError,
)

__all__ = [
    "Allocation",
    "CostBreakdown",
    "Device",
    "PairedTopology",
    "SystemParams",
    "UnreachableDeviceError",
]

__version__ = "0.1.0"
