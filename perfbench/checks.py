"""Output checks applied to every ``SolveReport`` the benchmark sees."""

from __future__ import annotations

import math

import numpy as np

from fedmar import model

_REL = 1e-9
_COST_FIELDS = (
    "total_energy_j",
    "total_time_s",
    "total_accuracy",
    "weighted_energy_time",
    "objective",
)


def check_report(params: model.SystemParams, report) -> list[str]:
    """Problems with one solve: costs that ``model.evaluate`` does not
    reproduce, a power or frequency outside its box, or a resolution
    outside the discrete set. An empty list means the report passed."""
    a = report.allocation
    problems = []
    for name, values, low, high in (
        ("power", a.power_w, params.p_min_w, params.p_max_w),
        ("cpu frequency", a.cpu_hz, params.f_min_hz, params.f_max_hz),
    ):
        values = np.asarray(values, dtype=float)
        if not np.all(np.isfinite(values)):
            problems.append(f"{name} is not finite")
        elif np.any(values < low * (1 - _REL)) or np.any(values > high * (1 + _REL)):
            problems.append(f"{name} outside [{low:g}, {high:g}]")
    if not np.all(np.isin(a.resolution_px, params.resolution_set_px)):
        problems.append("resolution outside the discrete set")
    try:
        fresh = model.evaluate(params, report.topology, a)
    except (ValueError, model.UnreachableDeviceError) as exc:
        return problems + [f"evaluate rejected the allocation: {exc}"]
    for name in _COST_FIELDS:
        got, want = getattr(report.costs, name), getattr(fresh, name)
        if not math.isclose(got, want, rel_tol=_REL, abs_tol=1e-12):
            problems.append(f"{name} {got!r} but evaluate gives {want!r}")
    return problems
