"""Frequency / resolution / deadline subproblem at fixed transmit powers.

The accuracy term is linearized between the smallest and largest selectable
resolutions, after which one nonnegative multiplier per device prices that
device's deadline constraint. Both primal variables then have closed forms
in the multiplier:

    f(lam) = (lam / (2 a k))**(1/3)
    s(lam) = g * slope / (2 * load * (a k f**2 + lam / f))

with a = energy weight, k = switched capacitance, g = accuracy weight and
load = iterations * pixel_scale * cycles * samples. Eliminating (f, s)
leaves a concave separable dual in the multipliers, maximized under the
budget "sum of multipliers == time weight".

Stationarity makes each device's multiplier a non-increasing function of
one shared budget price, through D = price - t_up. Along D the device's
resolution only rises, so every change of branch is a fixed breakpoint in
D, computed once per solve by ``dual_coefficients``:

    free:                lam = (a_free / D)**0.6,  a_free = 2 * curvature / 3
    f at f_max:          lam = g slope / 2 * sqrt(f_max / (load D)) - a k f_max**3,
                         where s = sqrt(D f_max / load)
    s pinned at s1, s3:  lam = (a_s / D)**3,  a_s = 2/3 load s**2 (a k)**(1/3) mix
    s at s1, f at f_max: a flat dual term, lam = +inf

Each branch is a power law in D, so the total multiplier and its slope
come from one pass, which computes only the branches some device is on.
A safeguarded Newton iteration on log total against log price offset,
started where an equal split of the budget puts the median device, finds
the two adjacent floats where the float total crosses the budget, and one
primal recovery follows. On the paper's p_max sweep a search takes 5.5
evaluations (16 seeds, 8 at most). In 7% to 32% of them every device is
pinned at s1 or s3, so the free and f_max branches are skipped; in the
rest about 47 of 50 are.
Only an s1 pin can be flat. A device pinned at s3 has D > s3_above >=
load s3**2 / f_max, so its cube is 2 a k f**3 with f <= f_max, at most the
f_max multiplier but for rounding, which leaves it finite. The flat branch
is skipped whenever every kept s1 pin cubes to within the f_max multiplier;
a cube past the float range is +inf already. The resolution stays
continuous; ``round_resolutions`` rounds it.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import model
from .model import PairedTopology, SystemParams

# curvature constant from substituting f(lam) back into the objective
_CBRT_MIX = 2.0 ** (-2.0 / 3.0) + 2.0 ** (1.0 / 3.0)

# the price search gives up on a budget still unspent this close to max(t_up)
_MIN_OFFSET = 1e-280

_F64 = struct.Struct("<d")
_I64 = struct.Struct("<q")


def _ulps(x: float) -> int:
    """A non-negative float's place on the float grid: adjacent floats differ by 1."""
    return _I64.unpack(_F64.pack(x))[0]


def _from_ulps(k: int) -> float:
    return _F64.unpack(_I64.pack(k))[0]


@dataclass(frozen=True)
class DualCoefficients:
    """Per-device pieces of the dual objective -curvature * lam**(-2/3)
    + t_up * lam (up to a constant) and of the multiplier map along
    D = price - t_up (module docstring): ``lam_f_max`` is the
    multiplier of f_max, ``f_max_scale`` the g slope / 2 * sqrt(f_max / load)
    of its branch, ``s1_below`` and ``s3_above`` the resolution breakpoints
    and ``pin_s1``, ``pin_s3`` their a_s. The defaults give the plain dual."""

    curvature: np.ndarray
    t_up: np.ndarray
    lam_f_max: float = math.inf
    f_max_scale: np.ndarray | float = 0.0
    s1_below: np.ndarray | float = 0.0
    s3_above: np.ndarray | float = math.inf
    pin_s1: np.ndarray | float = 0.0
    pin_s3: np.ndarray | float = 0.0


@dataclass(frozen=True)
class Sp1Solution:
    """Clamped frequencies, continuous resolutions in [s1, s3], and the
    deadline implied by the fixed powers used for the solve, with the upload
    times at those powers and the computation time and energy at those
    resolutions."""

    multipliers: np.ndarray
    cpu_hz: np.ndarray
    resolution_cont: np.ndarray
    deadline_s: float
    t_trans_s: np.ndarray
    t_cmp_s: np.ndarray
    e_cmp_j: np.ndarray


def accuracy_slope(params: SystemParams) -> float:
    """Slope of the accuracy line through the lowest and highest resolutions."""
    return _slope_between(*params.resolution_set_px[::2])


@functools.lru_cache(maxsize=8)  # a sweep uses one resolution set
def _slope_between(s1: float, s3: float) -> float:
    return (model.accuracy_of(s3) - model.accuracy_of(s1)) / (s3 - s1)


def linear_accuracy(params: SystemParams, resolution: float | np.ndarray):
    """Accuracy linearized on [s1, s3]: exact at both endpoints."""
    s1 = params.resolution_set_px[0]
    return model.accuracy_of(s1) + accuracy_slope(params) * (resolution - s1)


def dual_coefficients(
    params: SystemParams, topology: PairedTopology, t_trans_s: np.ndarray
) -> DualCoefficients:
    if params.weight_energy <= 0.0:
        raise ValueError("the dual solve requires a positive energy weight")
    gamma_slope = params.weight_accuracy * accuracy_slope(params)
    ak = params.weight_energy * params.switched_capacitance
    s1, _, s3 = params.resolution_set_px
    loads = model.load(params, topology)
    h = loads * ak ** (1.0 / 3.0)
    curvature = gamma_slope**2 / (4.0 * h * _CBRT_MIX)
    h_mix = h * _CBRT_MIX
    free_scale = 6.0 * h_mix * math.sqrt(gamma_slope)
    # the unpinned resolution rises with D as the smaller of sqrt(D f_max
    # / load) and the free-frequency g slope / (2 h_mix) * (D / a_free)**0.4,
    # so it reaches s_bar where both have; with g = 0 the latter stays 0
    reach, pin = [], []
    with np.errstate(divide="ignore"):
        for s_bar in (s1, s3):
            mixed = 2.0 * h_mix * s_bar
            free = mixed**2.5 / free_scale
            reach.append(np.maximum(loads * s_bar * s_bar / params.f_max_hz, free))
            pin.append(mixed * s_bar / 3.0)
    return DualCoefficients(
        curvature=curvature,
        t_up=np.asarray(t_trans_s, dtype=float),
        lam_f_max=2.0 * ak * params.f_max_hz**3,
        f_max_scale=0.5 * gamma_slope * np.sqrt(params.f_max_hz / loads),
        s1_below=reach[0],
        s3_above=reach[1],
        pin_s1=pin[0],
        pin_s3=pin[1],
    )


def solve_dual(coeffs: DualCoefficients, beta: float) -> np.ndarray:
    """Maximize the dual subject to multipliers summing to ``beta``.

    Every multiplier is a non-increasing function of the budget price, so
    the split is where their total crosses the budget: ``_budget_crossing``
    finds the two adjacent floats of the price offset where the float total
    crosses it, and this returns the end whose total is closer to the
    budget. The result depends on the problem, not on a tolerance or on the
    iteration path. When the budget lands inside a flat dual term (a total
    of +inf at the lower end), the devices at +inf there take the rest of
    it. Those are devices at f_max and s1, whose primal recovery does not
    depend on the split: a larger multiplier keeps f at f_max and only
    lowers the resolution, which stays at s1 after clamping.
    """
    t_up = np.asarray(coeffs.t_up, dtype=float)
    if t_up.size == 0:
        raise ValueError("need at least one device")
    if beta < 0.0:
        raise ValueError("time weight must be non-negative")
    if beta == 0.0:
        return np.zeros(t_up.size)
    (_, total_lo, lam_lo), (_, total_hi, lam_hi) = _budget_crossing(coeffs, beta)
    if total_lo == math.inf:
        jumpers = lam_lo == math.inf
        lam_hi[jumpers] += (beta - total_hi) / int(np.count_nonzero(jumpers))
        return lam_hi
    return lam_lo if total_lo - beta < beta - total_hi else lam_hi


def _start_offset(coeffs: DualCoefficients, beta: float, gaps: np.ndarray) -> float:
    """Where an equal split of the budget puts the median device: each
    device's map inverted at lam = beta / n on the branch it takes there
    (free or at f_max, or pinned below ``s1_below`` or above ``s3_above``),
    as a price offset. 1.0 when that is no offset in [_MIN_OFFSET, inf)."""
    lam = np.float64(beta) / gaps.size
    if lam > coeffs.lam_f_max:
        d = (coeffs.f_max_scale / (lam + coeffs.lam_f_max / 2)) ** 2
    else:
        d = 2.0 * np.asarray(coeffs.curvature, dtype=float) / 3.0 / lam ** (5.0 / 3.0)
    root = lam ** (1.0 / 3.0)
    d = np.where(d < coeffs.s1_below, np.minimum(coeffs.pin_s1 / root, coeffs.s1_below), d)
    d = np.where(d > coeffs.s3_above, np.maximum(coeffs.pin_s3 / root, coeffs.s3_above), d)
    middle = gaps.size // 2
    offset = float(np.partition(d - gaps, middle)[middle])
    return offset if _MIN_OFFSET <= offset < math.inf else 1.0


# the start may divide by zero or overflow, and a pin cubed past the float range is flat
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _budget_crossing(coeffs: DualCoefficients, beta: float):
    """The adjacent floats lo < hi of the price offset above max(t_up) with
    total(lo) > beta >= total(hi), as (offset, total, multipliers) each.

    Every branch of the multiplier map is a power law in D, so one pass
    gives the total and its slope, and a Newton step on log total against
    log offset aims at the crossing from ``_start_offset``. A step is taken
    only where the slope is negative, so it points toward the crossing, and
    one that rounds to under an ulp moves one ulp. Every evaluation narrows
    the bracket; a step that leaves it bisects it on the float grid instead.
    The pair is unique, so it does not depend on the path. Raises when no
    offset down to ``_MIN_OFFSET`` makes the total reach the budget.
    """
    t_up = np.asarray(coeffs.t_up, dtype=float)
    gaps = t_up.max() - t_up
    scale = (2.0 * np.asarray(coeffs.curvature, dtype=float) / 3.0) ** 0.6

    def lam_of(offset: float):
        # d lam / d D is -power * (lam + shift) / D on each branch: free 0.6;
        # f at f_max 0.5, shifted by lam_f_max / 2; pinned 3; flat 0. Only
        # the branches some device is on are computed.
        d = offset + gaps
        low = d < coeffs.s1_below
        pinned = low | (d > coeffs.s3_above)
        pins = np.count_nonzero(pinned)
        if pins < d.size:
            lam = scale * d**-0.6
            rate = -0.6 * lam
            if not lam.max() <= coeffs.lam_f_max:
                at_f_max = lam > coeffs.lam_f_max
                top = coeffs.f_max_scale / np.sqrt(d)
                lam = np.where(at_f_max, top - coeffs.lam_f_max / 2, lam)
                rate = np.where(at_f_max, -0.5 * top, rate)
        if pins:
            # every device cubes a pin, but only a pinned one keeps it; an s1
            # pin cubed past lam_f_max is flat, an infinite multiplier, while
            # an s3 pin passes it only by rounding (module docstring)
            fix = np.where(low, coeffs.pin_s1, coeffs.pin_s3) / d
            fix = fix * fix * fix
            steep = -3.0 * fix
            if not fix.max(where=low, initial=0.0) <= coeffs.lam_f_max:
                flat = low & (fix > coeffs.lam_f_max)
                fix[flat] = math.inf
                steep[flat] = 0.0
            if pins == d.size:
                lam, rate = fix, steep
            else:
                lam = np.where(pinned, fix, lam)
                rate = np.where(pinned, steep, rate)
        return lam, float(lam.sum()), float((rate / d).sum())

    # Until both ends are known, a step goes at most a factor e**reach, and
    # reach doubles. `here`, `lo_at` and `hi_at` are the offset's and the
    # ends' places on the float grid.
    lo = hi = None
    offset = _start_offset(coeffs, beta, gaps)
    here, reach = _ulps(offset), math.log(4.0)
    while True:
        lam, total, slope = lam_of(offset)
        above = total > beta
        if above:
            lo, lo_at = (offset, total, lam), here
        else:
            hi, hi_at = (offset, total, lam), here
        bracketed = lo is not None and hi is not None
        if bracketed and hi_at - lo_at == 1:
            return lo, hi
        if lo is None and offset <= _MIN_OFFSET:
            raise RuntimeError("budget cannot be exhausted: no device absorbs multipliers")

        step = math.nan
        if 0.0 < total < math.inf and slope < 0.0:
            step = math.log(beta / total) * total / slope / offset
        if not abs(step) <= reach:
            step = math.nan if bracketed else (reach if above else -reach)
        if not bracketed:
            reach = min(2.0 * reach, 700.0)  # e**700 stays finite

        target = None
        if not math.isnan(step):
            target = _ulps(max(offset * math.exp(step), _MIN_OFFSET))
            # the step points toward the crossing; under an ulp, it moves one
            target = max(target, here + 1) if above else min(target, here - 1)
        if bracketed and (target is None or not lo_at < target < hi_at):
            target = (lo_at + hi_at) // 2
        here, offset = target, _from_ulps(target)


def recover_primal(multiplier, params: SystemParams, devices):
    """Closed-form frequency and resolution for the multipliers of one
    ``Device`` or of every device of a topology: the raw frequency, and the
    unclamped resolution at the frequency boxed to [f_min, f_max], which the
    device runs and the dual priced. The box also lifts a frequency that
    collapsed toward zero (multiplier ~ 0) before the formula divides by it."""
    ak = params.weight_energy * params.switched_capacitance
    if ak <= 0.0:
        raise ValueError("primal recovery requires a positive energy weight")
    f_raw = (multiplier / (2.0 * ak)) ** (1.0 / 3.0)
    f_eff = clamp_frequency(params, f_raw)
    denom = 2.0 * model.load(params, devices) * (ak * f_eff * f_eff + multiplier / f_eff)
    s_raw = params.weight_accuracy * accuracy_slope(params) / denom
    return f_raw, s_raw


def clamp_frequency(params: SystemParams, f_raw):
    return np.minimum(params.f_max_hz, np.maximum(f_raw, params.f_min_hz))


def clamp_resolution(params: SystemParams, s_raw):
    s1, _, s3 = params.resolution_set_px
    return np.minimum(s3, np.maximum(s_raw, s1))


def round_resolutions(params: SystemParams, resolution: np.ndarray) -> np.ndarray:
    """Map continuous resolutions in [s1, s3] onto the discrete set; both
    midpoints belong to the middle step."""
    s1, s2, s3 = params.resolution_set_px
    return np.where(
        resolution > 0.5 * (s2 + s3), s3, np.where(resolution >= 0.5 * (s1 + s2), s2, s1)
    )


def deadline_of(t_trans_s: np.ndarray, t_cmp_s: np.ndarray) -> float:
    """Tight deadline: the largest transmission-plus-computation time, and
    at least the float above the largest computation time. An upload below
    half an ulp of its computation time rounds away in the sum; the floor
    keeps every device's slack for it positive, and T an upper bound on the
    exact completion time."""
    floor = math.nextafter(float(t_cmp_s.max()), math.inf)
    return max(float((t_trans_s + t_cmp_s).max()), floor)


def solve_sp1(
    params: SystemParams, topology: PairedTopology, power_w: np.ndarray
) -> Sp1Solution:
    """Solve the frequency/resolution/deadline block given fixed powers:
    one budget-price root find, then one primal recovery, clamped to the
    boxes the dual already priced. The computation costs are taken once,
    for the deadline and for the solution."""
    rates = model.uplink_rates(params, topology, power_w)
    t_trans, _ = model.transmission_cost(topology, rates, power_w)
    coeffs = dual_coefficients(params, topology, t_trans)
    lam = solve_dual(coeffs, params.weight_time)
    f_raw, s_unc = recover_primal(lam, params, topology)
    cpu = clamp_frequency(params, f_raw)
    s_cont = clamp_resolution(params, s_unc)
    t_cmp, e_cmp = model.computation_cost(params, topology, s_cont, cpu)
    return Sp1Solution(
        multipliers=lam,
        cpu_hz=cpu,
        resolution_cont=s_cont,
        deadline_s=deadline_of(t_trans, t_cmp),
        t_trans_s=t_trans,
        t_cmp_s=t_cmp,
        e_cmp_j=e_cmp,
    )
