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
    s pinned, f at f_max: a flat dual term, an infinite jump in lam

One bisection of the price splits the budget, and one primal recovery
follows. The resolution is rounded to the discrete set only when asked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import model
from .model import PairedTopology, SystemParams

# curvature constant from substituting f(lam) back into the objective
_CBRT_MIX = 2.0 ** (-2.0 / 3.0) + 2.0 ** (1.0 / 3.0)

# multipliers below this are floored before the cube root so f recovery
# cannot underflow to zero
LAMBDA_FLOOR = 1e-30

# stands in for the unbounded multiplier of a flat dual term
_JUMP = 1e300


@dataclass(frozen=True)
class DualCoefficients:
    """Per-device pieces of the dual objective
    -curvature * lam**(-2/3) + t_up * lam + constant, and of the multiplier
    map along D = price - t_up (module docstring): ``lam_f_max`` is the
    multiplier of f_max, ``f_max_scale`` the g slope / 2 * sqrt(f_max / load)
    of its branch, ``s1_below`` and ``s3_above`` the resolution breakpoints
    and ``pin_s1``, ``pin_s3`` their a_s. The defaults give the plain dual."""

    curvature: np.ndarray
    t_up: np.ndarray
    constant: np.ndarray
    slope: float
    lam_f_max: float = math.inf
    f_max_scale: np.ndarray | float = 0.0
    s1_below: np.ndarray | float = 0.0
    s3_above: np.ndarray | float = math.inf
    pin_s1: np.ndarray | float = 0.0
    pin_s3: np.ndarray | float = 0.0


@dataclass(frozen=True)
class Sp1Solution:
    """Clamped frequencies, continuous and rounded resolutions, and the
    deadline implied by the fixed powers used for the solve."""

    multipliers: np.ndarray
    cpu_hz: np.ndarray
    resolution_cont: np.ndarray
    resolution_px: np.ndarray
    deadline_s: float
    t_trans_s: np.ndarray


def accuracy_slope(params: SystemParams) -> float:
    """Slope of the accuracy line through the lowest and highest resolutions."""
    s1, _, s3 = params.resolution_set_px
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
    slope = accuracy_slope(params)
    gamma_slope = params.weight_accuracy * slope
    ak = params.weight_energy * params.switched_capacitance
    s1, _, s3 = params.resolution_set_px
    loads = model.load(params, topology)
    h = loads * ak ** (1.0 / 3.0)
    curvature = gamma_slope**2 / (4.0 * h * _CBRT_MIX)
    constant = np.full_like(h, gamma_slope * s1 - params.weight_accuracy * model.accuracy_of(s1))
    h_mix = h * _CBRT_MIX

    def reach(s_bar: float) -> np.ndarray:
        # the unpinned resolution rises with D as the smaller of sqrt(D f_max
        # / load) and the free-frequency g slope / (2 h_mix) * (D / a_free)**0.4,
        # so it reaches s_bar where both have; with g = 0 the latter stays 0
        with np.errstate(divide="ignore"):
            free = (2.0 * h_mix * s_bar) ** 2.5 / (6.0 * h_mix * math.sqrt(gamma_slope))
        return np.maximum(loads * s_bar * s_bar / params.f_max_hz, free)

    return DualCoefficients(
        curvature=curvature,
        t_up=np.asarray(t_trans_s, dtype=float),
        constant=constant,
        slope=slope,
        lam_f_max=2.0 * ak * params.f_max_hz**3,
        f_max_scale=0.5 * gamma_slope * np.sqrt(params.f_max_hz / loads),
        s1_below=reach(s1),
        s3_above=reach(s3),
        pin_s1=2.0 * h_mix * s1 * s1 / 3.0,
        pin_s3=2.0 * h_mix * s3 * s3 / 3.0,
    )


def dual_objective(coeffs: DualCoefficients, multipliers: np.ndarray) -> float:
    lam = np.asarray(multipliers, dtype=float)
    terms = np.where(
        lam > 0.0,
        -coeffs.curvature * lam ** (-2.0 / 3.0),
        np.where(coeffs.curvature > 0.0, -np.inf, 0.0),
    )
    return float(np.sum(terms + coeffs.t_up * lam + coeffs.constant))


def dual_gradient(coeffs: DualCoefficients, multipliers: np.ndarray) -> np.ndarray:
    lam = np.asarray(multipliers, dtype=float)
    return (2.0 * coeffs.curvature / 3.0) * lam ** (-5.0 / 3.0) + coeffs.t_up


def solve_dual(coeffs: DualCoefficients, beta: float) -> np.ndarray:
    """Maximize the dual subject to multipliers summing to ``beta``.

    Every multiplier is a non-increasing function of the budget price, so
    one bisection finds the split. It bisects the price's offset above
    max(t_up), which keeps its precision when far below the transmission
    times, until the bracket is an ulp or two wide, and returns the end
    whose total is closer to the budget: the result depends on the problem,
    not on a tolerance. When the budget lands inside an infinite jump (a
    flat dual term), the jumping devices take the rest of it; their primal
    recovery does not depend on the split. Where the map is zero everywhere
    (zero accuracy weight, no breakpoints) the dual is linear and the budget
    goes to the devices with the largest t_up.
    """
    t_up = np.asarray(coeffs.t_up, dtype=float)
    if t_up.size == 0:
        raise ValueError("need at least one device")
    if beta < 0.0:
        raise ValueError("time weight must be non-negative")
    lam = np.zeros(t_up.size)
    if beta == 0.0:
        return lam
    pinned_somewhere = np.any(coeffs.s1_below > 0.0) or np.any(coeffs.s3_above < math.inf)
    if not pinned_somewhere and np.all(coeffs.curvature == 0.0):
        top = float(np.max(t_up))
        ties = t_up >= top - 1e-12 * max(abs(top), 1.0)
        lam[ties] = beta / int(np.count_nonzero(ties))
        return lam

    gaps = np.max(t_up) - t_up
    scale = (2.0 * np.asarray(coeffs.curvature, dtype=float) / 3.0) ** 0.6

    def lam_of(offset: float) -> np.ndarray:
        d = offset + gaps
        lam = scale * d**-0.6
        at_f_max = lam > coeffs.lam_f_max
        if at_f_max.any():
            lam = np.where(at_f_max, coeffs.f_max_scale / np.sqrt(d) - coeffs.lam_f_max / 2, lam)
        low = d < coeffs.s1_below
        pinned = low | (d > coeffs.s3_above)
        if pinned.any():
            fix = np.where(low, coeffs.pin_s1, coeffs.pin_s3) / d
            fix = fix * fix * fix
            fix[fix > coeffs.lam_f_max] = _JUMP
            lam = np.where(pinned, fix, lam)
        return lam

    def total(offset: float) -> float:
        return float(np.sum(lam_of(offset)))

    # bracket the offset so that total(lo) >= beta >= total(hi)
    lo = hi = 1.0
    total_lo = total_hi = total(1.0)
    while total_hi > beta:
        lo, total_lo = hi, total_hi
        hi *= 4.0
        total_hi = total(hi)
    while total_lo < beta:
        if lo < 1e-280:
            raise RuntimeError("budget cannot be exhausted: no device absorbs multipliers")
        hi, total_hi = lo, total_lo
        lo /= 4.0
        total_lo = total(lo)

    while hi - lo > 4e-16 * hi:
        mid = math.sqrt(lo * hi)
        if not lo < mid < hi:
            break
        value = total(mid)
        if value > beta:
            lo, total_lo = mid, value
        else:
            hi, total_hi = mid, value

    if total_lo >= _JUMP:
        lam = lam_of(hi)
        jumpers = lam_of(lo) >= _JUMP
        lam[jumpers] += (beta - total_hi) / int(np.count_nonzero(jumpers))
        return lam
    return lam_of(lo if total_lo - beta < beta - total_hi else hi)


def recover_primal(multiplier, params: SystemParams, devices):
    """Closed-form frequency and resolution for the multipliers of one
    ``Device`` or of every device of a topology: the raw frequency, and the
    unclamped resolution at the frequency boxed to [f_min, f_max], which the
    device runs and the dual priced. The box also lifts a frequency that
    collapsed toward zero (multiplier ~ 0) before the formula divides by it."""
    ak = params.weight_energy * params.switched_capacitance
    if ak <= 0.0:
        raise ValueError("primal recovery requires a positive energy weight")
    f_raw = (np.maximum(multiplier, LAMBDA_FLOOR) / (2.0 * ak)) ** (1.0 / 3.0)
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


def deadline_of(
    params: SystemParams,
    topology: PairedTopology,
    t_trans_s: np.ndarray,
    cpu_hz: np.ndarray,
    resolution: np.ndarray,
) -> float:
    """Tight deadline: the largest transmission-plus-computation time."""
    t_cmp, _ = model.computation_cost(params, topology, resolution, cpu_hz)
    return float(np.max(t_trans_s + t_cmp))


def solve_sp1(
    params: SystemParams, topology: PairedTopology, power_w: np.ndarray
) -> Sp1Solution:
    """Solve the frequency/resolution/deadline block given fixed powers:
    one budget-price root find, then one primal recovery, clamped to the
    boxes the dual already priced."""
    rates = model.uplink_rates(params, topology, power_w)
    t_trans, _ = model.transmission_cost(topology, rates, power_w)
    coeffs = dual_coefficients(params, topology, t_trans)
    lam = solve_dual(coeffs, params.weight_time)
    f_raw, s_unc = recover_primal(lam, params, topology)
    cpu = clamp_frequency(params, f_raw)
    s_cont = clamp_resolution(params, s_unc)
    return Sp1Solution(
        multipliers=lam,
        cpu_hz=cpu,
        resolution_cont=s_cont,
        resolution_px=round_resolutions(params, s_cont),
        deadline_s=deadline_of(params, topology, t_trans, cpu, s_cont),
        t_trans_s=t_trans,
    )
