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
budget "sum of multipliers == time weight" by bisecting the budget price:
a water-filling step.

Recovered resolutions are clamped to [s1, s3], but a clamped device no
longer obeys the closed form the dual priced, so the budget split is wrong
whenever a clamp is active. ``solve_sp1`` therefore iterates to a
self-consistent clamp set: devices pinned at a resolution bound contribute
the fixed-resolution dual term (same derivation, exponent +2/3 instead of
-2/3 in the multiplier) and the shared budget is re-bisected until no
device changes clamp state. The resolution is rounded to the discrete set
only when a caller asks.
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


@dataclass(frozen=True)
class DualCoefficients:
    """Per-device pieces of the dual objective
    -curvature * lam**(-2/3) + t_up * lam + constant."""

    curvature: np.ndarray
    t_up: np.ndarray
    constant: np.ndarray
    slope: float


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
    gamma = params.weight_accuracy
    ak = params.weight_energy * params.switched_capacitance
    s1 = params.resolution_set_px[0]
    h = model.load(params, topology) * ak ** (1.0 / 3.0)
    curvature = (gamma * slope) ** 2 / (4.0 * h * _CBRT_MIX)
    constant = np.full_like(h, gamma * slope * s1 - gamma * model.accuracy_of(s1))
    return DualCoefficients(
        curvature=curvature,
        t_up=np.asarray(t_trans_s, dtype=float),
        constant=constant,
        slope=slope,
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


def _bisect_budget(lam_of, beta: float, *, rel_tol: float = 1e-10, max_iterations: int = 600) -> np.ndarray:
    """Find the price offset at which the multipliers exhaust the budget.

    ``lam_of`` maps a positive price offset to the multiplier vector and
    must be non-increasing with sum diverging as the offset -> 0. The
    bisection runs on the offset above max(t_up) directly; keeping it
    explicit avoids cancellation when the offset is many orders of
    magnitude below the transmission times.

    A device whose frequency and resolution are both pinned contributes a
    flat marginal value, i.e. a jump in the multiplier map. When the budget
    level lands inside such a jump the interval collapses onto it; the
    residual budget is then assigned to the jumping devices, whose primal
    recovery does not depend on the split.
    """
    lo = hi = 1.0
    for _ in range(max_iterations):
        if float(np.sum(lam_of(hi))) <= beta:
            break
        hi *= 4.0
    for _ in range(max_iterations):
        if float(np.sum(lam_of(lo))) >= beta or lo < 1e-280:
            break
        lo /= 4.0
    if float(np.sum(lam_of(lo))) < beta:
        raise RuntimeError("budget cannot be exhausted: no device absorbs multipliers")

    for _ in range(max_iterations):
        mid = math.sqrt(lo * hi)
        total = float(np.sum(lam_of(mid)))
        if abs(total - beta) <= rel_tol * beta:
            return lam_of(mid)
        if total > beta:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15 * hi:
            lam = lam_of(hi)
            deficit = beta - float(np.sum(lam))
            jump = lam_of(lo) - lam
            jumpers = jump > 0.5 * float(np.max(jump)) if float(np.max(jump)) > 0 else None
            if deficit > 0.0 and jumpers is not None and np.any(jumpers):
                lam = lam.copy()
                lam[jumpers] += deficit / int(np.count_nonzero(jumpers))
                return lam
            break
    raise RuntimeError("budget-price bisection did not reach tolerance")


def solve_dual(
    coeffs: DualCoefficients,
    beta: float,
    *,
    rel_tol: float = 1e-10,
    max_iterations: int = 600,
) -> np.ndarray:
    """Maximize the dual subject to multipliers summing to ``beta``.

    Stationarity gives lam(price) = ((2C/3) / (price - t_up))**(3/5),
    strictly decreasing in the budget price beyond max(t_up), so the price
    is found by bisection. With a zero accuracy weight the dual is linear
    and the whole budget sits on the devices with the largest t_up.
    """
    curvature = np.asarray(coeffs.curvature, dtype=float)
    t_up = np.asarray(coeffs.t_up, dtype=float)
    n = t_up.size
    if n == 0:
        raise ValueError("need at least one device")
    if beta < 0.0:
        raise ValueError("time weight must be non-negative")
    lam = np.zeros(n)
    if beta == 0.0:
        return lam
    if np.all(curvature == 0.0):
        top = float(np.max(t_up))
        ties = t_up >= top - 1e-12 * max(abs(top), 1.0)
        lam[ties] = beta / int(np.count_nonzero(ties))
        return lam

    gaps = np.max(t_up) - t_up
    scale = (2.0 * curvature / 3.0) ** 0.6

    def lam_of(offset: float) -> np.ndarray:
        return scale * (offset + gaps) ** -0.6

    return _bisect_budget(lam_of, beta, rel_tol=rel_tol, max_iterations=max_iterations)


def _solve_dual_clamped(
    params: SystemParams,
    coeffs: DualCoefficients,
    loads: np.ndarray,
    clamp_state: np.ndarray,
    beta: float,
) -> np.ndarray:
    """Budget split when some devices sit at a resolution bound.

    A device pinned at resolution ``s_bar`` contributes
    h~ * lam**(2/3) + t_up * lam to the dual, h~ = load * s_bar**2 *
    (a k)**(1/3) * (2**(-2/3) + 2**(1/3)), so its stationarity reads
    lam = ((2 h~ / 3) / (price - t_up))**3. Free devices keep the
    unconstrained branch. One shared bisection exhausts the budget.

    Whenever a branch formula asks for a frequency above f_max the true
    dual term switches to its f_max piece; the corresponding multiplier
    expressions join the interior ones continuously and are folded into
    the map below. (The f_min piece is ignored: the multiplier scale where
    it would matter, 2*a*k*f_min**3, is below every tolerance used here.)
    """
    t_up = np.asarray(coeffs.t_up, dtype=float)
    if beta == 0.0:
        return np.zeros(t_up.size)
    ak = params.weight_energy * params.switched_capacitance
    s1, _, s3 = params.resolution_set_px
    s_bar = np.where(clamp_state < 0, s1, s3)
    cycles_fixed = loads * s_bar * s_bar
    h_fixed = cycles_fixed * ak ** (1.0 / 3.0) * _CBRT_MIX
    clamped = clamp_state != 0
    a_free = 2.0 * np.asarray(coeffs.curvature, dtype=float) / 3.0
    a_fixed = 2.0 * h_fixed / 3.0
    gaps = np.max(t_up) - t_up

    f_hi = params.f_max_hz
    lam_hi = 2.0 * ak * f_hi**3  # multiplier at which the free frequency hits f_max
    gamma_slope = params.weight_accuracy * accuracy_slope(params)

    def lam_of(offset: float) -> np.ndarray:
        denom = offset + gaps
        lam_free = (a_free / denom) ** 0.6
        over = lam_free > lam_hi
        if np.any(over):
            lam_free = np.where(
                over,
                0.5 * gamma_slope * np.sqrt(f_hi / (loads * denom)) - ak * f_hi**3,
                lam_free,
            )
        lam_fix = (a_fixed / denom) ** 3.0
        # resolution and frequency both pinned gives a flat marginal value:
        # represent the jump explicitly; _bisect_budget resolves it
        lam_fix = np.where(lam_fix > lam_hi, 1e300, lam_fix)
        return np.where(clamped, lam_fix, lam_free)

    return _bisect_budget(lam_of, beta)


def recover_primal(multiplier, params: SystemParams, devices):
    """Closed-form frequency and resolution for the multipliers of one
    ``Device`` or of every device of a topology.

    Returns the raw frequency and the unclamped resolution. The resolution
    formula uses the frequency boxed to [f_min, f_max]: that is what the
    device will actually run, and what the clamp-aware dual terms priced.
    The box also lifts a frequency that collapsed toward zero (multiplier
    ~ 0) before the formula divides by it.
    """
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


# clamp-set iterations are cheap (one bisection each); the cap only guards
# against a flip-flopping boundary device
_MAX_CLAMP_PASSES = 60


def solve_sp1(
    params: SystemParams, topology: PairedTopology, power_w: np.ndarray
) -> Sp1Solution:
    """Solve the frequency/resolution/deadline block given fixed powers.

    Runs the dual solve, recovers and clamps the primal variables, then
    repeats with the clamped devices priced at their bound until the clamp
    set is stable. Among the visited clamp sets the recovery with the best
    block objective is returned, so extra passes can only help.
    """
    rates = model.uplink_rates(params, topology, power_w)
    t_trans, _ = model.transmission_cost(topology, rates, power_w)
    coeffs = dual_coefficients(params, topology, t_trans)
    beta = params.weight_time
    lam = solve_dual(coeffs, beta)

    loads = model.load(params, topology)
    s1, _, s3 = params.resolution_set_px
    alpha, gamma = params.weight_energy, params.weight_accuracy

    def block_value(cpu: np.ndarray, s_cont: np.ndarray) -> float:
        t_cmp, e_cmp = model.computation_cost(params, topology, s_cont, cpu)
        acc = linear_accuracy(params, s_cont)
        return float(
            alpha * np.sum(e_cmp)
            + beta * np.max(t_trans + t_cmp)
            - gamma * np.sum(acc)
        )

    best = None
    clamp_state = np.zeros(topology.n_devices, dtype=int)
    for _ in range(_MAX_CLAMP_PASSES):
        f_raw, s_unc = recover_primal(lam, params, topology)
        cpu = clamp_frequency(params, f_raw)
        s_cont = clamp_resolution(params, s_unc)
        value = block_value(cpu, s_cont)
        if best is None or value < best[0]:
            best = (value, lam, cpu, s_cont)
        desired = np.where(s_unc < s1, -1, np.where(s_unc > s3, 1, 0))
        if beta == 0.0 or np.array_equal(desired, clamp_state):
            break
        clamp_state = desired
        lam = _solve_dual_clamped(params, coeffs, loads, clamp_state, beta)

    _, lam, cpu, s_cont = best
    return Sp1Solution(
        multipliers=lam,
        cpu_hz=cpu,
        resolution_cont=s_cont,
        resolution_px=round_resolutions(params, s_cont),
        deadline_s=deadline_of(params, topology, t_trans, cpu, s_cont),
        t_trans_s=t_trans,
    )
