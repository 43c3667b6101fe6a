"""Alternating allocation solve plus the random and greedy baselines.

The main solver alternates the two blocks: given powers, the frequency /
resolution / deadline block is solved in closed form through its dual;
given the resulting deadline, the power block is solved per channel. The
frequency block reads nothing but the powers, so the powers are the loop's
only state: it stops when the power block hands back powers within a
tolerance of the power box of those the frequency block was just solved
at, since another frequency solve would then reproduce its own output.
The resolution stays continuous while iterating and is rounded to the
discrete set once, at exit.

A pass costs each term once where it can. The frequency block takes the
upload rates at its powers and the computation time and energy of its
solution; its deadline and the pass's relaxed objective both read them.
The power block, which takes frequencies and resolutions, costs the
computation time for itself, and the relaxed objective takes the rates at
the new powers.

With a positive time weight and no device held at f_min, the first pass
already stops: every device finishes at the deadline, so the power block
needs exactly the powers the frequency block was solved at. The frequency
block's dual does not price the f_min box, though; a device lifted to
f_min finishes early, the power block lowers its power, and the loop takes
more passes, over which the relaxed objective can rise.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from . import model, sp1, sp2
from .model import (
    Allocation,
    CostBreakdown,
    PairedTopology,
    SystemParams,
)
# allocator no longer pairs, but perfbench's tracing test still checks that
# wrapping pair_users reaches a binding here
from .pairing import STREAM_BASELINE, PairingScheme, pair_users  # noqa: F401

GRID_STEPS = 11  # baseline grids: bound + 0.1 * i * (range), i = 0..10
# greedy_baseline searches GREEDY_CHUNK channels at a time; at its peak a
# chunk holds five (channel, q) float arrays, about 1.2 MB at 256 channels.
# GREEDY_BLOCK power pairs or frequency points are evaluated at a time over
# the whole other axis, in three 0.37 MB cost buffers allocated once per call
# (the power-pair passes use two).
GREEDY_CHUNK = 256
GREEDY_BLOCK = 384
# the alternation stops once no power moves by more than OUTER_TOLERANCE of
# the power box, and after MAX_OUTER_ITERATIONS passes in any case
OUTER_TOLERANCE = 1e-4
MAX_OUTER_ITERATIONS = 50


@dataclass
class SolveReport:
    """Final allocation and costs plus solve diagnostics.

    ``objective_trace`` holds the relaxed objective (continuous resolution,
    linearized accuracy) after each outer iteration; it is non-increasing
    unless some device is held at f_min. ``converged`` is True when the
    last power solve moved no power by more than ``OUTER_TOLERANCE`` of the
    power box; with a positive time weight and no device at f_min the
    first one already does, as every deadline binds. ``feasible`` is False
    when the last power solve could not meet some minimum rate within the
    power box.
    """

    allocation: Allocation
    costs: CostBreakdown
    topology: PairedTopology
    scheme: PairingScheme | None
    objective_trace: list[float]
    converged: bool
    feasible: bool
    scheme_objectives: dict[str, float] = field(default_factory=dict)


def relaxed_objective(
    params: SystemParams,
    topology: PairedTopology,
    power_w: np.ndarray,
    resolution: np.ndarray,
    t_cmp_s: np.ndarray,
    e_cmp_j: np.ndarray,
) -> float:
    """Objective of the continuous relaxation: true energies and times, but
    accuracy taken on the linearized fit the block solver optimizes. The
    computation time and energy are those of ``resolution`` at the device
    frequencies, as ``model.computation_cost`` gives them."""
    rates = model.uplink_rates(params, topology, power_w)
    t_tr, e_tr = model.transmission_cost(topology, rates, power_w)
    acc = float(sp1.linear_accuracy(params, np.asarray(resolution)).sum())
    return (
        params.weight_energy * float((e_tr + e_cmp_j).sum())
        + params.weight_time * float((t_tr + t_cmp_s).max())
        - params.weight_accuracy * acc
    )


def allocate(params: SystemParams, topology: PairedTopology) -> SolveReport:
    """Alternate the two block solves from the midpoint power until the
    powers settle; frequency and resolution are the last frequency solve's."""
    power = np.full(topology.n_devices, 0.5 * (params.p_min_w + params.p_max_w))
    p_width = params.p_max_w - params.p_min_w

    trace: list[float] = []
    converged = False
    for _ in range(MAX_OUTER_ITERATIONS):
        block1 = sp1.solve_sp1(params, topology, power)
        cpu, s_cont, deadline = block1.cpu_hz, block1.resolution_cont, block1.deadline_s
        power_new, infeasible_flags, _ = sp2.solve_sp2(params, topology, cpu, s_cont, deadline)
        delta = float(np.abs(power_new - power).max()) / p_width
        power = power_new
        trace.append(
            relaxed_objective(params, topology, power, s_cont, block1.t_cmp_s, block1.e_cmp_j)
        )
        if delta <= OUTER_TOLERANCE:
            converged = True
            break

    resolution = block1.resolution_px
    feasible = not infeasible_flags.any()
    return _report(params, topology, power, cpu, resolution, trace, converged, feasible)


def _report(
    params: SystemParams,
    topology: PairedTopology,
    power: np.ndarray,
    cpu: np.ndarray,
    resolution: np.ndarray,
    trace: list[float] | None = None,
    converged: bool = True,
    feasible: bool = True,
) -> SolveReport:
    """The report of a final allocation, costed by ``model.evaluate``."""
    allocation = Allocation(power_w=power, cpu_hz=cpu, resolution_px=resolution)
    costs = model.evaluate(params, topology, allocation)
    return SolveReport(
        allocation=allocation,
        costs=costs,
        topology=topology,
        scheme=None,
        objective_trace=[] if trace is None else trace,
        converged=converged,
        feasible=feasible,
    )


def allocate_best_pairing(
    params: SystemParams, topologies: Mapping[PairingScheme, PairedTopology]
) -> SolveReport:
    """Solve one cell under every pairing scheme of ``topologies``, which
    maps each scheme to its topology, and keep the lowest objective; ties go
    to the scheme listed first."""
    reports: list[SolveReport] = []
    for scheme, topology in topologies.items():
        report = allocate(params, topology)
        report.scheme = scheme
        reports.append(report)
    best = min(reports, key=lambda r: r.costs.objective)
    best.scheme_objectives = {r.scheme.value: r.costs.objective for r in reports}
    return best


def random_baseline(
    params: SystemParams, topology: PairedTopology, seed: int
) -> SolveReport:
    """Uniform powers and frequencies, lowest resolution everywhere."""
    rng = np.random.default_rng([STREAM_BASELINE, seed])
    n = topology.n_devices
    power = rng.uniform(params.p_min_w, params.p_max_w, n)
    cpu = rng.uniform(params.f_min_hz, params.f_max_hz, n)
    return _report(params, topology, power, cpu, np.full(n, params.resolution_set_px[0]))


def _grid(low: float, high: float) -> np.ndarray:
    return low + 0.1 * np.arange(GRID_STEPS) * (high - low)


def _grid_reduce(reduce, pairs, terms, buffers):
    """``reduce(costs, axis=0)`` of the exact greedy cost over the full
    (f_a, f_b) grid at each flat ``channel * 121 + q`` power pair of one
    chunk, at most GREEDY_BLOCK pairs per pass.

    ``terms`` is (alpha, beta, e_cmp, t_cmp, upload, unreachable) of the
    chunk: e_cmp and t_cmp with axes (member, f, channel); upload with axes
    (term, channel * 121 + q), terms (e_tr_a, e_tr_b, t_tr_a, t_tr_b). Costs
    lie (f_a, f_b, pair), so the pairs run along the long contiguous last axis.
    """
    alpha, beta, e_cmp, t_cmp, upload, unreachable = terms
    channel = pairs // (GRID_STEPS * GRID_STEPS)
    parts = []
    for lo in range(0, len(pairs), GREEDY_BLOCK):
        block = slice(lo, lo + GREEDY_BLOCK)
        # take, unlike fancy indexing, returns C-contiguous rows
        e_tr_a, e_tr_b, t_tr_a, t_tr_b = np.take(upload, pairs[block], axis=1)
        e_cmp_a, e_cmp_b = np.take(e_cmp, channel[block], axis=2)
        time_a, time_b = np.take(t_cmp, channel[block], axis=2)
        size = len(e_tr_a)
        cost, span = buffers[:2, : GRID_STEPS * GRID_STEPS * size].reshape(
            2, GRID_STEPS, GRID_STEPS, size
        )
        # energy sums in the order ((e_cmp_a + e_cmp_b) + e_tr_a) + e_tr_b
        np.copyto(cost, e_cmp_a[:, None])
        cost += e_cmp_b  # one long inner loop over (f_b, pair), unlike a 2-D broadcast
        cost += e_tr_a
        cost += e_tr_b
        cost *= alpha
        # beta * max(u, v) == max(beta * u, beta * v) exactly for beta >= 0
        time_a += t_tr_a
        time_a *= beta
        time_b += t_tr_b
        time_b *= beta
        np.maximum(time_a[:, None], time_b[None], out=span)
        cost += span
        lost = unreachable[pairs[block]]
        if lost.any():
            np.copyto(cost, np.inf, where=lost)
        parts.append(reduce(cost.reshape(-1, size), axis=0))
    return np.concatenate(parts)


def _pair_bound(pairs, terms, buffers):
    """The pair bound LB2 (see ``greedy_baseline``) at each flat ``channel *
    121 + q`` power pair of one chunk; ``terms`` as ``_grid_reduce`` takes
    them. Bounds lie (f_b, pair), GRID_STEPS * GREEDY_BLOCK pairs per pass,
    which fills as much of a buffer as a ``_grid_reduce`` pass."""
    alpha, beta, e_cmp, t_cmp, upload, _ = terms
    e_low, t_low = e_cmp[0].min(axis=0), t_cmp[0].min(axis=0)
    parts = []
    for lo in range(0, len(pairs), GRID_STEPS * GREEDY_BLOCK):
        block = pairs[lo : lo + GRID_STEPS * GREEDY_BLOCK]
        channel = block // (GRID_STEPS * GRID_STEPS)
        e_tr_a, e_tr_b, t_tr_a, t_tr_b = np.take(upload, block, axis=1)
        bound, span = buffers[:2, : GRID_STEPS * len(block)].reshape(2, GRID_STEPS, -1)
        # the cost's own operations; a + b == b + a in floating point
        np.take(e_cmp[1], channel, axis=1, out=bound)
        bound += e_low[channel]
        bound += e_tr_a
        bound += e_tr_b
        bound *= alpha
        np.take(t_cmp[1], channel, axis=1, out=span)
        span += t_tr_b
        span *= beta
        t_tr_a += t_low[channel]
        t_tr_a *= beta
        bound += np.maximum(span, t_tr_a, out=span)
        parts.append(bound.min(axis=0))
    return np.concatenate(parts)


def _frequency_bound(terms):
    """Lower bound of the greedy cost at each frequency point f = f_a * 11 +
    f_b of one chunk's channels, axes (channel, f): every power-dependent
    term at its minimum over the channel's reachable power pairs, or at 0
    where none is reachable (the full search then costs +inf, and 0 keeps
    the bound finite where +inf would give 0 * inf = NaN)."""
    alpha, beta, e_cmp, t_cmp, upload, unreachable = terms
    c = e_cmp.shape[2]
    # axes: (term, channel, 1, 1)
    low = np.min(
        upload.reshape(4, c, -1), axis=2, where=~unreachable.reshape(c, -1), initial=np.inf
    )
    low[low == np.inf] = 0.0
    e_tr_a, e_tr_b, t_tr_a, t_tr_b = low[..., None, None]
    # axes: (channel, f_a, f_b), in the cost's own order
    (e_a, e_b), (t_a, t_b) = e_cmp.transpose(0, 2, 1), t_cmp.transpose(0, 2, 1)
    bound = e_a[:, :, None] + e_b[:, None, :]
    bound += e_tr_a
    bound += e_tr_b
    bound *= alpha
    bound += np.maximum(beta * (t_a[:, :, None] + t_tr_a), beta * (t_b[:, None, :] + t_tr_b))
    return bound.reshape(c, -1)


def _frequency_reduce(points, terms, buffers):
    """Minimum and first arg-min of the exact greedy cost over the full
    power grid at each flat ``channel * 121 + f`` frequency point of one
    chunk, at most GREEDY_BLOCK points per pass; ``terms`` as
    ``_grid_reduce`` takes them. Costs lie (point, q), so the power pairs
    run along the contiguous last axis."""
    alpha, beta, e_cmp, t_cmp, upload, unreachable = terms
    pairs = GRID_STEPS * GRID_STEPS
    c = e_cmp.shape[2]
    e_tr_a, e_tr_b, t_tr_a, t_tr_b = upload.reshape(4, c, pairs)
    unreachable = unreachable.reshape(c, pairs)
    lows, firsts = [], []
    for lo in range(0, len(points), GREEDY_BLOCK):
        channel, f = np.divmod(points[lo : lo + GREEDY_BLOCK], pairs)
        fa, fb = np.divmod(f, GRID_STEPS)
        size = len(channel)
        cost, time_a, time_b = buffers[:, : pairs * size].reshape(3, size, pairs)
        # the cost's own operations; a + b == b + a in floating point
        np.take(e_tr_a, channel, axis=0, out=cost)
        cost += (e_cmp[0, fa, channel] + e_cmp[1, fb, channel])[:, None]
        np.take(e_tr_b, channel, axis=0, out=time_a)
        cost += time_a
        cost *= alpha
        np.take(t_tr_a, channel, axis=0, out=time_a)
        time_a += t_cmp[0, fa, channel][:, None]
        time_a *= beta
        np.take(t_tr_b, channel, axis=0, out=time_b)
        time_b += t_cmp[1, fb, channel][:, None]
        time_b *= beta
        cost += np.maximum(time_a, time_b, out=time_a)
        lost = unreachable[channel]
        if lost.any():
            np.copyto(cost, np.inf, where=lost)
        first = cost.argmin(axis=1)
        lows.append(cost[np.arange(size), first])
        firsts.append(first)
    return np.concatenate(lows), np.concatenate(firsts)


def _pair_terms(params: SystemParams, topology: PairedTopology, lo: int, hi: int):
    """Lower bounds and exact cost terms of channels lo..hi-1 on the greedy
    grids: (bound, terms), bound with axes (channel, q) and +inf where
    either member's rate is zero, terms as ``_grid_reduce`` takes them."""
    steps = GRID_STEPS
    p_grid = _grid(params.p_min_w, params.p_max_w)
    f_grid = _grid(params.f_min_hz, params.f_max_hz)
    alpha, beta = params.weight_energy, params.weight_time
    gains, bits = topology.gains, topology.upload_bits
    c, a, b = hi - lo, slice(2 * lo, 2 * hi, 2), slice(2 * lo + 1, 2 * hi, 2)
    # the chunk's members in the array form the cost kernels take, so the
    # compute-cost grids are built per chunk, not for the whole cell
    members = SimpleNamespace(
        cycles_per_std_sample=topology.cycles_per_std_sample[2 * lo : 2 * hi],
        sample_count=topology.sample_count[2 * lo : 2 * hi],
    )
    s_low = params.resolution_set_px[0]
    t_cmp, e_cmp = model.computation_cost(params, members, s_low, f_grid[:, None])
    # axes: (member, f, channel)
    t_cmp = np.ascontiguousarray(t_cmp.reshape(steps, c, 2).transpose(2, 0, 1))
    e_cmp = np.ascontiguousarray(e_cmp.reshape(steps, c, 2).transpose(2, 0, 1))
    t_low, e_low = t_cmp.min(axis=1), e_cmp.min(axis=1)

    # axes: (channel, p_a, p_b); rate_a varies with p_a only, (channel, p_a, 1)
    rate_a, rate_b = model._pair_rates(
        params, gains[a, None, None], gains[b, None, None], p_grid[:, None], p_grid
    )
    unreachable = ((rate_a <= 0.0) | (rate_b <= 0.0)).reshape(c, -1)
    # bits / rate, with a finite 0 standing in where the rate is zero; member
    # a's terms depend on p_a only, so they are computed per p_a
    t_tr_a = np.divide(bits[a, None, None], rate_a, out=np.zeros_like(rate_a), where=rate_a > 0.0)
    e_tr_a = p_grid[:, None] * t_tr_a
    # axes: (term, channel, p_a, p_b), terms e_tr_a, e_tr_b, t_tr_a, t_tr_b
    upload = np.empty((4, c, steps, steps))
    positive = rate_b > 0.0
    if positive.all():  # a plain divide is the faster
        np.divide(bits[b, None, None], rate_b, out=upload[3])
    else:
        upload[3] = 0.0
        np.divide(bits[b, None, None], rate_b, out=upload[3], where=positive)
    del rate_b, positive
    np.multiply(p_grid, upload[3], out=upload[1])

    # every f-dependent term at its grid minimum, in the cost's own order
    bound = ((e_low[0] + e_low[1])[:, None, None] + e_tr_a) + upload[1]
    bound *= alpha
    span = t_low[1, :, None, None] + upload[3]
    span *= beta
    bound += np.maximum(span, beta * (t_low[0, :, None, None] + t_tr_a), out=span)
    del span
    # spread over p_b only now, once the bound's temporaries are freed
    upload[0], upload[2] = e_tr_a, t_tr_a
    bound = bound.reshape(c, -1)
    bound[unreachable] = np.inf
    return bound, (alpha, beta, e_cmp, t_cmp, upload.reshape(4, -1), unreachable.ravel())


def _channel_min(channel, values, c):
    """Minimum of ``values`` per channel, rows channel-major, every channel
    of the chunk present."""
    return np.minimum.reduceat(values, np.searchsorted(channel, np.arange(c)))


def _greedy_chunk(params: SystemParams, topology: PairedTopology, lo: int, hi: int, buffers):
    """The pick of each of channels lo..hi-1 as a flat index into its
    (f_a, f_b, p_a, p_b) grid; see ``greedy_baseline``. The chunk's arrays
    are freed on return, before the next chunk builds its own."""
    pairs = GRID_STEPS * GRID_STEPS  # power pairs per channel, q = p_a * 11 + p_b
    c = hi - lo
    bound, terms = _pair_terms(params, topology, lo, hi)
    incumbent = np.arange(c) * pairs + bound.argmin(axis=1)
    ceiling = _grid_reduce(np.minimum.reduce, incumbent, terms, buffers)
    # channel-major, and every channel keeps at least its incumbent
    survivors = np.flatnonzero(bound <= ceiling[:, None])
    if 2 * len(survivors) > bound.size:
        # most pairs alive: the frequency axis may prune better; every
        # channel keeps at least the point its ceiling was found at
        points = np.flatnonzero(_frequency_bound(terms) <= ceiling[:, None])
        if len(points) < len(survivors):
            lowest, first = _frequency_reduce(points, terms, buffers)
            channel = points // pairs
            winners = lowest == _channel_min(channel, lowest, c)[channel]
            flat = points[winners] % pairs * pairs + first[winners]
            return _channel_min(channel[winners], flat, c)
    # the second bound keeps the incumbent too, as it is exact in f_b
    survivors = survivors[_pair_bound(survivors, terms, buffers) <= ceiling[survivors // pairs]]
    lowest = _grid_reduce(np.minimum.reduce, survivors, terms, buffers)
    channel = survivors // pairs
    winners = survivors[lowest == _channel_min(channel, lowest, c)[channel]]
    first = _grid_reduce(np.argmin, winners, terms, buffers)
    flat = first * pairs + winners % pairs  # index into (f_a, f_b, p_a, p_b)
    return _channel_min(winners // pairs, flat, c)


def greedy_baseline(params: SystemParams, topology: PairedTopology) -> SolveReport:
    """Exhaustive per-channel grid search at the lowest resolution.

    Every channel independently picks the (f, f, p, p) grid combination
    minimizing its own energy-plus-time cost, time taken as the max over
    the channel's two members; a combination that leaves either member
    with zero rate (zero power) costs +inf. Ties go to the first
    combination in (f_a, f_b, p_a, p_b) order. Aggregate energy sums over
    channels; the reported completion time is the max across channels.

    The search is exact but pruned by three lower bounds, each the cost
    expression over smaller terms. For each channel and power pair
    q = p_a * 11 + p_b the power bound

        LB = alpha * (((min e_cmp_a + min e_cmp_b) + e_tr_a) + e_tr_b)
             + max(beta * (min t_cmp_a + t_tr_a), beta * (min t_cmp_b + t_tr_b))

    takes every f-dependent term at its minimum over that member's f grid;
    the pair bound LB2 is the least over f_b of LB with member b's terms
    exact at f_b (11 evaluations against 121 for the exact grid). For each
    frequency point f = f_a * 11 + f_b the frequency bound takes the
    f-dependent terms exact and every power-dependent one at its minimum
    over the channel's reachable power pairs. Each holds in floating point,
    not only in exact arithmetic: round-to-nearest +, * alpha (alpha >= 0)
    and max are each monotone in every operand.

    The exact (f_a, f_b) grid at each channel's arg-min-LB pair gives an
    incumbent I. Only pairs with LB <= I and LB2 <= I are evaluated exactly,
    each over the whole (f_a, f_b) grid; ``<=`` keeps a pair that only ties
    the minimum. On a 10,000-device cell's narrow subchannels, LB keeps
    about 9 of 121 pairs per channel and LB2 about half of those. Where LB
    keeps most of a chunk's pairs, as on a 50-device cell, the frequency
    bound comes first: if it keeps fewer points than LB kept pairs, those
    points are evaluated over the whole power grid instead (1 to 3 of 121
    per channel on paper cells). Either way the pick is the first grid
    point in (f_a, f_b, p_a, p_b) order that reaches the channel minimum,
    the same as a full search. Channels go GREEDY_CHUNK at a time.
    """
    steps = GRID_STEPS
    p_grid = _grid(params.p_min_w, params.p_max_w)
    f_grid = _grid(params.f_min_hz, params.f_max_hz)
    buffers = np.empty((3, steps * steps * GREEDY_BLOCK))
    n_channels = topology.n_channels
    choice = np.concatenate([
        _greedy_chunk(params, topology, lo, min(lo + GREEDY_CHUNK, n_channels), buffers)
        for lo in range(0, n_channels, GREEDY_CHUNK)
    ])
    fa, fb, pa, pb = np.unravel_index(choice, (steps, steps, steps, steps))
    n = topology.n_devices
    power = np.empty(n)
    cpu = np.empty(n)
    cpu[0::2], cpu[1::2] = f_grid[fa], f_grid[fb]
    power[0::2], power[1::2] = p_grid[pa], p_grid[pb]
    return _report(params, topology, power, cpu, np.full(n, params.resolution_set_px[0]))

