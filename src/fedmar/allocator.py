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
# chunk holds four (channel, q) float arrays, member b's upload terms and the
# power bound's two, about 0.99 MB in all at 256 channels.
# GREEDY_BLOCK power pairs or frequency points are evaluated at a time over
# the whole other axis, in three 0.37 MB cost buffers allocated once per call;
# np.take writes them in place with mode="clip", unlike with its default mode.
GREEDY_CHUNK = 256
GREEDY_BLOCK = 384
SPLIT_THETAS = np.array([0.0, 0.25, 0.5, 0.75, 1.0])[:, None]  # see greedy_baseline
SPLIT_MARGIN = 1.0 - 2.0**-40
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

    resolution = sp1.round_resolutions(params, s_cont)
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


def _min_first(costs):
    """Minimum and first arg-min of 2-D ``costs`` along axis 0."""
    first = costs.argmin(axis=0)
    return costs[first, np.arange(costs.shape[1])], first


def _grid_reduce(pairs, terms, buffers):
    """Minimum and first arg-min of the greedy cost over the (f_a, f_b) grid
    of ``terms`` at each flat ``channel * 121 + q`` power pair of one chunk,
    at most GREEDY_BLOCK pairs per pass, and one empty pass for empty
    ``pairs``.

    ``terms`` is (alpha, beta, e_a, e_b, t_a, t_b, upload_a, upload_b,
    unreachable) of the chunk: each member's compute energy and time with
    axes (f, channel); member a's upload energy and time with axes (term,
    channel * 11 + p_a), member b's with axes (term, channel * 121 + q);
    and the pairs where either rate is zero, or None where no rate of the
    chunk is. Costs lie (f_a, f_b, pair), so the pairs run along the long
    contiguous last axis.
    """
    alpha, beta, e_a, e_b, t_a, t_b, upload_a, upload_b, unreachable = terms
    grid = GRID_STEPS * GRID_STEPS
    channel, power_a = pairs // grid, pairs // GRID_STEPS
    parts = []
    for lo in range(0, max(len(pairs), 1), GREEDY_BLOCK):
        block = slice(lo, lo + GREEDY_BLOCK)
        cols = channel[block]
        cost, span, rows = buffers[:, : grid * len(cols)].reshape(3, GRID_STEPS, GRID_STEPS, -1)
        # take gives C-contiguous rows, unlike fancy indexing; member b's fill spare buffers
        e_tr_a, t_tr_a = np.take(upload_a, power_a[block], axis=1)
        e_tr_b, t_tr_b = np.take(upload_b, pairs[block], axis=1)
        e_cmp_b = np.take(e_b, cols, axis=1, out=span[0], mode="clip")
        time_b = np.take(t_b, cols, axis=1, out=rows[0], mode="clip")
        e_cmp_a, time_a = np.take(e_a, cols, axis=1), np.take(t_a, cols, axis=1)
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
        if unreachable is not None and (lost := unreachable[pairs[block]]).any():
            np.copyto(cost, np.inf, where=lost)
        parts.append(_min_first(cost.reshape(grid, -1)))
    return tuple(map(np.concatenate, zip(*parts)))


def _bound(alpha, beta, e_a, e_b, t_a, t_b, e_tr_a, e_tr_b, t_tr_a, t_tr_b):
    """``alpha * (((e_a + e_b) + e_tr_a) + e_tr_b) + max(beta * (t_a +
    t_tr_a), beta * (t_b + t_tr_b))`` over operands that broadcast
    together, in the exact kernels' float operations; member b's time is
    summed straight into the one full-shape buffer the max is taken in."""
    cost = ((e_a + e_b) + e_tr_a) + e_tr_b
    cost *= alpha
    span = np.add(t_b, t_tr_b, out=np.empty_like(cost))
    span *= beta
    cost += np.maximum(span, beta * (t_a + t_tr_a), out=span)
    return cost


def _split_bound(pairs, terms):
    """The split bound LB2 at each flat ``channel * 121 + q`` power pair of
    one chunk; see ``greedy_baseline``."""
    alpha, beta, e_a, e_b, t_a, t_b, upload_a, upload_b, _ = terms
    weight_a, weight_b = beta * SPLIT_THETAS, beta * (1.0 - SPLIT_THETAS)
    # both members' least compute cost, axes (theta, channel), then (theta, pair)
    low = np.min(alpha * e_a + weight_a[..., None] * t_a, axis=1)
    low += np.min(alpha * e_b + weight_b[..., None] * t_b, axis=1)
    e_tr_a, t_tr_a = np.take(upload_a, pairs // GRID_STEPS, axis=1)
    e_tr_b, t_tr_b = np.take(upload_b, pairs, axis=1)
    split = np.take(low, pairs // (GRID_STEPS * GRID_STEPS), axis=1)
    split += alpha * (e_tr_a + e_tr_b)
    split += weight_a * t_tr_a
    split += weight_b * t_tr_b
    return split.max(axis=0) * SPLIT_MARGIN


def _frequency_bound(terms):
    """Lower bound of the greedy cost at each frequency point f = f_a * 11 +
    f_b of one chunk's channels, axes (channel, f): every power-dependent
    term at its minimum over the channel's reachable power pairs, or at 0
    where none is reachable (the full search then costs +inf, and 0 keeps
    the bound finite where +inf would give 0 * inf = NaN)."""
    alpha, beta, e_a, e_b, t_a, t_b, upload_a, upload_b, unreachable = terms
    c = e_a.shape[1]
    reachable_a = reachable_b = True
    if unreachable is not None:
        # member a's terms count at each p_a where some pair is reachable
        reachable_b = ~unreachable.reshape(c, -1)
        reachable_a = reachable_b.reshape(c, GRID_STEPS, GRID_STEPS).any(axis=2)
    # axes: (member, term, channel)
    low = np.array([
        np.min(upload.reshape(2, c, -1), axis=2, where=reachable, initial=np.inf)
        for upload, reachable in ((upload_a, reachable_a), (upload_b, reachable_b))
    ])
    low[low == np.inf] = 0.0
    (e_tr_a, t_tr_a), (e_tr_b, t_tr_b) = low[..., None, None]
    # axes: (channel, f_a, f_b)
    compute = e_a.T[:, :, None], e_b.T[:, None, :], t_a.T[:, :, None], t_b.T[:, None, :]
    return _bound(alpha, beta, *compute, e_tr_a, e_tr_b, t_tr_a, t_tr_b).reshape(c, -1)


def _frequency_reduce(points, terms, buffers):
    """Minimum and first arg-min of the exact greedy cost over the full
    power grid at each flat ``channel * 121 + f`` frequency point of one
    chunk, at most GREEDY_BLOCK points per pass; ``terms`` as
    ``_grid_reduce`` takes them. Costs lie (point, q), so the power pairs
    run along the contiguous last axis."""
    alpha, beta, e_a, e_b, t_a, t_b, upload_a, upload_b, unreachable = terms
    pairs = GRID_STEPS * GRID_STEPS
    c = e_a.shape[1]
    # member a's terms with axes (channel, p_a), spread over p_b per point
    e_tr_a, t_tr_a = upload_a.reshape(2, c, GRID_STEPS)
    e_tr_b, t_tr_b = upload_b.reshape(2, c, pairs)
    parts = []
    for lo in range(0, len(points), GREEDY_BLOCK):
        channel, f = np.divmod(points[lo : lo + GREEDY_BLOCK], pairs)
        fa, fb = np.divmod(f, GRID_STEPS)
        size = len(channel)
        cost, time_a, time_b = buffers[:, : pairs * size].reshape(3, size, pairs)
        grid = (size, GRID_STEPS, GRID_STEPS)
        # the cost's own operations; a + b == b + a in floating point
        e_cmp = e_a[fa, channel] + e_b[fb, channel]
        cost.reshape(grid)[...] = (e_tr_a[channel] + e_cmp[:, None])[..., None]
        np.take(e_tr_b, channel, axis=0, out=time_a, mode="clip")
        cost += time_a
        cost *= alpha
        time_a.reshape(grid)[...] = (t_tr_a[channel] + t_a[fa, channel][:, None])[..., None]
        time_a *= beta
        np.take(t_tr_b, channel, axis=0, out=time_b, mode="clip")
        time_b += t_b[fb, channel][:, None]
        time_b *= beta
        cost += np.maximum(time_a, time_b, out=time_a)
        if unreachable is not None and (lost := unreachable.reshape(c, -1)[channel]).any():
            np.copyto(cost, np.inf, where=lost)
        parts.append(_min_first(cost.T))
    return tuple(map(np.concatenate, zip(*parts)))


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
    # the chunk's members as (member, 1, channel) views: the compute-cost
    # grids, built per chunk, not for the whole cell, come out (member, f, channel)
    chunk = slice(2 * lo, 2 * hi)
    members = SimpleNamespace(
        cycles_per_std_sample=topology.cycles_per_std_sample[chunk].reshape(c, 2).T[:, None],
        sample_count=topology.sample_count[chunk].reshape(c, 2).T[:, None],
    )
    s_low = params.resolution_set_px[0]
    t_cmp, e_cmp = model.computation_cost(params, members, s_low, f_grid[:, None])

    # member b's upload energy and time, axes (term, channel, p_a, p_b),
    # its rate built in the time's place; member a's rate varies with p_a
    # only, axes (channel, p_a, 1), and so do its terms
    upload_b = np.empty((2, c, steps, steps))
    rate_a, rate_b = model._pair_rates(
        params, gains[a, None, None], gains[b, None, None], p_grid[:, None], p_grid, out=upload_b[1]
    )
    unreachable = None
    if not (rate_a.min() > 0.0 and rate_b.min() > 0.0):
        # bits / rate, a zero rate taken as +inf, which bits divide to a finite 0
        unreachable = ((rate_a <= 0.0) | (rate_b <= 0.0)).reshape(c, -1)
        rate_a[rate_a <= 0.0] = np.inf
        rate_b[rate_b <= 0.0] = np.inf
    upload_a = np.empty((2, c, steps, 1))
    np.divide(bits[a, None, None], rate_a, out=upload_a[1])
    np.multiply(p_grid[:, None], upload_a[1], out=upload_a[0])
    np.divide(bits[b, None, None], rate_b, out=rate_b)
    np.multiply(p_grid, rate_b, out=upload_b[0])

    # every f-dependent term at its grid minimum, axes (member, channel, 1, 1)
    e_low, t_low = e_cmp.min(axis=1)[..., None, None], t_cmp.min(axis=1)[..., None, None]
    bound = _bound(alpha, beta, *e_low, *t_low, upload_a[0], upload_b[0], upload_a[1], upload_b[1])
    bound = bound.reshape(c, -1)
    if unreachable is not None:
        bound[unreachable] = np.inf
        unreachable = unreachable.ravel()
    upload = upload_a.reshape(2, -1), upload_b.reshape(2, -1)
    return bound, (alpha, beta, *e_cmp, *t_cmp, *upload, unreachable)


def _greedy_chunk(params: SystemParams, topology: PairedTopology, lo: int, hi: int, buffers):
    """The pick of each of channels lo..hi-1 as a flat index into its
    (f_a, f_b, p_a, p_b) grid; see ``greedy_baseline``. The chunk's arrays
    are freed on return, before the next chunk builds its own."""
    pairs = GRID_STEPS * GRID_STEPS  # power pairs per channel, q = p_a * 11 + p_b
    c = hi - lo
    bound, terms = _pair_terms(params, topology, lo, hi)
    incumbent = np.arange(c) * pairs + bound.argmin(axis=1)
    ceiling, first = _grid_reduce(incumbent, terms, buffers)
    # every channel's incumbent is alive, and already evaluated
    alive = bound <= ceiling[:, None]
    alive.flat[incumbent] = False
    survivors = np.flatnonzero(alive)
    if 2 * (len(survivors) + c) > bound.size:
        # most pairs alive: the frequency axis prunes instead, keeping at
        # least the point each channel's ceiling was found at
        points = np.flatnonzero(_frequency_bound(terms) <= ceiling[:, None])
        lowest, firsts = _frequency_reduce(points, terms, buffers)
        channel, flat = points // pairs, points % pairs * pairs + firsts
    else:
        # the split bound prunes the pairs other than the incumbents
        survivors = survivors[_split_bound(survivors, terms) <= ceiling[survivors // pairs]]
        lowest, firsts = _grid_reduce(survivors, terms, buffers)
        channel, flat = survivors // pairs, firsts * pairs + survivors % pairs
    least = ceiling.copy()
    np.minimum.at(least, channel, lowest)
    # the pick is the least flat (f_a, f_b, p_a, p_b) index at the channel
    # minimum: the incumbent's, where it reaches it, or a candidate's
    pick = np.where(ceiling == least, first * pairs + incumbent % pairs, pairs * pairs)
    winners = lowest == least[channel]
    np.minimum.at(pick, channel[winners], flat[winners])
    return pick


def greedy_baseline(params: SystemParams, topology: PairedTopology) -> SolveReport:
    """Exhaustive per-channel grid search at the lowest resolution.

    Every channel independently picks the (f, f, p, p) grid combination
    minimizing its own energy-plus-time cost, time taken as the max over
    the channel's two members; a combination that leaves either member
    with zero rate (zero power) costs +inf. Ties go to the first
    combination in (f_a, f_b, p_a, p_b) order. Aggregate energy sums over
    channels; the reported completion time is the max across channels.

    The search is exact but pruned by three lower bounds. Two are the cost

        alpha * (((e_cmp_a + e_cmp_b) + e_tr_a) + e_tr_b)
        + max(beta * (t_cmp_a + t_tr_a), beta * (t_cmp_b + t_tr_b))

    in the exact kernels' own float operations, with some operands at their
    minimum over a grid. Round-to-nearest +, * alpha, * beta (both >= 0)
    and max are each monotone in every operand, so a cost over operands no
    larger than the exact ones is a lower bound in floating point, not only
    in exact arithmetic. For each channel and power pair q = p_a * 11 + p_b,
    the power bound LB takes every f-dependent term at its minimum over
    that member's f grid. For each frequency point f = f_a * 11 + f_b, the
    frequency bound takes the f-dependent terms exact and every
    power-dependent one at its minimum over the channel's reachable power
    pairs. The split bound LB2 at pair q splits the time max, beta * max(x,
    y) >= beta * theta * x + beta * (1 - theta) * y, and takes each member's
    alpha * e_cmp + (its time weight) * t_cmp at its per-channel least over
    the f grid; it is the largest such bound over theta in SPLIT_THETAS,
    times SPLIT_MARGIN = 1 - 2**-40. Not being the cost's float expression,
    it needs that margin: all terms are non-negative, so it and the exact
    cost each round off by some ten units of 2**-53, far inside the margin,
    and every float cost of a pair with LB2 > I exceeds I, without a tie.

    The incumbent pass evaluates the exact (f_a, f_b) grid at each channel's
    arg-min-LB pair, for its minimum I and first arg-min. The other pairs
    with LB <= I go to the split bound, and those with also LB2 <= I to
    the survivor pass, which evaluates each one's grid once, for its
    minimum and first arg-min; ``<=`` keeps a pair that only ties. On a
    10,000-device cell's narrow subchannels LB keeps 9.3 of 121 pairs per
    channel and LB2 1.77 of those (incumbent included). Where LB keeps over
    half of a chunk's pairs, as on a 50-device cell, the points the
    frequency bound keeps (1 to 3 of 121 per channel on paper cells) are
    evaluated over the whole power grid instead, each for its minimum and
    first arg-min. Either way one pick rule follows: the first grid point
    in (f_a, f_b, p_a, p_b) order, the incumbent's or a survivor's or kept
    point's, that reaches the channel's minimum, as in a full search.
    Channels go GREEDY_CHUNK at a time.
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

