"""Shared test helpers: fixture builders, independent oracles, numerics."""

from __future__ import annotations

import math
from dataclasses import fields

import numpy as np

from fedmar import model, pairing, sp1
from fedmar.model import Device, PairedTopology, SystemParams

# Hand-computed reference values (independent of the package code).
RATE_12DBM_100DB = 7169469.873181168  # 0.8 MHz, -174 dBm/Hz, 12 dBm through -100 dB
T_TRANS_28_1_KBIT = 0.003919397179575809  # 28.1 kbit at the rate above
ACC_160 = 0.4422485118690449
ACC_320 = 0.802860125150637
ACC_640 = 0.975371273602267
GAIN_100M_NO_SHADOW = 8.912509381337441e-10  # 10 ** -9.05


def make_device(i: int, distance_km: float = 0.2, cycles: float = 2e4,
                samples: float = 500.0, bits: float = 28.1e3) -> Device:
    return Device(
        id=i,
        distance_km=distance_km,
        cycles_per_std_sample=cycles,
        sample_count=samples,
        upload_bits=bits,
    )


def make_devices(distances, cycles=2e4, samples: float = 500.0, bits: float = 28.1e3) -> Device:
    """Devices 0..n-1 as one ``Device`` of arrays, the form ``pair_users`` takes."""
    n = len(distances)
    return Device(
        id=np.arange(n),
        distance_km=np.array(distances, dtype=float),
        cycles_per_std_sample=np.broadcast_to(np.asarray(cycles, dtype=float), (n,)),
        sample_count=np.full(n, samples),
        upload_bits=np.full(n, bits),
    )


def scalar_devices(devices: Device) -> list[Device]:
    """One scalar ``Device`` per entry of a ``Device`` of arrays."""
    columns = (np.asarray(getattr(devices, f.name)).tolist() for f in fields(Device))
    return [Device(*values) for values in zip(*columns)]


def topology_from_gains(
    gains, cycles=None, distances=None, ids=None, bits=28.1e3
) -> PairedTopology:
    """Consecutive devices form a pair; each gain pair must be ascending.
    Ids default to the channel-major index."""
    n = len(gains)
    return PairedTopology(
        id=np.arange(n) if ids is None else ids,
        distance_km=np.full(n, 0.2) if distances is None else distances,
        cycles_per_std_sample=np.full(n, 2e4) if cycles is None else cycles,
        sample_count=np.full(n, 500.0),
        upload_bits=np.full(n, bits),
        gains=np.array(gains, dtype=float),
    )


def table_instance(seed: int, **params_kw) -> tuple[SystemParams, PairedTopology]:
    """Default-parameter cell with a seeded 50-user topology, nearest pairing."""
    params = SystemParams(**params_kw)
    config = pairing.TopologyConfig(rng_seed=seed)
    devices, gains = pairing.sample_topology(config)
    topo = pairing.pair_users(params, devices, gains, pairing.PairingScheme.NEAREST_USER)
    return params, topo


def small_instance(seed: int, users: int = 4, **params_kw) -> tuple[SystemParams, PairedTopology]:
    params = SystemParams(channel_count=users // 2, **params_kw)
    config = pairing.TopologyConfig(user_count=users, channel_count=users // 2, rng_seed=seed)
    devices, gains = pairing.sample_topology(config)
    topo = pairing.pair_users(params, devices, gains, pairing.PairingScheme.NEAREST_USER)
    return params, topo


# Object-based sampling and pairing as the package did it before both became
# array operations, kept as the reference they must reproduce bit for bit:
# one scalar Device per user, one scalar gain per device, pairs as tuples.


def reference_generate_topology(
    config: pairing.TopologyConfig, ranges: pairing.DeviceParamRanges = pairing.DeviceParamRanges()
) -> list[Device]:
    rng = np.random.default_rng([pairing.STREAM_PLACEMENT, config.rng_seed])
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


def reference_channel_gain(distance_km: float, shadow_db_sample: float) -> float:
    if distance_km <= 0:
        raise ValueError("distance must be positive")
    loss_db = pairing.PATH_LOSS_OFFSET_DB + pairing.PATH_LOSS_SLOPE_DB * math.log10(distance_km)
    return 10.0 ** (-(loss_db + shadow_db_sample) / 10.0)


def reference_sample_gains(config: pairing.TopologyConfig, devices: list[Device]) -> np.ndarray:
    rng = np.random.default_rng([pairing.STREAM_SHADOW, config.rng_seed])
    shadows = rng.normal(0.0, config.shadow_sigma_db, len(devices))
    return np.array(
        [reference_channel_gain(d.distance_km, float(x)) for d, x in zip(devices, shadows)]
    )


def _reference_ordered_pair(a: tuple[Device, float], b: tuple[Device, float]):
    # ascending gain; equal gains ordered by device id to stay deterministic
    if (a[1], a[0].id) > (b[1], b[0].id):
        a, b = b, a
    return a, b


def reference_pair_users(
    params: SystemParams,
    devices: list[Device],
    gains: np.ndarray,
    scheme: pairing.PairingScheme,
    rng_seed: int = 0,
) -> dict[str, np.ndarray]:
    """The pairing of scalar ``devices``, as the channel-major arrays a
    ``PairedTopology`` holds."""
    n = len(devices)
    if n % 2 != 0:
        raise ValueError("cannot pair an odd number of devices")
    if len(gains) != n:
        raise ValueError("need one gain per device")

    tagged = list(zip(devices, (float(g) for g in gains)))
    if scheme is pairing.PairingScheme.RANDOM:
        rng = np.random.default_rng([pairing.STREAM_PAIRING, rng_seed])
        order = rng.permutation(n)
        chosen = [(tagged[order[2 * k]], tagged[order[2 * k + 1]]) for k in range(n // 2)]
    else:
        by_distance = sorted(tagged, key=lambda t: (t[0].distance_km, t[0].id))
        if scheme is pairing.PairingScheme.NEAREST_USER:
            chosen = [(by_distance[2 * k], by_distance[2 * k + 1]) for k in range(n // 2)]
        else:
            chosen = [(by_distance[k], by_distance[n - 1 - k]) for k in range(n // 2)]

    members = [m for a, b in chosen for m in _reference_ordered_pair(a, b)]
    columns = {
        name: np.array([getattr(dev, name) for dev, _ in members])
        for name in ("id", "distance_km", "upload_bits", "cycles_per_std_sample", "sample_count")
    }
    columns["gains"] = np.array([gain for _, gain in members])
    return columns


def reference_costs(params: SystemParams, topo: PairedTopology, power_w, cpu_hz, resolution_px):
    """Independent per-device scalar evaluation: walks every channel's two
    members, index 2k then 2k+1, with ``math`` and returns rate, upload
    time, upload energy, computation time, computation energy and accuracy
    per device, channel-major, plus the objective."""
    per_device = []
    bandwidth = params.total_bandwidth_hz / params.channel_count
    for k in range(topo.n_devices // 2):
        noise = bandwidth * params.noise_psd_w_per_hz
        interference = 0.0
        for i in (2 * k, 2 * k + 1):
            p, f, s = float(power_w[i]), float(cpu_hz[i]), float(resolution_px[i])
            gain = float(topo.gains[i])
            rate = bandwidth * math.log2(1 + p * gain / (noise + interference))
            interference += p * gain
            t_tr = float(topo.upload_bits[i]) / rate
            cycles = (
                params.local_iterations
                * params.std_sample_scale
                * s**2
                * float(topo.cycles_per_std_sample[i])
                * float(topo.sample_count[i])
            )
            per_device.append(
                (
                    rate,
                    t_tr,
                    p * t_tr,
                    cycles / f,
                    params.switched_capacitance * cycles * f**2,
                    1.0 - 1.578 * math.exp(-6.5e-3 * s),
                )
            )
    rate, t_tr, e_tr, t_cmp, e_cmp, acc = (np.array(col) for col in zip(*per_device))
    objective = (
        params.weight_energy * math.fsum(e_tr + e_cmp)
        + params.weight_time * max(t_tr + t_cmp)
        - params.weight_accuracy * math.fsum(acc)
    )
    return {
        "rate_bps": rate,
        "t_trans_s": t_tr,
        "e_trans_j": e_tr,
        "t_cmp_s": t_cmp,
        "e_cmp_j": e_cmp,
        "accuracy": acc,
        "objective": objective,
    }


def reference_greedy_choice(params: SystemParams, topology: PairedTopology):
    """The greedy grid search one channel at a time, as a parity oracle for
    the chunked kernel: each channel's (f_a, f_b, p_a, p_b) argmin over the
    full 11^4 grid, in the same floating-point operations, written out here
    rather than taken from ``fedmar.model``. Returns the power and
    CPU-frequency vectors, channel-major."""
    p_grid = params.p_min_w + 0.1 * np.arange(11) * (params.p_max_w - params.p_min_w)
    f_grid = params.f_min_hz + 0.1 * np.arange(11) * (params.f_max_hz - params.f_min_hz)
    s_low = params.resolution_set_px[0]
    alpha, beta = params.weight_energy, params.weight_time
    gains, bits = topology.gains, topology.upload_bits
    # grid axis first: (f, device)
    cycles = (
        params.local_iterations
        * params.std_sample_scale
        * topology.cycles_per_std_sample
        * topology.sample_count
        * s_low
        * s_low
    )
    f = f_grid[:, None]
    t_cmp = cycles / f
    e_cmp = params.switched_capacitance * cycles * f * f

    n = topology.n_devices
    power = np.empty(n)
    cpu = np.empty(n)
    bandwidth = params.total_bandwidth_hz / params.channel_count
    noise = bandwidth * params.noise_psd_w_per_hz
    for k in range(n // 2):
        a, b = 2 * k, 2 * k + 1
        # axes: (p_a, p_b); the high-gain member b hears member a as noise
        received_a = p_grid[:, None] * gains[a]
        rate_a = bandwidth * np.log2(1.0 + received_a / noise)
        rate_b = bandwidth * np.log2(1.0 + p_grid[None, :] * gains[b] / (noise + received_a))
        rates = np.stack(np.broadcast_arrays(rate_a, rate_b))
        # a pair leaving either member zero rate (zero power) costs +inf;
        # its upload terms get a finite 0 so that 0 * inf makes no NaN
        reachable = (rates[0] > 0.0) & (rates[1] > 0.0)
        with np.errstate(divide="ignore"):
            t_tr = np.where(rates > 0.0, bits[a:b + 1, None, None] / rates, 0.0)
        t_tr_a, t_tr_b = t_tr[0, :, 0], t_tr[1]
        e_tr_a = p_grid * t_tr_a
        e_tr_b = p_grid[None, :] * t_tr_b

        # axes: (f_a, f_b, p_a, p_b)
        energy = (
            e_cmp[:, a, None, None, None]
            + e_cmp[None, :, b, None, None]
            + e_tr_a[None, None, :, None]
            + e_tr_b[None, None, :, :]
        )
        chan_time = np.maximum(
            t_cmp[:, a, None, None, None] + t_tr_a[None, None, :, None],
            t_cmp[None, :, b, None, None] + t_tr_b[None, None, :, :],
        )
        cost = np.where(reachable, alpha * energy + beta * chan_time, np.inf)
        fa, fb, pa, pb = np.unravel_index(int(np.argmin(cost)), cost.shape)
        cpu[a], cpu[b] = f_grid[fa], f_grid[fb]
        power[a], power[b] = p_grid[pa], p_grid[pb]
    return power, cpu


def _reference_cost_grids(params: SystemParams, topology: PairedTopology):
    """Each channel's exact greedy cost on the full grid, in the kernel's
    floating-point operations, with axes (f_a, f_b, p_a, p_b), and whether
    each power pair leaves both members a positive rate, axes (p_a, p_b)."""
    p_grid = params.p_min_w + 0.1 * np.arange(11) * (params.p_max_w - params.p_min_w)
    f_grid = params.f_min_hz + 0.1 * np.arange(11) * (params.f_max_hz - params.f_min_hz)
    s_low = params.resolution_set_px[0]
    alpha, beta = params.weight_energy, params.weight_time
    gains, bits = topology.gains, topology.upload_bits
    # grid axis first: (f, device)
    t_cmp, e_cmp = model.computation_cost(params, topology, s_low, f_grid[:, None])

    for k in range(topology.n_devices // 2):
        a, b = 2 * k, 2 * k + 1
        # axes: (p_a, p_b)
        rates = np.stack(np.broadcast_arrays(*model._pair_rates(
            params, gains[a], gains[b], p_grid[:, None], p_grid[None, :]
        )))
        reachable = (rates[0] > 0.0) & (rates[1] > 0.0)
        with np.errstate(divide="ignore"):
            t_tr = np.where(rates > 0.0, bits[a:b + 1, None, None] / rates, 0.0)
        t_tr_a, t_tr_b = t_tr[0, :, 0], t_tr[1]
        e_tr_a = p_grid * t_tr_a
        e_tr_b = p_grid[None, :] * t_tr_b

        # axes: (f_a, f_b, p_a, p_b)
        energy = (
            e_cmp[:, a, None, None, None]
            + e_cmp[None, :, b, None, None]
            + e_tr_a[None, None, :, None]
            + e_tr_b[None, None, :, :]
        )
        chan_time = np.maximum(
            t_cmp[:, a, None, None, None] + t_tr_a[None, None, :, None],
            t_cmp[None, :, b, None, None] + t_tr_b[None, None, :, :],
        )
        yield alpha * energy + beta * chan_time, reachable


def reference_pair_minima(params: SystemParams, topology: PairedTopology):
    """Exact greedy cost minimum over the (f_a, f_b) grid at every power
    pair, one channel at a time in the kernel's floating-point operations;
    +inf where either member's rate is zero. Axes: (channel, p_a * 11 + p_b)."""
    return np.array([
        np.where(reachable, cost.min(axis=(0, 1)), np.inf).ravel()
        for cost, reachable in _reference_cost_grids(params, topology)
    ])


def reference_point_minima(params: SystemParams, topology: PairedTopology):
    """Exact greedy cost minimum over the power pairs that leave both
    members a positive rate, at every (f_a, f_b) grid point; +inf where no
    pair does. Axes: (channel, f_a * 11 + f_b)."""
    return np.array([
        np.where(reachable, cost, np.inf).min(axis=(2, 3)).ravel()
        for cost, reachable in _reference_cost_grids(params, topology)
    ])


def project_budget(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum(x) == total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, len(v) + 1)
    rho = np.nonzero(u - css / idx > 0)[0][-1]
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


def spg_max_dual(curvature: np.ndarray, t_up: np.ndarray, beta: float,
                 iters: int = 50000, stop: float = 1e-13) -> np.ndarray:
    """Independent maximizer of the budgeted dual: spectral projected
    gradient ascent with a monotone backtracking safeguard."""

    def value(x):
        if np.any(x <= 0):
            return -np.inf
        return float(np.sum(-curvature * x ** (-2.0 / 3.0) + t_up * x))

    def grad(x):
        return (2.0 * curvature / 3.0) * x ** (-5.0 / 3.0) + t_up

    lam = np.full(len(t_up), beta / len(t_up))
    g = grad(lam)
    step = beta
    v = value(lam)
    for _ in range(iters):
        cand = project_budget(lam + step * g, beta)
        cv = value(cand)
        backtracks = 0
        while cv < v and backtracks < 80:
            step *= 0.5
            cand = project_budget(lam + step * g, beta)
            cv = value(cand)
            backtracks += 1
        shift = cand - lam
        g_new = grad(cand)
        secant = float(shift @ (g - g_new))
        step = float(shift @ shift) / secant if secant > 1e-300 else step * 1.5
        move = float(np.max(np.abs(shift)))
        lam, v, g = cand, cv, g_new
        if move <= stop * beta:
            break
    return lam


def random_dual_instance(rng: np.random.Generator, n: int):
    """Synthetic dual coefficients in the scales the real model produces."""
    gamma = rng.uniform(0.05, 2.0)
    slope = 1.1107e-3
    loads = rng.uniform(5e3, 1.5e4, n)
    ak = rng.uniform(0.1, 0.9) * 1e-28
    curvature = (gamma * slope) ** 2 / (
        4 * loads * ak ** (1 / 3) * (2 ** (-2 / 3) + 2 ** (1 / 3))
    )
    t_up = rng.uniform(1e-3, 8e-2, n)
    beta = rng.uniform(0.1, 0.9)
    coeffs = sp1.DualCoefficients(curvature=curvature, t_up=t_up)
    return coeffs, beta


def reference_price_map(coeffs: sp1.DualCoefficients):
    """The multiplier map of ``solve_dual`` before its Newton search, in the
    same operations: multipliers at a price offset above max(t_up)."""
    t_up = np.asarray(coeffs.t_up, dtype=float)
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
            fix[low & (fix > coeffs.lam_f_max)] = math.inf
            lam = np.where(pinned, fix, lam)
        return lam

    return lam_of


def reference_solve_dual(coeffs: sp1.DualCoefficients, beta: float) -> np.ndarray:
    """``solve_dual`` as it was before its Newton search, kept as a reference
    for it: bracket the price offset by factors of 4 from 1, then bisect it
    geometrically until the bracket is an ulp or two wide, and return the
    end whose total is closer to the budget, with the same jump rule."""
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

    lam_of = reference_price_map(coeffs)

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

    if total_lo == math.inf:
        lam = lam_of(hi)
        jumpers = lam_of(lo) == math.inf
        lam[jumpers] += (beta - total_hi) / int(np.count_nonzero(jumpers))
        return lam
    return lam_of(lo if total_lo - beta < beta - total_hi else hi)


def random_cell_dual(seed: int, users: int, alpha: float, gamma: float, f_max_ghz: float):
    """Dual coefficients and budget of a small seeded cell at random powers."""
    params, topo = small_instance(
        seed,
        users=users,
        weight_energy=alpha,
        weight_time=1.0 - alpha,
        weight_accuracy=gamma,
        f_max_hz=f_max_ghz * 1e9,
    )
    powers = np.random.default_rng(seed).uniform(params.p_min_w, params.p_max_w, users)
    rates = model.uplink_rates(params, topo, powers)
    t_trans, _ = model.transmission_cost(topo, rates, powers)
    return sp1.dual_coefficients(params, topo, t_trans), params.weight_time


def sp1_block_value(params: SystemParams, topology: PairedTopology, t_trans, cpu, s_cont) -> float:
    """The sp1 block objective at fixed powers: energy-weighted compute
    energy plus time-weighted deadline minus the linearized accuracy."""
    t_cmp, e_cmp = model.computation_cost(params, topology, s_cont, cpu)
    acc = sp1.linear_accuracy(params, s_cont)
    return float(
        params.weight_energy * np.sum(e_cmp)
        + params.weight_time * np.max(t_trans + t_cmp)
        - params.weight_accuracy * np.sum(acc)
    )


def _reference_bisect_budget(lam_of, beta: float):
    # near-zero accuracy weights drive the bracket below 1e-154, where
    # sqrt(lo * hi) underflows to a zero offset; the clamp loop ran on with
    # an infinite multiplier there and then raised, which the divide
    # warning would otherwise pre-empt under the suite's warning filter
    rel_tol, max_iterations = 1e-10, 600
    with np.errstate(divide="ignore"):
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
                jumpers = lam_of(lo) == math.inf  # a flat term's multiplier
                if deficit > 0.0 and np.any(jumpers):
                    lam = lam.copy()
                    lam[jumpers] += deficit / int(np.count_nonzero(jumpers))
                    return lam
                break
        raise RuntimeError("budget-price bisection did not reach tolerance")


REFERENCE_MAX_CLAMP_PASSES = 60


def reference_sp1(params: SystemParams, topology: PairedTopology, power_w):
    """The clamp-set fixed point that sp1 was solved by before it became
    one budget-price root find, kept as a reference for it.

    Bisects the budget of the unboxed dual, recovers and clamps the primal,
    then re-prices the devices whose resolution left [s1, s3] with the
    pinned-resolution term and re-bisects, until the clamp set repeats or
    REFERENCE_MAX_CLAMP_PASSES passes ran. Returns (block value, cpu,
    continuous resolution, passes) of the best visited set."""
    rates = model.uplink_rates(params, topology, power_w)
    t_trans, _ = model.transmission_cost(topology, rates, power_w)
    coeffs = sp1.dual_coefficients(params, topology, t_trans)
    beta = params.weight_time
    curvature, t_up = coeffs.curvature, coeffs.t_up
    gaps = np.max(t_up) - t_up
    n = t_up.size
    if beta == 0.0:
        lam = np.zeros(n)
    elif np.all(curvature == 0.0):
        top = float(np.max(t_up))
        ties = t_up >= top - 1e-12 * max(abs(top), 1.0)
        lam = np.zeros(n)
        lam[ties] = beta / int(np.count_nonzero(ties))
    else:
        scale = (2.0 * curvature / 3.0) ** 0.6
        lam = _reference_bisect_budget(lambda offset: scale * (offset + gaps) ** -0.6, beta)

    loads = model.load(params, topology)
    ak = params.weight_energy * params.switched_capacitance
    s1, _, s3 = params.resolution_set_px
    f_hi = params.f_max_hz
    lam_hi = 2.0 * ak * f_hi**3
    gamma_slope = params.weight_accuracy * sp1.accuracy_slope(params)
    a_free = 2.0 * curvature / 3.0

    def clamped_split(clamp_state):
        s_bar = np.where(clamp_state < 0, s1, s3)
        a_fixed = 2.0 * (loads * s_bar * s_bar * ak ** (1.0 / 3.0) * sp1._CBRT_MIX) / 3.0
        clamped = clamp_state != 0

        def lam_of(offset):
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
            lam_fix = np.where(lam_fix > lam_hi, math.inf, lam_fix)
            return np.where(clamped, lam_fix, lam_free)

        return _reference_bisect_budget(lam_of, beta)

    best = None
    clamp_state = np.zeros(n, dtype=int)
    for passes in range(1, REFERENCE_MAX_CLAMP_PASSES + 1):
        f_raw, s_unc = sp1.recover_primal(lam, params, topology)
        cpu = sp1.clamp_frequency(params, f_raw)
        s_cont = sp1.clamp_resolution(params, s_unc)
        value = sp1_block_value(params, topology, t_trans, cpu, s_cont)
        if best is None or value < best[0]:
            best = (value, cpu, s_cont)
        desired = np.where(s_unc < s1, -1, np.where(s_unc > s3, 1, 0))
        if beta == 0.0 or np.array_equal(desired, clamp_state):
            break
        clamp_state = desired
        lam = clamped_split(clamp_state)
    return (*best, passes)


def central_diff(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)
