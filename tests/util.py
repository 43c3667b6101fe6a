"""Shared test helpers: fixture builders, independent oracles, numerics."""

from __future__ import annotations

import math

import numpy as np

from fedmar import model, pairing, sp1
from fedmar.model import ChannelPair, Device, PairedTopology, SystemParams

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


def topology_from_gains(
    params: SystemParams, gains, cycles=None, distances=None
) -> PairedTopology:
    """Consecutive devices form a pair; each gain pair must be ascending."""
    n = len(gains)
    cycles = cycles if cycles is not None else [2e4] * n
    distances = distances if distances is not None else [0.2] * n
    channels = []
    for k in range(n // 2):
        a = make_device(2 * k, distance_km=distances[2 * k], cycles=cycles[2 * k])
        b = make_device(2 * k + 1, distance_km=distances[2 * k + 1], cycles=cycles[2 * k + 1])
        channels.append(
            ChannelPair(
                channel_index=k,
                bandwidth_hz=params.subchannel_bandwidth_hz,
                members=((a, float(gains[2 * k])), (b, float(gains[2 * k + 1]))),
            )
        )
    return PairedTopology(channels=tuple(channels))


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


def reference_costs(params: SystemParams, topo: PairedTopology, power_w, cpu_hz, resolution_px):
    """Independent per-device scalar evaluation: walks every channel's
    members with ``math`` and returns rate, upload time, upload energy,
    computation time, computation energy and accuracy per device,
    channel-major, plus the objective."""
    per_device = []
    i = 0
    for pair in topo.channels:
        noise = pair.bandwidth_hz * params.noise_psd_w_per_hz
        interference = 0.0
        for dev, gain in pair.members:
            p, f, s = float(power_w[i]), float(cpu_hz[i]), float(resolution_px[i])
            rate = pair.bandwidth_hz * math.log2(1 + p * gain / (noise + interference))
            interference += p * gain
            t_tr = dev.upload_bits / rate
            cycles = (
                params.local_iterations
                * params.std_sample_scale
                * s**2
                * dev.cycles_per_std_sample
                * dev.sample_count
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
            i += 1
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
    full 11^4 grid, in the same floating-point operations. Returns the power
    and CPU-frequency vectors, channel-major."""
    p_grid = params.p_min_w + 0.1 * np.arange(11) * (params.p_max_w - params.p_min_w)
    f_grid = params.f_min_hz + 0.1 * np.arange(11) * (params.f_max_hz - params.f_min_hz)
    s_low = params.resolution_set_px[0]
    alpha, beta = params.weight_energy, params.weight_time
    gains, bits = topology.gains, topology.upload_bits
    # grid axis first: (f, device)
    t_cmp, e_cmp = model.computation_cost(params, topology, s_low, f_grid[:, None])

    n = topology.n_devices
    power = np.empty(n)
    cpu = np.empty(n)
    for k, bandwidth in enumerate(topology.bandwidth_hz):
        a, b = 2 * k, 2 * k + 1
        # axes: (p_a, p_b)
        rates = model._pair_rates(
            params, bandwidth, gains[a], gains[b], p_grid[:, None], p_grid[None, :]
        )
        with np.errstate(divide="ignore"):
            t_tr = np.where(rates > 0.0, bits[a:b + 1, None, None] / rates, np.inf)
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
        cost = alpha * energy + beta * chan_time
        fa, fb, pa, pb = np.unravel_index(int(np.argmin(cost)), cost.shape)
        cpu[a], cpu[b] = f_grid[fa], f_grid[fb]
        power[a], power[b] = p_grid[pa], p_grid[pb]
    return power, cpu


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
    coeffs = sp1.DualCoefficients(
        curvature=curvature, t_up=t_up, constant=np.zeros(n), slope=slope
    )
    return coeffs, beta


def central_diff(fn, x: float, h: float) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)
