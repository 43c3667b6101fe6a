from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmar import allocator, model, pairing, sp1, sp2
from fedmar.allocator import (
    allocate,
    allocate_best_pairing,
    greedy_baseline,
    random_baseline,
    relaxed_objective,
)
from fedmar.model import SystemParams, UnreachableDeviceError
from fedmar.pairing import PairingScheme, channel_gain
from util import (
    flag_device_zero,
    make_devices,
    reference_greedy_choice,
    reference_pair_minima,
    reference_point_minima,
    small_instance,
    table_instance,
    topology_from_gains,
)


class TestAllocate:
    def test_monotone_trace_and_feasibility(self):
        for seed in (1, 2, 3):
            params, topo = table_instance(seed=seed)
            report = allocate(params, topo)
            assert report.converged and report.feasible
            trace = np.array(report.objective_trace)
            assert np.all(np.diff(trace) <= 1e-9)
            alloc = report.allocation
            assert np.all(alloc.power_w >= params.p_min_w - 1e-15)
            assert np.all(alloc.power_w <= params.p_max_w + 1e-15)
            assert np.all(alloc.cpu_hz >= params.f_min_hz)
            assert np.all(alloc.cpu_hz <= params.f_max_hz)
            assert set(alloc.resolution_px.tolist()) <= {160.0, 320.0, 640.0}
            # every device finishes within the reported deadline
            per_device = report.costs.t_trans_s + report.costs.t_cmp_s
            assert np.all(per_device <= report.costs.total_time_s + 1e-9)

    @pytest.mark.xfail(
        strict=True,
        reason="sp1's dual does not price the f_min box: a device lifted to f_min "
        "finishes early, sp2 lowers its power, and the relaxed objective rises",
    )
    def test_monotone_trace_where_f_min_binds(self):
        for seed in (1, 2, 3, 4, 5):
            params, topo = table_instance(
                seed, weight_energy=0.5, weight_time=0.5, f_min_hz=0.5e9
            )
            trace = np.array(allocate(params, topo).objective_trace)
            assert np.all(np.diff(trace) <= 1e-9)

    def test_no_time_weight_runs_at_f_min_for_any_energy_price(self):
        # with beta = 0 every multiplier is 0, so energy alone prices the
        # frequency and each device runs at the slowest one, however small
        # alpha * kappa is
        params, topo = table_instance(
            1, weight_energy=1.0, weight_time=0.0, switched_capacitance=1e-50
        )
        assert np.all(allocate(params, topo).allocation.cpu_hz == params.f_min_hz)

    def test_iteration_cap_respected(self, monkeypatch):
        # with no time weight the first power solve lowers the powers of the
        # devices with slack, so one iteration cannot be converged yet
        monkeypatch.setattr(allocator, "MAX_OUTER_ITERATIONS", 1)
        params, topo = small_instance(seed=2, weight_energy=1.0, weight_time=0.0)
        report = allocate(params, topo)
        assert len(report.objective_trace) == 1
        assert not report.converged

    def test_gamma_zero_symmetric_pair_floors_resolution(self):
        params = SystemParams(channel_count=1, weight_accuracy=0.0)
        topo = topology_from_gains([1e-11, 1e-11])
        report = allocate(params, topo)
        assert np.all(report.allocation.resolution_px == 160.0)
        # grid oracle over shared (f, p) at the floored resolution: by
        # symmetry the solver may not lose to the best grid point
        f_grid = np.linspace(params.f_min_hz, params.f_max_hz, 400)
        p_grid = np.linspace(params.p_min_w, params.p_max_w, 400)
        cyc = (
            params.local_iterations
            * params.std_sample_scale
            * 160.0**2
            * topo.cycles_per_std_sample
            * topo.sample_count
        )
        best = np.inf
        for p in p_grid:
            rates = model.uplink_rates(params, topo, np.array([p, p]))
            t_tr = topo.upload_bits / rates
            e_tr = p * t_tr
            e_cmp = params.switched_capacitance * cyc[:, None] * f_grid[None, :] ** 2
            t_cmp = cyc[:, None] / f_grid[None, :]
            energy = np.sum(e_tr) + e_cmp[0] + e_cmp[1]
            total_t = np.maximum(t_tr[0] + t_cmp[0], t_tr[1] + t_cmp[1])
            value = params.weight_energy * energy + params.weight_time * total_t
            best = min(best, float(np.min(value)))
        a = report.allocation
        t_cmp, e_cmp = model.computation_cost(params, topo, a.resolution_px, a.cpu_hz)
        got = relaxed_objective(params, topo, a.power_w, a.resolution_px, t_cmp, e_cmp)
        assert got <= best + 1e-3 * abs(best)

    def test_close_to_best_multistart(self):
        # a restart from other powers is one frequency solve and one power
        # solve: the alternation stops there wherever every deadline binds
        params, topo = small_instance(seed=23)
        default = allocate(params, topo)
        rng = np.random.default_rng(99)
        finals = []
        for _ in range(10):
            power = rng.uniform(params.p_min_w, params.p_max_w, 4)
            block1 = sp1.solve_sp1(params, topo, power)
            power, _, _ = sp2.solve_sp2(
                params, topo, block1.cpu_hz, block1.resolution_cont, block1.deadline_s
            )
            finals.append(
                relaxed_objective(
                    params, topo, power, block1.resolution_cont, block1.t_cmp_s, block1.e_cmp_j
                )
            )
        best = min(finals)
        assert default.objective_trace[-1] <= best + 1e-3 * abs(best)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestPasses:
    """``allocate`` keeps one record per pass, and the report's trace,
    convergence and feasibility are read from them."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize(
        "params_kw,fewest,most",
        [
            ({}, 1, 1),
            ({"weight_energy": 1.0, "weight_time": 0.0}, 2, 2),
            ({"f_min_hz": 0.5e9}, 2, 4),
        ],
        ids=["beta-positive", "beta-zero", "f_min-binds"],
    )
    def test_records_replay_the_loop(self, params_kw, fewest, most, seed):
        params, topo = table_instance(seed, **params_kw)
        report = allocate(params, topo)
        passes = report.passes
        assert fewest <= len(passes) <= most
        start = np.full(topo.n_devices, 0.5 * (params.p_min_w + params.p_max_w))
        width = params.p_max_w - params.p_min_w
        for record in passes:
            block = record.frequency_block
            replayed = sp1.solve_sp1(params, topo, start)
            for f in fields(replayed):
                assert _same_bits(getattr(block, f.name), getattr(replayed, f.name)), f.name
            power, flags, _ = sp2.solve_sp2(
                params, topo, block.cpu_hz, block.resolution_cont, block.deadline_s
            )
            assert _same_bits(record.power_w, power)
            assert _same_bits(record.rate_infeasible, flags)
            assert record.moved == float(np.abs(power - start).max()) / width
            start = record.power_w
        assert [r.settled for r in passes] == [False] * (len(passes) - 1) + [True]
        assert report.converged and report.feasible

        last = passes[-1].frequency_block
        assert last.deadline_s == sp1.deadline_of(last.t_trans_s, last.t_cmp_s)
        assert report.objective_trace == [
            relaxed_objective(
                params, topo, r.power_w, r.frequency_block.resolution_cont,
                r.frequency_block.t_cmp_s, r.frequency_block.e_cmp_j,
            )
            for r in passes
        ]
        alloc = report.allocation
        assert _same_bits(alloc.power_w, passes[-1].power_w)
        assert _same_bits(alloc.cpu_hz, last.cpu_hz)
        assert _same_bits(alloc.resolution_px, sp1.round_resolutions(params, last.resolution_cont))

    def test_baselines_carry_no_passes(self):
        params, topo = small_instance(seed=3)
        for report in (random_baseline(params, topo, 3), greedy_baseline(params, topo)):
            assert report.passes == []
            assert (report.objective_trace, report.converged, report.feasible) == ([], True, True)

    def test_a_flag_on_an_earlier_pass_leaves_the_report_feasible(self, monkeypatch):
        # feasibility is the last pass's: a device flagged by the first power
        # solve only is not flagged in the report
        params, topo = table_instance(1, f_min_hz=0.5e9)
        flag_device_zero(monkeypatch, first_call_only=True)
        report = allocate(params, topo)
        assert len(report.passes) >= 2
        assert report.passes[0].rate_infeasible.any()
        assert not report.passes[-1].rate_infeasible.any()
        assert report.feasible


def every_pairing(params, devices, gains):
    return {s: pairing.pair_users(params, devices, gains, s) for s in PairingScheme}


class TestBestPairing:
    def test_identical_devices_tie_to_first_scheme(self):
        params = SystemParams(channel_count=2)
        devices = make_devices([0.2] * 4)
        gains = np.full(4, 1e-11)
        report = allocate_best_pairing(params, every_pairing(params, devices, gains))
        assert report.scheme == PairingScheme.RANDOM
        values = list(report.scheme_objectives.values())
        assert max(values) - min(values) <= 1e-12 * abs(values[0])

    def test_adversarial_spread_prefers_nearest_farthest(self):
        params = SystemParams(channel_count=2)
        distances = [0.01, 0.012, 0.4, 0.42]
        devices = make_devices(distances)
        gains = channel_gain(devices.distance_km, 0.0)
        report = allocate_best_pairing(params, every_pairing(params, devices, gains))
        objs = report.scheme_objectives
        assert len(objs) == 3
        assert objs["nearest-farthest"] <= min(objs.values()) + 1e-15

    def test_records_one_objective_per_scheme(self):
        params, _ = small_instance(seed=4)
        config = pairing.TopologyConfig(user_count=4, channel_count=2, rng_seed=4)
        devices, gains = pairing.sample_topology(config)
        report = allocate_best_pairing(params, every_pairing(params, devices, gains))
        assert set(report.scheme_objectives) == {"random", "nearest", "nearest-farthest"}
        assert report.costs.objective == min(report.scheme_objectives.values())


class TestRandomBaseline:
    def test_reproducible_and_in_bounds(self):
        params, topo = table_instance(seed=19)
        a = random_baseline(params, topo, seed=7)
        b = random_baseline(params, topo, seed=7)
        assert np.array_equal(a.allocation.power_w, b.allocation.power_w)
        assert np.array_equal(a.allocation.cpu_hz, b.allocation.cpu_hz)
        c = random_baseline(params, topo, seed=8)
        assert not np.array_equal(a.allocation.power_w, c.allocation.power_w)
        assert np.all(a.allocation.power_w >= params.p_min_w)
        assert np.all(a.allocation.power_w <= params.p_max_w)
        assert np.all(a.allocation.cpu_hz >= params.f_min_hz)
        assert np.all(a.allocation.cpu_hz <= params.f_max_hz)
        assert np.all(a.allocation.resolution_px == 160.0)


@st.composite
def bound_cells(draw):
    """Small cells for the greedy bounds: 1 kHz to 50 MHz channels, a zero
    or positive power floor, and energy weights down to 0."""
    channels = draw(st.integers(1, 8))
    alpha = draw(st.sampled_from([1.0, 0.999, 0.5, 0.001, 0.0]))
    return small_instance(
        draw(st.integers(0, 10_000)),
        users=2 * channels,
        weight_energy=alpha,
        weight_time=1.0 - alpha,
        p_min_w=0.0 if draw(st.booleans()) else model.dbm_to_watts(0.0),
        p_max_w=model.dbm_to_watts(draw(st.floats(0.5, 30.0))),
        f_max_hz=draw(st.floats(0.01, 4.0)) * 1e9,
        total_bandwidth_hz=draw(st.floats(1.0, 50_000.0)) * 1e3 * channels,
    )


def _greedy_at_chunk(chunk, params, topo):
    """``greedy_baseline`` with GREEDY_CHUNK set to ``chunk`` (None keeps
    the shipped value); a context, not the monkeypatch fixture, since
    hypothesis runs many examples per test."""
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(allocator, "GREEDY_CHUNK", chunk)
        return greedy_baseline(params, topo)


class TestGreedyBaseline:
    def test_grid_endpoints(self):
        grid = allocator._grid(1e-3, 0.0158)
        assert len(grid) == 11
        assert grid[0] == 1e-3
        assert grid[-1] == pytest.approx(0.0158, rel=1e-12)

    def test_single_channel_matches_nested_loop_search(self):
        params = SystemParams(channel_count=1, weight_energy=0.6, weight_time=0.4)
        topo = topology_from_gains([3e-12, 5e-11], cycles=[1.3e4, 2.4e4])
        report = greedy_baseline(params, topo)

        # independent re-implementation: plain nested loops over the grids
        p_grid = [params.p_min_w + 0.1 * i * (params.p_max_w - params.p_min_w) for i in range(11)]
        f_grid = [params.f_min_hz + 0.1 * i * (params.f_max_hz - params.f_min_hz) for i in range(11)]
        dev_a, dev_b = topo.devices()
        gain_a, gain_b = topo.gains
        bandwidth = params.subchannel_bandwidth_hz
        noise = bandwidth * params.noise_psd_w_per_hz
        s = 160.0
        best = (np.inf, None)
        import math

        for fa in f_grid:
            for fb in f_grid:
                for pa in p_grid:
                    for pb in p_grid:
                        ra = bandwidth * math.log2(1 + pa * gain_a / noise)
                        rb = bandwidth * math.log2(1 + pb * gain_b / (noise + pa * gain_a))
                        ta, tb = dev_a.upload_bits / ra, dev_b.upload_bits / rb
                        cyc_a = (
                            params.local_iterations
                            * params.std_sample_scale
                            * s * s
                            * dev_a.cycles_per_std_sample
                            * dev_a.sample_count
                        )
                        cyc_b = (
                            params.local_iterations
                            * params.std_sample_scale
                            * s * s
                            * dev_b.cycles_per_std_sample
                            * dev_b.sample_count
                        )
                        energy = (
                            pa * ta
                            + pb * tb
                            + params.switched_capacitance * (cyc_a * fa * fa + cyc_b * fb * fb)
                        )
                        chan_t = max(ta + cyc_a / fa, tb + cyc_b / fb)
                        cost = params.weight_energy * energy + params.weight_time * chan_t
                        if cost < best[0]:
                            best = (cost, (fa, fb, pa, pb))
        fa, fb, pa, pb = best[1]
        assert report.allocation.cpu_hz[0] == pytest.approx(fa, rel=1e-12)
        assert report.allocation.cpu_hz[1] == pytest.approx(fb, rel=1e-12)
        assert report.allocation.power_w[0] == pytest.approx(pa, rel=1e-12)
        assert report.allocation.power_w[1] == pytest.approx(pb, rel=1e-12)

    def test_uses_lowest_resolution(self):
        params, topo = table_instance(seed=20)
        report = greedy_baseline(params, topo)
        assert np.all(report.allocation.resolution_px == 160.0)
        assert np.all(report.allocation.power_w >= params.p_min_w)
        assert np.all(report.allocation.power_w <= params.p_max_w)

    @settings(max_examples=80, deadline=None)
    @given(
        channels=st.integers(1, 13),
        seed=st.integers(0, 10_000),
        alpha=st.sampled_from([1.0, 0.999, 0.5, 0.001]),
        p_max_dbm=st.floats(0.5, 30.0),
        f_max_ghz=st.floats(0.01, 4.0),
        bandwidth_mhz=st.floats(0.5, 50.0),
    )
    @pytest.mark.parametrize("chunk", [4, None])
    def test_chunked_kernel_matches_per_channel_reference(
        self, chunk, channels, seed, alpha, p_max_dbm, f_max_ghz, bandwidth_mhz
    ):
        # at 4 channels a chunk, up to 13 channels make full and partial
        # chunks; None keeps the shipped chunk size
        params, topo = small_instance(
            seed,
            users=2 * channels,
            weight_energy=alpha,
            weight_time=1.0 - alpha,
            p_max_w=model.dbm_to_watts(p_max_dbm),
            f_max_hz=f_max_ghz * 1e9,
            total_bandwidth_hz=bandwidth_mhz * 1e6,
        )
        power, cpu = reference_greedy_choice(params, topo)
        report = _greedy_at_chunk(chunk, params, topo)
        assert np.array_equal(report.allocation.power_w, power)
        assert np.array_equal(report.allocation.cpu_hz, cpu)

    @pytest.mark.parametrize("alpha,beta", [(0.5, 0.5), (1.0, 0.0), (0.0, 1.0)])
    def test_zero_power_floor_is_never_picked(self, alpha, beta):
        # at p = 0 the rate is 0: such grid points cost +inf whatever the weights
        params, topo = table_instance(
            seed=4, p_min_w=0.0, weight_energy=alpha, weight_time=beta
        )
        report = greedy_baseline(params, topo)
        assert np.all(report.allocation.power_w > 0.0)
        assert np.isfinite(report.costs.objective)

    @settings(max_examples=40, deadline=None)
    @given(
        channels=st.integers(1, 140),
        seed=st.integers(0, 10_000),
        alpha=st.sampled_from([1.0, 0.999, 0.5, 0.001]),
        p_max_dbm=st.floats(0.5, 30.0),
        f_max_ghz=st.floats(0.01, 4.0),
        channel_khz=st.floats(1.0, 20.0),
    )
    @pytest.mark.parametrize("chunk", [32, None])
    def test_pruned_kernel_matches_reference_on_narrow_channels(
        self, chunk, channels, seed, alpha, p_max_dbm, f_max_ghz, channel_khz
    ):
        # a few kHz per channel, like a 10,000-device cell, where most power
        # pairs are pruned; at 32 channels a chunk, up to 140 channels make
        # four full chunks and a partial one; None keeps the shipped size
        params, topo = small_instance(
            seed,
            users=2 * channels,
            weight_energy=alpha,
            weight_time=1.0 - alpha,
            p_max_w=model.dbm_to_watts(p_max_dbm),
            f_max_hz=f_max_ghz * 1e9,
            total_bandwidth_hz=channel_khz * 1e3 * channels,
        )
        power, cpu = reference_greedy_choice(params, topo)
        report = _greedy_at_chunk(chunk, params, topo)
        assert np.array_equal(report.allocation.power_w, power)
        assert np.array_equal(report.allocation.cpu_hz, cpu)

    @pytest.mark.parametrize("alpha", [1.0, 0.5])
    @pytest.mark.parametrize("bits", [28.1e3, 1e-20])
    @pytest.mark.parametrize("channel_khz", [4.0, 800.0])
    def test_tie_heavy_cells_match_reference(self, alpha, bits, channel_khz):
        # identical pair members; alpha = 1 makes beta = 0, so the bound is
        # exact at f_min; 1e-20 bits is too little upload to move any sum, so
        # all 121 power pairs tie at the minimum and the first must win
        channels = 70
        params = SystemParams(
            channel_count=channels,
            weight_energy=alpha,
            weight_time=1.0 - alpha,
            total_bandwidth_hz=channel_khz * 1e3 * channels,
        )
        rng = np.random.default_rng(5)
        gains, cycles = np.empty(2 * channels), np.empty(2 * channels)
        for k in range(channels):
            gains[2 * k : 2 * k + 2] = rng.uniform(1e-12, 1e-9)
            cycles[2 * k : 2 * k + 2] = rng.uniform(1e4, 3e4)
        topo = topology_from_gains(gains, cycles=cycles, bits=bits)
        power, cpu = reference_greedy_choice(params, topo)
        report = greedy_baseline(params, topo)
        assert np.array_equal(report.allocation.power_w, power)
        assert np.array_equal(report.allocation.cpu_hz, cpu)
        if bits < 1.0:
            assert np.all(report.allocation.power_w == params.p_min_w)

    def test_pruned_kernel_matches_reference_on_2000_device_cell(self):
        params, topo = small_instance(seed=3, users=2000)
        power, cpu = reference_greedy_choice(params, topo)
        report = greedy_baseline(params, topo)
        assert np.array_equal(report.allocation.power_w, power)
        assert np.array_equal(report.allocation.cpu_hz, cpu)

    def test_split_bound_prunes_on_4000_device_cell_with_zero_power_floor(self, monkeypatch):
        # 10 kHz subchannels, where the power bound keeps about 20 of 121
        # pairs per channel and the split bound a small share of those;
        # p_min = 0 leaves each channel's zero-power pairs +inf
        params, topo = small_instance(seed=5, users=4000, p_min_w=0.0)
        calls = []
        kernel = allocator._grid_reduce

        def counted(pairs, terms, buffers):
            calls.append(pairs)
            return kernel(pairs, terms, buffers)

        monkeypatch.setattr(allocator, "_grid_reduce", counted)
        power, cpu = reference_greedy_choice(params, topo)
        report = greedy_baseline(params, topo)
        assert np.array_equal(report.allocation.power_w, power)
        assert np.array_equal(report.allocation.cpu_hz, cpu)
        # per chunk: the incumbents, then the split bound's survivors
        chunks = -(-topo.n_channels // allocator.GREEDY_CHUNK)
        assert len(calls) == 2 * chunks
        # the pairs the power bound keeps, the incumbents left out
        bound, _ = allocator._pair_terms(params, topo, 0, topo.n_channels)
        kept = 0
        for incumbents, survivors in zip(*[iter(calls)] * 2):
            # each pair's grid is evaluated at most once, an incumbent's in
            # the incumbent pass
            assert len(np.unique(survivors)) == len(survivors)
            assert not np.isin(incumbents, survivors).any()
            kept += len(survivors)
        ceiling = reference_pair_minima(params, topo)[np.arange(len(bound)), bound.argmin(axis=1)]
        checked = np.count_nonzero(bound <= ceiling[:, None]) - len(bound)
        assert kept < 0.15 * checked

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_dead_channel_on_the_pair_path_ties_every_pair(self, monkeypatch, alpha):
        # on 10 kHz subchannels the chunk takes the pair path; gains of 1e-40
        # leave every rate of a channel zero (1e-30 still gives a positive
        # rate at this noise floor), so its incumbent is +inf, its other 120
        # pairs all survive to the survivor pass and tie with it at +inf,
        # and evaluate must then refuse the pick, as the full search does
        channels, dead = 40, 7
        params, topo = small_instance(
            seed=4,
            users=2 * channels,
            weight_energy=alpha,
            weight_time=1.0 - alpha,
            total_bandwidth_hz=10e3 * channels,
        )
        gains = topo.gains.copy()
        gains[2 * dead : 2 * dead + 2] = 1e-40
        topo = topology_from_gains(gains, cycles=topo.cycles_per_std_sample)
        calls = []
        kernel = allocator._grid_reduce

        def counted(pairs, terms, buffers):
            calls.append(pairs)
            return kernel(pairs, terms, buffers)

        monkeypatch.setattr(allocator, "_grid_reduce", counted)
        with pytest.raises(UnreachableDeviceError, match=rf"^device {2 * dead} has zero uplink rate"):
            greedy_baseline(params, topo)
        # one chunk: the incumbents, then the split bound's survivors
        assert len(calls) == 2
        survivors = calls[1]
        assert np.count_nonzero(survivors // 121 == dead) == 120

    def test_dead_channel_on_the_frequency_path_keeps_every_point(self, monkeypatch):
        # the frequency-path twin of the test above: on 500 kHz subchannels
        # the chunk takes the frequency path, the dead channel's ceiling is
        # +inf, so its frequency bound keeps all 121 points, which tie with
        # the incumbent at +inf in the shared pick
        channels, dead = 40, 7
        params, topo = small_instance(
            seed=4, users=2 * channels, total_bandwidth_hz=500e3 * channels
        )
        gains = topo.gains.copy()
        gains[2 * dead : 2 * dead + 2] = 1e-40
        topo = topology_from_gains(gains, cycles=topo.cycles_per_std_sample)
        calls = []
        kernel = allocator._frequency_reduce

        def counted(points, terms, buffers):
            calls.append(points)
            return kernel(points, terms, buffers)

        monkeypatch.setattr(allocator, "_frequency_reduce", counted)
        with pytest.raises(UnreachableDeviceError, match=rf"^device {2 * dead} has zero uplink rate"):
            greedy_baseline(params, topo)
        [points] = calls
        assert np.array_equal(points[points // 121 == dead], dead * 121 + np.arange(121))

    @pytest.mark.parametrize("channel_khz", [10.0, 500.0])
    def test_chunks_with_and_without_zero_rates_match_reference(self, monkeypatch, channel_khz):
        # one channel's gain leaves 1 + SNR == 1 at the lowest grid power
        # only: its pairs with a member at p_min have rate 0, the others a
        # positive one, so its pick stays finite; at 8 channels a chunk the
        # other chunks of the call have no zero rate. 10 kHz channels take
        # the pair path, 500 kHz ones the frequency path
        channels, weak, chunk = 40, 13, 8
        params, topo = small_instance(
            seed=6, users=2 * channels, total_bandwidth_hz=channel_khz * 1e3 * channels
        )
        gains = topo.gains.copy()
        gains[2 * weak : 2 * weak + 2] = 2.0**-54 * params.subchannel_noise_w / params.p_min_w
        topo = topology_from_gains(gains, cycles=topo.cycles_per_std_sample)
        monkeypatch.setattr(allocator, "GREEDY_CHUNK", chunk)
        power, cpu = reference_greedy_choice(params, topo)
        report = greedy_baseline(params, topo)
        assert np.array_equal(report.allocation.power_w, power)
        assert np.array_equal(report.allocation.cpu_hz, cpu)
        assert np.isfinite(report.costs.objective)
        lost = np.isinf(reference_pair_minima(params, topo))
        assert 0 < np.count_nonzero(lost[weak]) < 121
        for lo in range(0, channels, chunk):
            *_, unreachable = allocator._pair_terms(params, topo, lo, lo + chunk)[1]
            if lo <= weak < lo + chunk:
                assert np.array_equal(unreachable, lost[lo : lo + chunk].ravel())
            else:
                # no zero rate, so no mask to build or apply
                assert unreachable is None

    @settings(max_examples=60, deadline=None)
    @given(cell=bound_cells())
    def test_lower_bound_never_exceeds_exact_grid_minimum(self, cell):
        params, topo = cell
        bound, _ = allocator._pair_terms(params, topo, 0, topo.n_channels)
        minima = reference_pair_minima(params, topo)
        assert np.all(bound <= minima)
        assert np.array_equal(np.isinf(bound), np.isinf(minima))

    @settings(max_examples=60, deadline=None)
    @given(cell=bound_cells())
    def test_split_bound_never_exceeds_exact_grid_minimum(self, cell):
        params, topo = cell
        power_bound, terms = allocator._pair_terms(params, topo, 0, topo.n_channels)
        # margin applied; at every pair, unreachable ones included
        bound = allocator._split_bound(np.arange(power_bound.size), terms)
        bound = bound.reshape(power_bound.shape)
        minima = reference_pair_minima(params, topo)
        assert not np.any(np.isnan(bound))
        reachable = np.isfinite(minima)
        assert np.all(bound[reachable] <= minima[reachable])

    @settings(max_examples=60, deadline=None)
    @given(cell=bound_cells())
    def test_frequency_bound_never_exceeds_exact_cost(self, cell):
        params, topo = cell
        _, terms = allocator._pair_terms(params, topo, 0, topo.n_channels)
        bound = allocator._frequency_bound(terms)
        # the least exact cost over the reachable power pairs at each
        # (f_a, f_b), +inf where there is none
        assert np.all(np.isfinite(bound))
        assert np.all(bound <= reference_point_minima(params, topo))


class TestGreedyFrequencyAxis:
    """On wide subchannels the power bound keeps nearly every pair, and the
    kernel evaluates the few frequency points the frequency bound keeps."""

    @pytest.fixture
    def frequency_chunks(self, monkeypatch):
        calls = []
        kernel = allocator._frequency_reduce

        def counted(points, terms, buffers):
            calls.append(len(points))
            return kernel(points, terms, buffers)

        monkeypatch.setattr(allocator, "_frequency_reduce", counted)
        return calls

    @pytest.mark.parametrize("p_max_dbm", [6.0, 12.0])
    @pytest.mark.parametrize(
        "alpha,beta,along_frequency",
        # at 1/0 and 0.001/0.999 the power bound keeps 1 and about 12 of 121
        # pairs per channel, and the chunk stays on the power axis
        [(0.5, 0.5, True), (0.9, 0.1, True), (1.0, 0.0, False), (0.001, 0.999, False)],
    )
    @pytest.mark.parametrize("scheme", list(PairingScheme))
    def test_matches_reference_on_paper_cells(
        self, frequency_chunks, scheme, alpha, beta, along_frequency, p_max_dbm
    ):
        params = SystemParams(
            weight_energy=alpha, weight_time=beta, p_max_w=model.dbm_to_watts(p_max_dbm)
        )
        devices, gains = pairing.sample_topology(pairing.TopologyConfig(rng_seed=11))
        topo = pairing.pair_users(params, devices, gains, scheme, rng_seed=11)
        power, cpu = reference_greedy_choice(params, topo)
        report = greedy_baseline(params, topo)
        assert np.array_equal(report.allocation.power_w, power)
        assert np.array_equal(report.allocation.cpu_hz, cpu)
        assert bool(frequency_chunks) == along_frequency

    @pytest.mark.parametrize("seed", [4, 9])
    def test_time_only_ties_match_reference(self, frequency_chunks, seed):
        # with no energy weight, the frequency of a channel's faster member
        # moves no cost until it becomes the slower one, so many (f_a, f_b)
        # points tie at the minimum; a negligible upload ties all 121 power
        # pairs too, which sends the chunk along the frequency axis
        params, topo = table_instance(seed=seed, weight_energy=0.0, weight_time=1.0)
        topo = topology_from_gains(topo.gains, cycles=topo.cycles_per_std_sample, bits=1e-20)
        power, cpu = reference_greedy_choice(params, topo)
        report = greedy_baseline(params, topo)
        assert np.array_equal(report.allocation.power_w, power)
        assert np.array_equal(report.allocation.cpu_hz, cpu)
        assert frequency_chunks

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_channel_with_no_reachable_pair_keeps_its_candidates(self, frequency_chunks, alpha):
        # with +inf transmission minima, the frequency bound of the dead
        # channel would be 0 * inf = NaN at alpha = 0 or 1 and drop all its
        # points; they must stay, and evaluate must then refuse the pick, as
        # the full search does. An upload too small to move any sum ties
        # all 121 power pairs, so the chunk goes along the frequency axis at
        # every alpha.
        params, topo = table_instance(seed=4, weight_energy=alpha, weight_time=1.0 - alpha)
        dead = 7
        gains = topo.gains.copy()
        gains[2 * dead : 2 * dead + 2] = 1e-30
        topo = topology_from_gains(gains, cycles=topo.cycles_per_std_sample, bits=1e-20)
        with pytest.raises(UnreachableDeviceError, match=rf"^device {2 * dead} has zero uplink rate"):
            greedy_baseline(params, topo)
        assert frequency_chunks


def test_relaxed_objective_uses_linear_accuracy():
    params, topo = small_instance(seed=5)
    n = topo.n_devices
    p = np.full(n, 5e-3)
    f = np.full(n, 1e9)
    s = np.full(n, 400.0)
    from fedmar.sp1 import linear_accuracy

    value = relaxed_objective(params, topo, p, s, *model.computation_cost(params, topo, s, f))
    costs = model.evaluate(params, topo, model.Allocation(p, f, s))
    expected = (
        params.weight_energy * costs.total_energy_j
        + params.weight_time * costs.total_time_s
        - params.weight_accuracy * float(np.sum(linear_accuracy(params, s)))
    )
    assert value == pytest.approx(expected, rel=1e-12)


def test_one_pass_takes_each_cost_term_once(monkeypatch):
    # sp1 costs its powers' uploads and its own computation once and hands
    # the computation costs on to the relaxed objective; sp2 keeps its
    # signature and costs the computation itself; the report costs the
    # rounded allocation in model.evaluate
    params, topo = table_instance(seed=3)
    calls = []
    for name in ("uplink_rates", "computation_cost"):
        original = getattr(model, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(model, name, counted)
    report = allocate(params, topo)
    assert params.weight_time > 0 and len(report.objective_trace) == 1
    assert calls == [
        "uplink_rates", "computation_cost",  # sp1
        "computation_cost",  # sp2
        "uplink_rates",  # relaxed objective at sp2's powers
        "uplink_rates", "computation_cost",  # model.evaluate
    ]


class TestPowerFixedPoint:
    """sp1 prices every device's deadline, so every device finishes at its
    deadline T; sp2 at T then needs at most the powers sp1 was solved at.
    This is the fixed point ``allocate``'s power-only stopping rule meets
    after one iteration wherever the time weight is positive and no device
    is held at f_min: sp1's dual does not price that box, so a device lifted
    to f_min finishes before T and sp2 lowers its power."""

    @settings(max_examples=150, deadline=None)
    @given(
        channels=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        alpha=st.sampled_from([1.0, 0.999, 0.9, 0.5, 0.1, 0.001]),
        gamma=st.sampled_from([0.0, 0.05, 0.5, 1.0, 2.0, 10.0]),
        f_max_ghz=st.floats(0.05, 4.0),
        power_seed=st.integers(0, 2**32 - 1),
    )
    def test_power_solve_hands_back_the_powers_it_was_priced_at(
        self, channels, seed, alpha, gamma, f_max_ghz, power_seed
    ):
        params, topo = small_instance(
            seed,
            users=2 * channels,
            weight_energy=alpha,
            weight_time=1.0 - alpha,
            weight_accuracy=gamma,
            f_max_hz=f_max_ghz * 1e9,
        )
        rng = np.random.default_rng(power_seed)
        power = rng.uniform(params.p_min_w, params.p_max_w, topo.n_devices)
        block1 = sp1.solve_sp1(params, topo, power)
        power_new, flags, _ = sp2.solve_sp2(
            params, topo, block1.cpu_hz, block1.resolution_cont, block1.deadline_s
        )
        assert not flags.any()
        # sp2 aims each upload at T - t_cmp, which cancels to a few ulps of T
        # where computation dwarfs the upload (f at f_min when beta = 0); at
        # spectral efficiency x = rate / B the power moves x ln2 2**x / (2**x - 1)
        # times that relative error
        x = model.uplink_rates(params, topo, power) / params.subchannel_bandwidth_hz
        roundoff = 4.0 * np.spacing(block1.deadline_s) / block1.t_trans_s
        tolerance = 1e-8 + x * np.log(2.0) / -np.expm1(-x * np.log(2.0)) * roundoff
        assert np.all(power_new <= power * (1.0 + tolerance))
        if params.weight_time > 0.0:
            assert np.all(np.abs(power_new - power) <= tolerance * power)

    def test_fixed_point_where_the_budget_lands_on_a_plateau(self):
        # the test above found this: device 5 runs f_max and s3, finishing
        # exactly at T = 1.5427 s, for multipliers from about 0.0054 to 0.1;
        # its s3 cube rounds past lam_f_max, which must not make it a flat
        # term that takes the budget's remainder, recovers s1, finishes at
        # 0.097 s, and has sp2 lower its power to p_min
        params, topo = small_instance(
            207, users=10, weight_energy=0.001, weight_time=0.999,
            weight_accuracy=0.5, f_max_hz=3e9,
        )
        power = np.random.default_rng(0).uniform(params.p_min_w, params.p_max_w, topo.n_devices)
        block1 = sp1.solve_sp1(params, topo, power)
        power_new, _, _ = sp2.solve_sp2(
            params, topo, block1.cpu_hz, block1.resolution_cont, block1.deadline_s
        )
        assert np.allclose(power_new, power, rtol=1e-8, atol=0.0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        alpha=st.sampled_from([1.0, 0.9, 0.5, 0.2, 0.001]),
        gamma=st.sampled_from([0.0, 0.05, 1.0, 10.0]),
    )
    def test_one_iteration_with_a_time_weight_two_without(self, seed, alpha, gamma):
        params, topo = table_instance(
            seed, weight_energy=alpha, weight_time=1.0 - alpha, weight_accuracy=gamma
        )
        report = allocate(params, topo)
        assert report.converged and report.feasible
        trace = report.objective_trace
        if params.weight_time > 0.0:
            assert len(trace) == 1
        else:
            assert len(trace) == 2
            assert trace[1] <= trace[0]
