import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmar import allocator, model, pairing
from fedmar.allocator import (
    SolveConfig,
    allocate,
    allocate_best_pairing,
    greedy_baseline,
    random_baseline,
    relaxed_objective,
)
from fedmar.model import SystemParams
from fedmar.pairing import PairingScheme, channel_gain
from util import (
    make_device,
    reference_greedy_choice,
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
            assert np.all(per_device <= alloc.deadline_s + 1e-9)

    def test_huge_tolerance_stops_after_one_iteration(self):
        params, topo = small_instance(seed=1)
        report = allocate(params, topo, SolveConfig(outer_tolerance=1e9))
        assert len(report.objective_trace) == 1
        assert report.converged

    def test_iteration_cap_respected(self):
        # the first iteration moves far from the midpoint start, so one
        # iteration at the default tolerance cannot be converged yet
        params, topo = small_instance(seed=2)
        report = allocate(params, topo, SolveConfig(max_outer_iterations=1))
        assert len(report.objective_trace) == 1
        assert not report.converged

    def test_gamma_zero_symmetric_pair_floors_resolution(self):
        params = SystemParams(channel_count=1, weight_accuracy=0.0)
        topo = topology_from_gains(params, [1e-11, 1e-11])
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
        got = relaxed_objective(
            params,
            topo,
            report.allocation.power_w,
            report.allocation.cpu_hz,
            report.allocation.resolution_px,
        )
        assert got <= best + 1e-3 * abs(best)

    def test_close_to_best_multistart(self):
        params, topo = small_instance(seed=23)
        default = allocate(params, topo)
        rng = np.random.default_rng(99)
        finals = []
        for _ in range(10):
            init = (
                rng.uniform(params.p_min_w, params.p_max_w, 4),
                rng.uniform(params.f_min_hz, params.f_max_hz, 4),
                rng.uniform(160.0, 640.0, 4),
            )
            restart = allocate(params, topo, SolveConfig(initial=init))
            finals.append(restart.objective_trace[-1])
        best = min(finals)
        assert default.objective_trace[-1] <= best + 1e-3 * abs(best)


class TestBestPairing:
    def test_identical_devices_tie_to_first_scheme(self):
        params = SystemParams(channel_count=2)
        devices = [make_device(i, distance_km=0.2) for i in range(4)]
        gains = np.full(4, 1e-11)
        report = allocate_best_pairing(params, devices, gains)
        assert report.scheme == PairingScheme.RANDOM
        values = list(report.scheme_objectives.values())
        assert max(values) - min(values) <= 1e-12 * abs(values[0])

    def test_adversarial_spread_prefers_nearest_farthest(self):
        params = SystemParams(channel_count=2)
        distances = [0.01, 0.012, 0.4, 0.42]
        devices = [make_device(i, distance_km=d) for i, d in enumerate(distances)]
        gains = np.array([channel_gain(d, 0.0) for d in distances])
        report = allocate_best_pairing(params, devices, gains)
        objs = report.scheme_objectives
        assert len(objs) == 3
        assert objs["nearest-farthest"] <= min(objs.values()) + 1e-15

    def test_records_one_objective_per_scheme(self):
        params, _ = small_instance(seed=4)
        config = pairing.TopologyConfig(user_count=4, channel_count=2, rng_seed=4)
        devices, gains = pairing.sample_topology(config)
        report = allocate_best_pairing(params, devices, gains)
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


class TestGreedyBaseline:
    def test_grid_endpoints(self):
        grid = allocator._grid(1e-3, 0.0158)
        assert len(grid) == 11
        assert grid[0] == 1e-3
        assert grid[-1] == pytest.approx(0.0158, rel=1e-12)

    def test_single_channel_matches_nested_loop_search(self):
        params = SystemParams(channel_count=1, weight_energy=0.6, weight_time=0.4)
        topo = topology_from_gains(params, [3e-12, 5e-11], cycles=[1.3e4, 2.4e4])
        report = greedy_baseline(params, topo)

        # independent re-implementation: plain nested loops over the grids
        p_grid = [params.p_min_w + 0.1 * i * (params.p_max_w - params.p_min_w) for i in range(11)]
        f_grid = [params.f_min_hz + 0.1 * i * (params.f_max_hz - params.f_min_hz) for i in range(11)]
        (dev_a, gain_a), (dev_b, gain_b) = topo.channels[0].members
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
    def test_chunked_kernel_matches_per_channel_reference(
        self, channels, seed, alpha, p_max_dbm, f_max_ghz, bandwidth_mhz
    ):
        # channel counts around and across the chunk size exercise partial chunks
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
        report = greedy_baseline(params, topo)
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


def test_relaxed_objective_uses_linear_accuracy():
    params, topo = small_instance(seed=5)
    n = topo.n_devices
    p = np.full(n, 5e-3)
    f = np.full(n, 1e9)
    s = np.full(n, 400.0)
    from fedmar.sp1 import linear_accuracy

    value = relaxed_objective(params, topo, p, f, s)
    costs = model.evaluate(params, topo, model.Allocation(p, f, s))
    expected = (
        params.weight_energy * costs.total_energy_j
        + params.weight_time * costs.total_time_s
        - params.weight_accuracy * float(np.sum(linear_accuracy(params, s)))
    )
    assert value == pytest.approx(expected, rel=1e-12)
