import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmar import model
from fedmar.model import SystemParams
from fedmar.sp2 import (
    DeadlineInfeasibleError,
    RatioProblem,
    Stage,
    channel_rate,
    min_rate,
    solve_ratio_stage,
    solve_sp2,
)
from util import table_instance, topology_from_gains

P_MAX_12DBM = 0.015848931924611134


def single_channel_problem(
    noise_floor=1e-9, bits=28.1e3, r_min=1e3, alpha=0.5, p_min=1e-3, p_max=P_MAX_12DBM
):
    return RatioProblem(
        stage=Stage.FIRST,
        bandwidth_hz=0.8e6,
        upload_bits=np.array([bits]),
        noise_floor_w=np.array([noise_floor]),
        min_rate_bps=np.array([r_min]),
        p_min_w=p_min,
        p_max_w=p_max,
        weight_energy=alpha,
    )


class TestMinRate:
    def test_algebraic_inversion(self):
        # deadline worth exactly t_cmp + bits/rate demands that rate back
        rate = 2.5e6
        bits = 28.1e3
        t_cmp = 0.4
        assert min_rate(bits, t_cmp + bits / rate, t_cmp) == pytest.approx(rate, rel=1e-12)

    def test_vanishes_for_long_deadlines(self):
        assert min_rate(28.1e3, 1e9, 0.1) == pytest.approx(0.0, abs=1e-3)

    def test_resolution_aware_computation_time(self):
        params = SystemParams()
        dev_cycles = 2e4
        t_cmp = (
            params.local_iterations
            * params.std_sample_scale
            * 160.0**2
            * dev_cycles
            * 500.0
            / 1e9
        )
        expected = 28.1e3 / (0.5 - t_cmp)
        assert min_rate(28.1e3, 0.5, t_cmp) == pytest.approx(expected, rel=1e-12)

    def test_deadline_inside_computation_rejected(self):
        with pytest.raises(DeadlineInfeasibleError):
            min_rate(28.1e3, 0.3, 0.4)

    def test_arrays_match_scalars_and_any_short_slack_rejects(self):
        bits = np.array([28.1e3, 14e3, 50e3])
        t_cmp = np.array([0.1, 0.25, 0.4])
        got = min_rate(bits, 0.5, t_cmp)
        assert got.tolist() == [min_rate(b, 0.5, t) for b, t in zip(bits, t_cmp)]
        with pytest.raises(DeadlineInfeasibleError):
            min_rate(bits, 0.4, t_cmp)


def _energy(power, noise_floor, bits=28.1e3, bandwidth=0.8e6):
    return power * bits / channel_rate(power, noise_floor, bandwidth)


def _best_feasible_grid_energy(problem, points=1_000_000):
    """Least energy over a dense power grid restricted to feasible points."""
    floor = float(problem.noise_floor_w[0])
    grid = np.linspace(problem.p_min_w, problem.p_max_w, points)
    rates = problem.bandwidth_hz * np.log2(1.0 + grid / floor)
    feasible = rates >= float(problem.min_rate_bps[0])
    return float(np.min(grid[feasible] * problem.upload_bits[0] / rates[feasible]))


class TestPowerUpdate:
    """The closed-form power returned by solve_ratio_stage."""

    def test_active_rate_constraint_hits_it_exactly(self):
        noise_floor = 2e-9
        r_min = 17e6  # needs about 5 mW
        sol = solve_ratio_stage(single_channel_problem(noise_floor=noise_floor, r_min=r_min))
        p = sol.power_w[0]
        assert 1e-3 < p < P_MAX_12DBM  # binding, not clamped
        assert not sol.rate_infeasible[0]
        assert channel_rate(p, noise_floor, 0.8e6) == pytest.approx(r_min, rel=1e-12)

    def test_slack_rate_sits_at_p_min(self):
        sol = solve_ratio_stage(single_channel_problem(noise_floor=2e-9, r_min=1e3))
        assert sol.power_w[0] == 1e-3
        assert not sol.rate_infeasible[0]

    def test_unreachable_rate_flags(self):
        # the minimum-rate power alone exceeds the power ceiling
        sol = solve_ratio_stage(single_channel_problem(noise_floor=1e-2, r_min=5e6))
        assert sol.power_w[0] == P_MAX_12DBM
        assert sol.rate_infeasible[0]
        # just past the ceiling flags; just inside it does not
        for scale, flagged in ((1.01, True), (0.99, False)):
            r_min = channel_rate(scale * P_MAX_12DBM, 2e-9, 0.8e6)
            sol = solve_ratio_stage(single_channel_problem(noise_floor=2e-9, r_min=r_min))
            assert sol.rate_infeasible[0] == flagged
            assert sol.power_w[0] == pytest.approx(min(scale, 1.0) * P_MAX_12DBM, rel=1e-12)

    def test_energy_strictly_increasing_on_box(self):
        # why the least feasible power is optimal: no interior minimum exists
        grid = np.linspace(1e-3, P_MAX_12DBM, 100_000)
        for noise_floor in (1e-12, 1e-9, 1e-6, 1e-3):
            assert np.all(np.diff(_energy(grid, noise_floor)) > 0.0)


class TestResidual:
    def test_zero_at_fixed_point(self):
        # the returned auxiliaries zero the parametric residual
        # (p*d - bound*r, nu*r - alpha) on binding, clamped and flagged channels
        alpha = 0.5
        for noise_floor, r_min in ((2e-9, 17e6), (2e-9, 1e3), (1e-2, 5e6)):
            problem = single_channel_problem(noise_floor=noise_floor, r_min=r_min, alpha=alpha)
            sol = solve_ratio_stage(problem)
            p, bits = sol.power_w[0], problem.upload_bits[0]
            rate = channel_rate(p, noise_floor, 0.8e6)
            assert sol.energy_bound[0] * rate == pytest.approx(p * bits, rel=1e-12)
            assert sol.rate_weight[0] * rate == pytest.approx(alpha, rel=1e-12)


class TestSolveRatioStage:
    def test_fixed_point_start_converges_without_steps(self):
        problem = single_channel_problem(r_min=1e3)
        first = solve_ratio_stage(problem)
        assert first.converged.all()
        assert not first.newton_steps.any()
        again = solve_ratio_stage(problem)
        assert np.array_equal(again.power_w, first.power_w)

    def test_matches_dense_grid_on_unconstrained_channel(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            noise_floor = 10 ** rng.uniform(-9.5, -7.5)
            problem = single_channel_problem(noise_floor=noise_floor, r_min=1.0)
            sol = solve_ratio_stage(problem)
            best = _best_feasible_grid_energy(problem)
            assert _energy(sol.power_w[0], noise_floor) <= best * (1 + 1e-4)

    def test_matches_dense_grid_on_constrained_channel(self):
        rng = np.random.default_rng(24)
        for _ in range(5):
            noise_floor = 10 ** rng.uniform(-9.5, -7.5)
            # the rate of a random interior power, so the constraint binds
            r_min = channel_rate(rng.uniform(2e-3, 0.015), noise_floor, 0.8e6)
            problem = single_channel_problem(noise_floor=noise_floor, r_min=r_min)
            sol = solve_ratio_stage(problem)
            assert 1e-3 < sol.power_w[0] < P_MAX_12DBM
            best = _best_feasible_grid_energy(problem)
            got = _energy(sol.power_w[0], noise_floor)
            assert got <= best * (1 + 1e-12)
            assert best <= got * (1 + 1e-4)

    @settings(max_examples=200, deadline=None)
    @given(
        log_noise_floor=st.floats(-12.0, -5.0),
        bits=st.floats(1e3, 1e6),
        # from 1 kbit/s: far below any deadline's rate, 2**(r/B) - 1 cancels
        log_r_min=st.floats(3.0, 7.5),
        p_min=st.floats(0.0, 0.05),
        p_span=st.floats(1e-4, 1.0),
    )
    def test_property_no_feasible_grid_point_beats_closed_form(
        self, log_noise_floor, bits, log_r_min, p_min, p_span
    ):
        noise_floor, r_min = 10.0**log_noise_floor, 10.0**log_r_min
        problem = single_channel_problem(
            noise_floor=noise_floor, bits=bits, r_min=r_min, p_min=p_min, p_max=p_min + p_span
        )
        sol = solve_ratio_stage(problem)
        p = sol.power_w[0]
        assert problem.p_min_w <= p <= problem.p_max_w
        grid = np.linspace(problem.p_min_w, problem.p_max_w, 2001)
        rates = channel_rate(grid, noise_floor, 0.8e6)
        feasible = rates >= r_min
        if sol.rate_infeasible[0]:
            assert p == problem.p_max_w
            assert not feasible.any()
            return
        assert channel_rate(p, noise_floor, 0.8e6) >= r_min * (1 - 1e-12)
        got = _energy(p, noise_floor, bits)
        assert np.all(got <= grid[feasible] * bits / rates[feasible] * (1 + 1e-12))

    def test_powers_respect_bounds(self):
        rng = np.random.default_rng(22)
        for _ in range(10):
            problem = single_channel_problem(
                noise_floor=10 ** rng.uniform(-10, -6), r_min=10 ** rng.uniform(2, 6.5)
            )
            sol = solve_ratio_stage(problem)
            assert problem.p_min_w <= sol.power_w[0] <= problem.p_max_w

    def test_zero_energy_weight_rejected(self):
        with pytest.raises(ValueError):
            single_channel_problem(alpha=0.0)


class TestSolveSp2:
    def _inputs(self, params, topo, deadline_scale=1.0):
        n = topo.n_devices
        cpu = np.full(n, 1e9)
        res = np.full(n, 320.0)
        rates = model.uplink_rates(params, topo, np.full(n, 8e-3))
        totals = np.array(
            [
                dev.upload_bits / rates[i]
                + model.computation_cost(params, dev, 320.0, 1e9)[0]
                for i, dev in enumerate(topo.devices())
            ]
        )
        return cpu, res, float(np.max(totals)) * deadline_scale

    def test_second_stage_noise_floor_includes_first_power(self):
        params, topo = table_instance(seed=14)
        cpu, res, deadline = self._inputs(params, topo)
        power, flags, (first, second) = solve_sp2(params, topo, cpu, res, deadline)
        assert not np.any(flags)
        gains = topo.gain_vector()
        noise = params.subchannel_bandwidth_hz * params.noise_psd_w_per_hz
        for k in range(len(topo.channels)):
            p1, p2 = power[2 * k], power[2 * k + 1]
            floor = (noise + p1 * gains[2 * k]) / gains[2 * k + 1]
            rate2 = channel_rate(p2, floor, params.subchannel_bandwidth_hz)
            direct = model.uplink_rate(params, topo.channels[k], (p1, p2), 1)
            assert rate2 == pytest.approx(direct, rel=1e-12)

    def test_symmetric_channels_get_identical_powers(self):
        params = SystemParams(channel_count=2)
        topo = topology_from_gains(params, [1e-10, 3e-10, 1e-10, 3e-10])
        cpu, res, deadline = self._inputs(params, topo)
        power, _, _ = solve_sp2(params, topo, cpu, res, deadline)
        assert power[0] == pytest.approx(power[2], rel=1e-12)
        assert power[1] == pytest.approx(power[3], rel=1e-12)

    def test_first_stage_powers_unchanged_by_second(self):
        params, topo = table_instance(seed=15)
        cpu, res, deadline = self._inputs(params, topo)
        power, _, (first, _) = solve_sp2(params, topo, cpu, res, deadline)
        assert np.array_equal(power[0::2], first.power_w)

    def test_lemma_fixed_point_identities(self):
        params, topo = table_instance(seed=16)
        cpu, res, deadline = self._inputs(params, topo)
        _, _, stages = solve_sp2(params, topo, cpu, res, deadline)
        alpha = params.weight_energy
        for stage_sol, idx in ((stages[0], 0), (stages[1], 1)):
            bits = topo.upload_bits_vector()[idx::2]
            rates = np.array(
                [
                    channel_rate(p, lam, params.subchannel_bandwidth_hz)
                    for p, lam in zip(
                        stage_sol.power_w,
                        _noise_floors(params, topo, stages, idx),
                    )
                ]
            )
            assert np.max(np.abs(stage_sol.rate_weight - alpha / rates) / (alpha / rates)) <= 1e-8
            ratio = stage_sol.power_w * bits / rates
            assert np.max(np.abs(stage_sol.energy_bound - ratio) / ratio) <= 1e-8
            # the auxiliary bounds sum to the stage objective over alpha
            stage_objective = alpha * float(np.sum(ratio))
            assert float(np.sum(stage_sol.energy_bound)) == pytest.approx(
                stage_objective / alpha, rel=1e-10
            )

    def test_beats_random_feasible_power_vectors(self):
        params, topo = table_instance(seed=17)
        cpu, res, deadline = self._inputs(params, topo, deadline_scale=1.2)
        power, flags, _ = solve_sp2(params, topo, cpu, res, deadline)
        assert not np.any(flags)
        n = topo.n_devices
        devices = topo.devices()
        t_cmp = np.array(
            [model.computation_cost(params, dev, 320.0, 1e9)[0] for dev in devices]
        )
        bits = topo.upload_bits_vector()

        def objective(p):
            rates = model.uplink_rates(params, topo, p)
            return params.weight_energy * float(np.sum(p * bits / rates))

        base = objective(power)
        rng = np.random.default_rng(23)
        feasible = 0
        for _ in range(10_000):
            p = rng.uniform(params.p_min_w, params.p_max_w, n)
            rates = model.uplink_rates(params, topo, p)
            if np.all(bits / rates + t_cmp <= deadline):
                feasible += 1
                assert base <= objective(p) * (1 + 1e-9)
        assert feasible > 100  # the check must actually exercise samples


def _noise_floors(params, topo, stages, idx):
    gains = topo.gain_vector()
    noise = params.subchannel_bandwidth_hz * params.noise_psd_w_per_hz
    if idx == 0:
        return noise / gains[0::2]
    return (noise + stages[0].power_w * gains[0::2]) / gains[1::2]
