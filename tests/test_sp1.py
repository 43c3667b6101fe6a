import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmar import bench, model, pairing, sp1
from fedmar.model import SystemParams
from fedmar.sp1 import (
    DualCoefficients,
    accuracy_slope,
    clamp_frequency,
    clamp_resolution,
    deadline_of,
    dual_coefficients,
    linear_accuracy,
    recover_primal,
    round_resolutions,
    solve_dual,
    solve_sp1,
)
from util import (
    ACC_160,
    ACC_640,
    REFERENCE_MAX_CLAMP_PASSES,
    make_device,
    random_cell_dual,
    random_dual_instance,
    reference_price_map,
    reference_solve_dual,
    reference_sp1,
    small_instance,
    sp1_block_value,
    spg_max_dual,
    table_instance,
    topology_from_gains,
)

CBRT_MIX = 2 ** (-2 / 3) + 2 ** (1 / 3)


def one_in_eight(rare, usual):
    return st.integers(0, 7).flatmap(lambda k: rare if k == 0 else usual)


def assert_crossing_matches_reference(coeffs, beta):
    """``solve_dual`` returns the reference map at the closer end of two
    adjacent floats where the float total crosses the budget, or, inside a
    flat dual term, the reference jump split, and spends the budget as the
    geometric bisection did."""
    lam_of = reference_price_map(coeffs)
    (lo, total_lo, lam_lo), (hi, total_hi, lam_hi) = sp1._budget_crossing(coeffs, beta)
    assert hi == math.nextafter(lo, math.inf)
    assert np.array_equal(lam_of(lo), lam_lo) and np.array_equal(lam_of(hi), lam_hi)
    assert total_lo == float(np.sum(lam_lo)) > beta >= float(np.sum(lam_hi)) == total_hi
    if total_lo == math.inf:
        jumpers = lam_lo == math.inf
        expected = lam_hi.copy()
        expected[jumpers] += (beta - total_hi) / int(np.count_nonzero(jumpers))
    else:
        expected = lam_lo if total_lo - beta < beta - total_hi else lam_hi
    lam = solve_dual(coeffs, beta)
    assert np.array_equal(lam, expected)
    reference = reference_solve_dual(coeffs, beta)
    assert abs(math.fsum(lam) - math.fsum(reference)) <= 1e-15 * beta
    assert np.max(np.abs(lam - reference)) <= 1e-14 * beta


class TestLinearAccuracy:
    def test_endpoints_exact(self):
        params = SystemParams()
        assert linear_accuracy(params, 160.0) == pytest.approx(ACC_160, rel=1e-12)
        assert linear_accuracy(params, 640.0) == pytest.approx(ACC_640, rel=1e-12)

    def test_midpoint_is_mean_of_endpoints(self):
        params = SystemParams()
        mid = linear_accuracy(params, 0.5 * (160.0 + 640.0))
        assert mid == pytest.approx(0.5 * (ACC_160 + ACC_640), rel=1e-12)


class TestSolveDual:
    def test_symmetric_devices_split_evenly(self):
        coeffs = DualCoefficients(
            curvature=np.array([2.0e-4, 2.0e-4]),
            t_up=np.array([0.01, 0.01]),
        )
        lam = solve_dual(coeffs, 0.5)
        assert lam == pytest.approx([0.25, 0.25], rel=1e-9)

    def test_single_device_takes_whole_budget(self):
        coeffs = DualCoefficients(
            curvature=np.array([3.0e-4]),
            t_up=np.array([0.02]),
        )
        assert solve_dual(coeffs, 0.7) == pytest.approx([0.7], rel=1e-9)

    def test_budget_conservation(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            coeffs, beta = random_dual_instance(rng, 8)
            lam = solve_dual(coeffs, beta)
            assert abs(float(np.sum(lam)) - beta) <= 1e-8
            assert np.all(lam > 0)

    def test_matches_projected_gradient_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            coeffs, beta = random_dual_instance(rng, 4)
            lam = solve_dual(coeffs, beta)
            ref = spg_max_dual(coeffs.curvature, coeffs.t_up, beta)
            assert np.max(np.abs(lam - ref) / ref) <= 1e-6

    def test_interior_marginals_are_equal(self):
        rng = np.random.default_rng(12)
        coeffs, beta = random_dual_instance(rng, 8)
        lam = solve_dual(coeffs, beta)
        marginal = (2 * coeffs.curvature / 3) * lam ** (-5 / 3) + coeffs.t_up
        spread = (np.max(marginal) - np.min(marginal)) / np.max(marginal)
        assert spread <= 1e-6

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
    def test_synthetic_crossing_matches_reference(self, seed, n):
        assert_crossing_matches_reference(*random_dual_instance(np.random.default_rng(seed), n))

    @settings(max_examples=80, deadline=None)
    @given(
        users=st.integers(1, 10).map(lambda k: 2 * k),
        seed=st.integers(0, 10_000),
        alpha=st.floats(0.01, 0.99),
        gamma=one_in_eight(st.just(0.0), st.floats(0.0, 20.0)),
        f_max_ghz=st.floats(0.05, 2.0),
        budget=one_in_eight(st.floats(1e-6, 1e-3), st.none()),
    )
    def test_cell_crossing_matches_reference(self, users, seed, alpha, gamma, f_max_ghz, budget):
        # f_max and gamma span the free, f_max, pinned and flat branches; a zero
        # gamma pins every device, and a tiny budget starts the search far out
        coeffs, beta = random_cell_dual(seed, users, alpha, gamma, f_max_ghz)
        assert_crossing_matches_reference(coeffs, beta if budget is None else budget)

    def test_search_starts_at_offset_one_without_a_median_offset(self):
        # an equal split puts two of three devices below max(t_up): their
        # offsets, and so the median's, are negative
        coeffs = DualCoefficients(
            curvature=np.full(3, 1e-4), t_up=np.array([0.0, 0.0, 10.0])
        )
        gaps = np.max(coeffs.t_up) - coeffs.t_up
        assert sp1._start_offset(coeffs, 0.5, gaps) == 1.0
        assert_crossing_matches_reference(coeffs, 0.5)

    @staticmethod
    def _price_evaluations(monkeypatch, spec):
        """Price evaluations of each search in the sweep of ``spec``: every
        evaluation after a call's first follows one _from_ulps."""
        counts = []
        crossing, from_ulps = sp1._budget_crossing, sp1._from_ulps

        def counted_crossing(coeffs, beta):
            counts.append(1)
            return crossing(coeffs, beta)

        def counted_from_ulps(k):
            counts[-1] += 1
            return from_ulps(k)

        monkeypatch.setattr(sp1, "_budget_crossing", counted_crossing)
        monkeypatch.setattr(sp1, "_from_ulps", counted_from_ulps)
        bench.run_experiment(spec)
        return counts

    def test_default_sweep_takes_few_price_evaluations(self, monkeypatch):
        # from offset 1 the search took 7.9 evaluations a call on this
        # sweep; from the equal-split start every call takes 4
        counts = self._price_evaluations(monkeypatch, bench.ExperimentSpec())
        assert len(counts) == 21  # 7 sweep values x 3 pairing schemes
        assert sum(counts) / len(counts) <= 4.5
        assert max(counts) <= 5

    def test_f_max_sweep_price_evaluations_stay_bounded(self, monkeypatch):
        # at low f_max the budget often lands in a flat term, which a Newton
        # step cannot aim at, so the search ends in bisection: 25.97 a call
        # on average and 56 at most
        spec = bench.ExperimentSpec(
            sweep_variable="f_max_ghz",
            sweep_values=(0.1, 0.15, 0.25, 0.5, 1.0, 1.5, 2.0),
            seeds=(1, 2, 3),
            algorithms=("proposed",),
        )
        counts = self._price_evaluations(monkeypatch, spec)
        assert len(counts) == 63  # 7 sweep values x 3 seeds x 3 pairing schemes
        assert sum(counts) / len(counts) <= 27.0
        assert max(counts) <= 56

    def test_budget_inside_a_flat_term_matches_reference(self):
        params, topo = small_instance(seed=1, users=4, f_max_hz=0.1e9)
        powers = np.full(topo.n_devices, 5e-3)
        t_trans, _ = model.transmission_cost(topo, model.uplink_rates(params, topo, powers), powers)
        coeffs = dual_coefficients(params, topo, t_trans)
        (_, total_lo, _), _ = sp1._budget_crossing(coeffs, params.weight_time)
        assert total_lo == math.inf
        assert_crossing_matches_reference(coeffs, params.weight_time)

    @pytest.mark.parametrize("side", ["s3", "s1", "both"])
    @pytest.mark.parametrize("seed", range(4))
    def test_every_device_pinned_matches_reference(self, side, seed):
        # every device is pinned at every offset, so each price evaluation
        # takes the pinned branch alone
        rng = np.random.default_rng(seed)
        n = 7
        at_s1 = {"s3": np.zeros(n, bool), "s1": np.ones(n, bool), "both": rng.random(n) < 0.5}[side]
        coeffs = DualCoefficients(
            curvature=rng.uniform(1e-5, 1e-3, n),
            t_up=rng.uniform(1e-3, 8e-2, n),
            s1_below=np.where(at_s1, np.inf, 0.0),
            s3_above=np.where(at_s1, np.inf, 0.0),
            pin_s1=rng.uniform(1e-3, 1e-2, n),
            pin_s3=rng.uniform(1e-2, 1e-1, n),
        )
        assert_crossing_matches_reference(coeffs, rng.uniform(0.1, 0.9))

    @pytest.mark.parametrize("free", [False, True], ids=["all-pinned", "one-free"])
    def test_flat_pin_matches_reference(self, free):
        # device 0's s1 cube passes lam_f_max while the others are still far
        # below the budget, so the budget lands inside its infinite jump;
        # device 2's s3 cube passes lam_f_max too, which only rounding does
        # in a real cell, and stays finite; device 3 is pinned at s1, or
        # never pinned
        coeffs = DualCoefficients(
            curvature=np.full(4, 1e-4),
            t_up=np.array([0.05, 0.01, 0.03, 0.02]),
            lam_f_max=0.1,
            s1_below=np.array([np.inf, np.inf, 0.0, 0.0 if free else np.inf]),
            s3_above=np.array([np.inf, np.inf, 0.0, np.inf]),
            pin_s1=np.array([1.0, 1e-3, 1e-3, 1e-3]),
            pin_s3=np.array([1e-3, 1e-3, 1.1, 1e-3]),
        )
        (_, total_lo, lam_lo), _ = sp1._budget_crossing(coeffs, 0.5)
        assert total_lo == lam_lo[0] == math.inf
        assert coeffs.lam_f_max < lam_lo[2] < math.inf
        assert_crossing_matches_reference(coeffs, 0.5)

    @pytest.mark.parametrize("p_max_dbm", [6.0, 12.0])
    @pytest.mark.parametrize("seed", [3, 41, 2024])
    def test_default_cells_match_reference(self, seed, p_max_dbm):
        # 50-device cells as a sweep samples and pairs them, at the powers
        # the alternation starts from
        params = SystemParams(p_max_w=model.dbm_to_watts(p_max_dbm))
        devices, gains = pairing.sample_topology(pairing.TopologyConfig(rng_seed=seed))
        for scheme in pairing.PairingScheme:
            topo = pairing.pair_users(params, devices, gains, scheme, rng_seed=seed)
            powers = np.full(topo.n_devices, 0.5 * (params.p_min_w + params.p_max_w))
            rates = model.uplink_rates(params, topo, powers)
            t_trans, _ = model.transmission_cost(topo, rates, powers)
            coeffs = dual_coefficients(params, topo, t_trans)
            assert_crossing_matches_reference(coeffs, params.weight_time)

    @pytest.mark.parametrize(
        "pin_s3", [np.array([0.0, 1e-3]), 1e-3], ids=["array-pin", "scalar-pin"]
    )
    def test_unexhaustible_budget_raises_promptly(self, monkeypatch, pin_s3):
        # the device with the largest t_up has no multiplier at any price,
        # and the other is pinned at s3 with at most (1e-3 / 0.01)**3; the
        # first device never cubes the scalar pin, which would overflow
        coeffs = DualCoefficients(
            curvature=np.zeros(2),
            t_up=np.array([0.02, 0.01]),
            s3_above=np.array([np.inf, 0.0]),
            pin_s3=pin_s3,
        )
        steps = 0
        ulps = sp1._ulps

        def counted(x):
            nonlocal steps
            steps += 1
            if steps > 1000:
                raise AssertionError("the price search does not stop")
            return ulps(x)

        monkeypatch.setattr(sp1, "_ulps", counted)
        with pytest.raises(RuntimeError, match="budget cannot be exhausted"):
            solve_dual(coeffs, 0.5)
        assert steps <= 60

    def test_zero_budget_gives_zero_multipliers(self):
        rng = np.random.default_rng(14)
        coeffs, _ = random_dual_instance(rng, 3)
        assert np.all(solve_dual(coeffs, 0.0) == 0.0)


class TestRecoverPrimal:
    def test_frequency_inversion(self):
        params = SystemParams()
        ak = params.weight_energy * params.switched_capacitance
        lam = 2 * ak * (1e9) ** 3
        f_raw, _ = recover_primal(lam, params, make_device(0))
        assert f_raw == pytest.approx(1e9, rel=1e-12)

    def test_curvature_identity_at_recovered_frequency(self):
        # substituting the closed-form frequency collapses the bracket to
        # (a k)**(1/3) * lam**(2/3) * (2**(-2/3) + 2**(1/3))
        params = SystemParams(weight_energy=0.7, weight_time=0.3)
        ak = params.weight_energy * params.switched_capacitance
        rng = np.random.default_rng(15)
        for lam in rng.uniform(1e-4, 0.9, 25):
            f_raw, _ = recover_primal(lam, params, make_device(0))
            bracket = ak * f_raw**2 + lam / f_raw
            assert bracket == pytest.approx(ak ** (1 / 3) * lam ** (2 / 3) * CBRT_MIX, rel=1e-10)

    def test_zero_accuracy_weight_zeroes_resolution(self):
        params = SystemParams(weight_accuracy=0.0)
        _, s_raw = recover_primal(0.1, params, make_device(0))
        assert s_raw == 0.0

    def test_zero_multiplier_collapses_frequency(self):
        params = SystemParams()
        f_raw, s_raw = recover_primal(0.0, params, make_device(0))
        assert f_raw < 1.0  # far below f_min: the caller clamps it up
        assert clamp_frequency(params, f_raw) == params.f_min_hz
        assert np.isfinite(s_raw) and s_raw > 0.0


class TestClampsAndRounding:
    def test_clamp_frequency(self):
        params = SystemParams()
        assert clamp_frequency(params, 3e9) == 2e9
        assert clamp_frequency(params, 1.234e9) == 1.234e9
        assert clamp_frequency(params, 0.0) == params.f_min_hz

    def test_clamp_resolution(self):
        params = SystemParams()
        assert clamp_resolution(params, 100.0) == 160.0
        assert clamp_resolution(params, 700.0) == 640.0
        assert clamp_resolution(params, 400.0) == 400.0

    @pytest.mark.parametrize(
        "s_hat,expected",
        [(239.0, 160.0), (240.0, 320.0), (480.0, 320.0), (481.0, 640.0), (160.0, 160.0), (640.0, 640.0)],
    )
    def test_round_thresholds(self, s_hat, expected):
        assert round_resolutions(SystemParams(), np.array([s_hat])).tolist() == [expected]

    def test_rounding_stays_in_set(self):
        params = SystemParams()
        rng = np.random.default_rng(16)
        rounded = round_resolutions(params, rng.uniform(160.0, 640.0, 500))
        assert set(rounded.tolist()) <= {160.0, 320.0, 640.0}


class TestDeadline:
    def test_single_device_pair_sum(self):
        params = SystemParams(channel_count=1)
        topo = topology_from_gains([1e-10, 2e-10])
        t_trans = np.array([0.02, 0.03])
        cpu = np.array([1e9, 1e9])
        res = np.array([320.0, 320.0])
        deadline = deadline_of(t_trans, model.computation_cost(params, topo, res, cpu)[0])
        t_cmp = [
            model.computation_cost(params, dev, 320.0, 1e9)[0] for dev in topo.devices()
        ]
        assert deadline == pytest.approx(max(t_trans[0] + t_cmp[0], t_trans[1] + t_cmp[1]))

    def test_matches_model_evaluate_total_time(self):
        params, topo = table_instance(seed=6)
        rng = np.random.default_rng(17)
        n = topo.n_devices
        p = rng.uniform(params.p_min_w, params.p_max_w, n)
        cpu = rng.uniform(params.f_min_hz, params.f_max_hz, n)
        res = rng.choice(np.array(params.resolution_set_px), n)
        rates = model.uplink_rates(params, topo, p)
        t_trans = np.array(
            [dev.upload_bits / rates[i] for i, dev in enumerate(topo.devices())]
        )
        deadline = deadline_of(t_trans, model.computation_cost(params, topo, res, cpu)[0])
        costs = model.evaluate(params, topo, model.Allocation(p, cpu, res))
        assert deadline == pytest.approx(costs.total_time_s, rel=1e-12)

    def test_upload_below_roundoff_leaves_positive_slack(self):
        # a 1e-17 s upload rounds away against a ~1 s computation time, so
        # the deadline is the float above it rather than the computation time
        params = SystemParams(channel_count=1)
        topo = topology_from_gains([1e-10, 2e-10])
        cpu = np.full(2, 1e9)
        res = np.full(2, 320.0)
        t_cmp, _ = model.computation_cost(params, topo, res, cpu)
        t_trans = np.full(2, 1e-17)
        assert np.max(t_trans + t_cmp) == np.max(t_cmp)
        deadline = deadline_of(t_trans, t_cmp)
        assert deadline == np.nextafter(np.max(t_cmp), np.inf)
        assert np.all(deadline - t_cmp > 0.0)


class TestKktConsistency:
    def test_stationarity_by_finite_differences(self):
        # interior recovered points must zero the per-device objective
        # derivatives in both frequency and resolution
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 40:
            alpha = rng.uniform(0.2, 0.9)
            gamma = rng.uniform(0.3, 2.0)
            params = SystemParams(
                weight_energy=alpha, weight_time=1 - alpha, weight_accuracy=gamma
            )
            dev = make_device(0, cycles=rng.uniform(1e4, 3e4))
            lam = rng.uniform(1e-3, 0.5)
            f_raw, s_raw = recover_primal(lam, params, dev)
            if not (params.f_min_hz < f_raw < params.f_max_hz):
                continue
            checked += 1
            load = (
                params.local_iterations
                * params.std_sample_scale
                * dev.cycles_per_std_sample
                * dev.sample_count
            )
            ak = alpha * params.switched_capacitance
            slope = gamma * accuracy_slope(params)

            def piece(f, s):
                return ak * load * s * s * f * f - slope * s + lam * load * s * s / f

            # scale relative to the individual term magnitudes, which do not
            # cancel the way the stationary value itself can
            term_scale = (
                ak * load * s_raw**2 * f_raw**2
                + slope * s_raw
                + lam * load * s_raw**2 / f_raw
            )
            for bump, scale in (
                (lambda h: piece(f_raw + h, s_raw), f_raw),
                (lambda h: piece(f_raw, s_raw + h), s_raw),
            ):
                h = 1e-6 * scale
                fd = (bump(h) - bump(-h)) / (2 * h)
                assert abs(fd) * scale <= 1e-6 * term_scale


class TestSolveSp1:
    def test_budget_and_boxes(self):
        params, topo = table_instance(seed=8)
        n = topo.n_devices
        powers = np.full(n, 5e-3)
        sol = solve_sp1(params, topo, powers)
        assert abs(float(np.sum(sol.multipliers)) - params.weight_time) <= 1e-8
        assert np.all(sol.cpu_hz >= params.f_min_hz) and np.all(sol.cpu_hz <= params.f_max_hz)
        assert np.all(sol.resolution_cont >= 160.0) and np.all(sol.resolution_cont <= 640.0)
        rounded = sp1.round_resolutions(params, sol.resolution_cont)
        assert set(rounded.tolist()) <= {160.0, 320.0, 640.0}

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_two_device_grid_oracle(self, gamma):
        # the recovered block solution must not lose to a dense grid over
        # (f1, f2, shared resolution) by more than the stated slack
        params = SystemParams(
            channel_count=1, weight_energy=0.5, weight_time=0.5, weight_accuracy=gamma
        )
        topo = topology_from_gains([2e-11, 8e-11], cycles=[1.2e4, 2.7e4])
        powers = np.array([4e-3, 9e-3])
        sol = solve_sp1(params, topo, powers)

        loads = np.array(
            [
                params.local_iterations
                * params.std_sample_scale
                * d.cycles_per_std_sample
                * d.sample_count
                for d in topo.devices()
            ]
        )

        def objective(f, s):
            f = np.asarray(f, dtype=float)
            s = np.asarray(s, dtype=float)
            e = float(np.sum(params.switched_capacitance * loads * s * s * f * f))
            t = float(np.max(sol.t_trans_s + loads * s * s / f))
            acc = float(np.sum(linear_accuracy(params, s)))
            return (
                params.weight_energy * e
                + params.weight_time * t
                - params.weight_accuracy * acc
            )

        recovered = objective(sol.cpu_hz, sol.resolution_cont)

        f_grid = np.linspace(params.f_min_hz, params.f_max_hz, 200)
        s_grid = np.linspace(160.0, 640.0, 200)
        best = np.inf
        kappa = params.switched_capacitance
        for s in s_grid:
            e1 = kappa * loads[0] * s * s * f_grid**2
            e2 = kappa * loads[1] * s * s * f_grid**2
            t1 = sol.t_trans_s[0] + loads[0] * s * s / f_grid
            t2 = sol.t_trans_s[1] + loads[1] * s * s / f_grid
            total_t = np.maximum(t1[:, None], t2[None, :])
            energy = e1[:, None] + e2[None, :]
            acc = 2.0 * linear_accuracy(params, s)
            value = (
                params.weight_energy * energy
                + params.weight_time * total_t
                - params.weight_accuracy * acc
            )
            best = min(best, float(np.min(value)))
        assert recovered <= best + 1e-4 * abs(best)

    @pytest.mark.parametrize(
        "f_max_ghz,gamma", [(0.05, 0.3), (0.1, 2.0), (0.15, 5.0), (0.2, 1.0), (0.3, 0.5)]
    )
    def test_two_device_independent_resolution_grid_oracle(self, f_max_ghz, gamma):
        # a dense grid over (f1, s1, f2, s2): at a deadline T the devices
        # decouple, so the grid minimum is the least, over every grid point's
        # time T, of beta T plus each device's cheapest point finishing by T
        params = SystemParams(
            channel_count=1,
            weight_energy=0.5,
            weight_time=0.5,
            weight_accuracy=gamma,
            f_max_hz=f_max_ghz * 1e9,
        )
        topo = topology_from_gains([2e-11, 8e-11], cycles=[1.2e4, 2.7e4])
        sol = solve_sp1(params, topo, np.array([4e-3, 9e-3]))
        value = sp1_block_value(params, topo, sol.t_trans_s, sol.cpu_hz, sol.resolution_cont)

        f = np.linspace(params.f_min_hz, params.f_max_hz, 300)[:, None]
        s = np.linspace(160.0, 640.0, 300)[None, :]
        finish, cheapest = [], []
        for t_trans, load in zip(sol.t_trans_s, model.load(params, topo)):
            time = (t_trans + load * s * s / f).ravel()
            cost = (
                params.weight_energy * params.switched_capacitance * load * s * s * f * f
                - params.weight_accuracy * linear_accuracy(params, s)
            ).ravel()
            order = np.argsort(time)
            finish.append(time[order])
            cheapest.append(np.minimum.accumulate(cost[order]))
        deadlines = np.concatenate(finish)
        total = params.weight_time * deadlines
        for time, least in zip(finish, cheapest):
            k = np.searchsorted(time, deadlines, side="right") - 1
            total = total + np.where(k >= 0, least[np.maximum(k, 0)], np.inf)
        best = float(np.min(total))
        assert value <= best + 1e-4 * abs(best)

    def test_gamma_zero_resolution_floors(self):
        params, topo = small_instance(seed=3, weight_accuracy=0.0)
        sol = solve_sp1(params, topo, np.full(topo.n_devices, 5e-3))
        assert np.all(sol.resolution_cont == 160.0)
        assert np.all(sp1.round_resolutions(params, sol.resolution_cont) == 160.0)

    @settings(max_examples=30, deadline=None)
    @given(
        users=st.integers(1, 10).map(lambda k: 2 * k),
        seed=st.integers(0, 10_000),
        alpha=st.floats(0.01, 0.99),
        gamma=st.floats(0.0, 20.0),
        f_max_ghz=st.floats(0.05, 0.3),
    )
    def test_never_worse_than_reference_clamp_loop(self, users, seed, alpha, gamma, f_max_ghz):
        params, topo = small_instance(
            seed,
            users=users,
            weight_energy=alpha,
            weight_time=1.0 - alpha,
            weight_accuracy=gamma,
            f_max_hz=f_max_ghz * 1e9,
        )
        rng = np.random.default_rng(seed)
        powers = rng.uniform(params.p_min_w, params.p_max_w, users)
        sol = solve_sp1(params, topo, powers)
        value = sp1_block_value(params, topo, sol.t_trans_s, sol.cpu_hz, sol.resolution_cont)
        assert np.isfinite(value)
        try:
            reference, _, _, _ = reference_sp1(params, topo, powers)
        except RuntimeError:
            # the clamp loop's first bisection fails at some accuracy
            # weights near zero (see the test below): nothing to compare
            assert 0.0 < gamma < 1e-6
            return
        # the accuracy term can cancel the others: scale by the term sizes
        assert value <= reference + 1e-12 * (abs(reference) + gamma * users)

    def test_near_zero_accuracy_weight_solves_like_zero(self):
        # the clamp loop raised "did not reach tolerance" on this cell
        powers = np.array([8.5e-3, 5.1e-3])
        solved = []
        for gamma in (2.471272051149904e-81, 0.0):
            params, topo = small_instance(
                0, users=2, weight_energy=0.75, weight_time=0.25,
                weight_accuracy=gamma, f_max_hz=0.25e9,
            )
            solved.append(solve_sp1(params, topo, powers))
        tiny, zero = solved
        assert np.all(tiny.resolution_cont == 160.0)
        assert tiny.cpu_hz == pytest.approx(zero.cpu_hz, rel=1e-12)

    def test_low_f_max_cell_beats_capped_reference_with_one_root_find(self, monkeypatch):
        # the clamp loop flip-flops on this cell until its pass cap; the
        # root find prices the f_max and resolution pieces at once
        params, topo = small_instance(seed=1, users=4, f_max_hz=0.1e9)
        powers = np.full(topo.n_devices, 5e-3)
        reference, _, _, passes = reference_sp1(params, topo, powers)
        assert passes == REFERENCE_MAX_CLAMP_PASSES

        calls = {"solve_dual": 0, "recover_primal": 0}
        for name in calls:
            original = getattr(sp1, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(sp1, name, counted)
        sol = solve_sp1(params, topo, powers)
        assert calls == {"solve_dual": 1, "recover_primal": 1}
        value = sp1_block_value(params, topo, sol.t_trans_s, sol.cpu_hz, sol.resolution_cont)
        assert value < reference - 0.1
        assert abs(float(np.sum(sol.multipliers)) - params.weight_time) <= 1e-15

    def test_zero_energy_weight_rejected(self):
        params = SystemParams(weight_energy=0.0, weight_time=1.0)
        topo = topology_from_gains([1e-10, 2e-10])
        with pytest.raises(ValueError):
            solve_sp1(params, topo, np.full(2, 5e-3))


def test_dual_coefficients_signs_and_zero_gamma():
    params, topo = table_instance(seed=9)
    t_trans = np.full(topo.n_devices, 0.01)
    coeffs = dual_coefficients(params, topo, t_trans)
    assert np.all(coeffs.curvature > 0)
    zero_gamma = dual_coefficients(
        SystemParams(weight_accuracy=0.0), topo, t_trans
    )
    assert np.all(zero_gamma.curvature == 0.0)
