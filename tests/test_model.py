import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedmar.model import (
    Allocation,
    PairedTopology,
    SystemParams,
    UnreachableDeviceError,
    accuracy_of,
    computation_cost,
    dbm_to_watts,
    evaluate,
    transmission_cost,
    uplink_rates,
)
from util import (
    ACC_160,
    ACC_320,
    ACC_640,
    RATE_12DBM_100DB,
    T_TRANS_28_1_KBIT,
    make_device,
    reference_costs,
    table_instance,
    topology_from_gains,
)


def test_unit_conversions():
    assert dbm_to_watts(0.0) == pytest.approx(1e-3)
    assert dbm_to_watts(12.0) == pytest.approx(0.015848931924611134)


class TestSystemParams:
    def test_defaults_are_valid(self):
        p = SystemParams()
        assert p.subchannel_bandwidth_hz == pytest.approx(0.8e6)
        assert p.std_sample_scale * p.std_resolution_px**2 == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "kw",
        [
            {"weight_energy": 0.6, "weight_time": 0.6},
            {"weight_energy": -0.1, "weight_time": 1.1},
            {"weight_accuracy": -1.0},
            {"resolution_set_px": (320.0, 160.0, 640.0)},
            {"p_min_w": 0.02, "p_max_w": 0.01},
            {"f_min_hz": 0.0},
            {"channel_count": 0},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            SystemParams(**kw)


def _topology_arrays(**change):
    arrays = {
        "id": np.arange(4),
        "distance_km": np.full(4, 0.2),
        "cycles_per_std_sample": np.full(4, 2e4),
        "sample_count": np.full(4, 500.0),
        "upload_bits": np.full(4, 28.1e3),
        "gains": np.array([1e-10, 2e-10, 1e-10, 2e-10]),
    }
    arrays.update(change)
    return arrays


class TestPairedTopology:
    def test_holds_read_only_copies(self):
        arrays = _topology_arrays()
        topo = PairedTopology(**arrays)
        arrays["gains"][0] = 5.0
        assert topo.gains[0] == 1e-10
        with pytest.raises(ValueError):
            topo.gains[0] = 1.0
        assert (topo.n_devices, topo.n_channels) == (4, 2)
        assert [d.id for d in topo.devices()] == [0, 1, 2, 3]

    @pytest.mark.parametrize(
        "change,message",
        [
            ({"id": np.arange(3)}, "two devices per channel"),
            ({"id": np.arange(0)}, "two devices per channel"),
            ({"upload_bits": np.full(2, 28.1e3)}, "one value per device"),
            ({"gains": np.array([0.0, 2e-10, 1e-10, 2e-10])}, "finite and positive"),
            ({"gains": np.array([1e-10, 2e-10, 1e-10, np.inf])}, "finite and positive"),
            ({"gains": np.array([1e-10, np.nan, 1e-10, 2e-10])}, "finite and positive"),
            ({"gains": np.array([1e-10, 2e-10, 3e-10, 2e-10])}, "ascending gain"),
        ],
        ids=[
            "odd-count",
            "empty",
            "short-array",
            "zero-gain",
            "infinite-gain",
            "nan-gain",
            "descending-pair",
        ],
    )
    def test_rejects_bad_arrays(self, change, message):
        with pytest.raises(ValueError, match=message):
            PairedTopology(**_topology_arrays(**change))


class TestUplinkRate:
    def setup_method(self):
        self.params = SystemParams()
        self.topo = topology_from_gains([1e-10, 2e-10])

    def rates(self, powers):
        return uplink_rates(self.params, self.topo, np.array(powers))

    def test_zero_power_zero_rate(self):
        assert np.all(self.rates((0.0, 0.0)) == 0.0)

    def test_reference_value(self):
        # 12 dBm through a -100 dB channel on a 0.8 MHz subchannel
        rate = self.rates((dbm_to_watts(12.0), 0.0))[0]
        assert rate == pytest.approx(RATE_12DBM_100DB, rel=1e-12)

    def test_interference_dominated_limit(self):
        # when the first member's received power dwarfs the noise, the
        # second member's rate collapses to the power-ratio form
        p = (0.5, 0.01)
        rate = self.rates(p)[1]
        g1, g2 = self.topo.gains
        approx = self.params.subchannel_bandwidth_hz * math.log2(1 + p[1] * g2 / (p[0] * g1))
        assert rate == pytest.approx(approx, rel=1e-3)

    def test_monotone_in_own_power(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            p1, p2 = rng.uniform(1e-3, 0.015, 2)
            step = 1e-4
            for member, powers_lo, powers_hi in [
                (0, (p1, p2), (p1 + step, p2)),
                (1, (p1, p2), (p1, p2 + step)),
            ]:
                assert self.rates(powers_hi)[member] > self.rates(powers_lo)[member]

    def test_non_increasing_in_interferer_power(self):
        base = self.rates((1e-3, 5e-3))
        more = self.rates((2e-3, 5e-3))
        assert more[1] < base[1]
        # member 0 decodes after cancellation: unaffected by member 1
        assert base[0] == self.rates((1e-3, 1e-2))[0]


class TestTransmissionCost:
    def test_reference_division(self):
        dev = make_device(0)
        t, e = transmission_cost(dev, RATE_12DBM_100DB, dbm_to_watts(12.0))
        assert t == pytest.approx(T_TRANS_28_1_KBIT, rel=1e-12)
        assert e == pytest.approx(dbm_to_watts(12.0) * T_TRANS_28_1_KBIT, rel=1e-12)

    def test_zero_power_zero_energy(self):
        t, e = transmission_cost(make_device(0), 1e6, 0.0)
        assert e == 0.0 and t > 0.0

    def test_energy_linear_in_power(self):
        dev = make_device(0)
        _, e1 = transmission_cost(dev, 2e6, 0.004)
        _, e2 = transmission_cost(dev, 2e6, 0.008)
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_zero_rate_is_an_error(self):
        with pytest.raises(UnreachableDeviceError):
            transmission_cost(make_device(3), 0.0, 0.01)

    def test_topology_zero_rate_names_the_device(self):
        topo = topology_from_gains([1e-10, 2e-10, 1e-10, 2e-10])
        rates = np.array([1e6, 2e6, 0.0, 1e6])
        with pytest.raises(UnreachableDeviceError, match=r"^device 2 has zero uplink rate"):
            transmission_cost(topo, rates, np.full(4, 5e-3))


class TestComputationCost:
    def test_standard_resolution_reference(self):
        params = SystemParams()
        dev = make_device(0, cycles=2e4)
        t, e = computation_cost(params, dev, 100.0, 1e9)
        assert e == pytest.approx(0.01, rel=1e-12)
        assert t == pytest.approx(0.1, rel=1e-12)

    def test_standard_resolution_drops_pixel_scale(self):
        # at the standard resolution the pixel scaling factor is exactly 1
        params = SystemParams()
        dev = make_device(0, cycles=1.7e4, samples=321.0)
        f = 7.7e8
        t, e = computation_cost(params, dev, params.std_resolution_px, f)
        kappa, eta = params.switched_capacitance, params.local_iterations
        assert e == pytest.approx(kappa * eta * dev.cycles_per_std_sample * dev.sample_count * f * f)
        assert t == pytest.approx(eta * dev.cycles_per_std_sample * dev.sample_count / f)

    def test_quadratic_resolution_scaling(self):
        params = SystemParams()
        dev = make_device(0)
        t1, e1 = computation_cost(params, dev, 160.0, 5e8)
        t2, e2 = computation_cost(params, dev, 320.0, 5e8)
        assert e2 == pytest.approx(4.0 * e1, rel=1e-12)
        assert t2 == pytest.approx(4.0 * t1, rel=1e-12)

    def test_below_minimum_frequency_rejected(self):
        params = SystemParams()
        with pytest.raises(ValueError):
            computation_cost(params, make_device(0), 160.0, 0.5 * params.f_min_hz)

    def test_below_minimum_message_shows_the_shortfall(self):
        params = SystemParams()
        cpu = params.f_min_hz * (1 - 1e-8)
        with pytest.raises(ValueError, match=r"lies 0\.01 Hz below the minimum 1e\+06 Hz"):
            computation_cost(params, make_device(0), 160.0, cpu)


class TestAccuracy:
    @pytest.mark.parametrize(
        "resolution,expected", [(160.0, ACC_160), (320.0, ACC_320), (640.0, ACC_640)]
    )
    def test_reference_values(self, resolution, expected):
        assert accuracy_of(resolution) == pytest.approx(expected, rel=1e-12)

    def test_bounds_and_monotonicity_on_selectable_range(self):
        grid = np.linspace(160.0, 640.0, 200)
        vals = np.array([accuracy_of(s) for s in grid])
        assert np.all(vals > 0.0) and np.all(vals < 1.0)
        assert np.all(np.diff(vals) > 0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            accuracy_of(0.0)


class TestEvaluate:
    def test_symmetric_pair(self):
        params = SystemParams()
        topo = topology_from_gains([1e-10, 1e-10])
        n = topo.n_devices
        alloc = Allocation(
            power_w=np.full(n, 5e-3),
            cpu_hz=np.full(n, 1e9),
            resolution_px=np.full(n, 320.0),
        )
        costs = evaluate(params, topo, alloc)
        assert costs.e_cmp_j[0] == costs.e_cmp_j[1]
        assert costs.t_cmp_s[0] == costs.t_cmp_s[1]
        # only the second member sees interference
        assert costs.rate_bps[1] < costs.rate_bps[0]

    def test_gamma_zero_objective_is_energy_time_only(self):
        params = SystemParams(weight_accuracy=0.0)
        topo = topology_from_gains([1e-10, 2e-10])
        n = topo.n_devices
        for s in (160.0, 640.0):
            alloc = Allocation(
                power_w=np.full(n, 5e-3),
                cpu_hz=np.full(n, 1e9),
                resolution_px=np.full(n, s),
            )
            costs = evaluate(params, topo, alloc)
            assert costs.objective == pytest.approx(costs.weighted_energy_time, rel=1e-15)

    def test_matches_independent_accumulation(self):
        # same quantities accumulated device by device with scalar math
        params, topo = table_instance(seed=5)
        rng = np.random.default_rng(2)
        n = topo.n_devices
        alloc = Allocation(
            power_w=rng.uniform(params.p_min_w, params.p_max_w, n),
            cpu_hz=rng.uniform(params.f_min_hz, params.f_max_hz, n),
            resolution_px=rng.choice(np.array(params.resolution_set_px), n),
        )
        costs = evaluate(params, topo, alloc)
        ref = reference_costs(params, topo, alloc.power_w, alloc.cpu_hz, alloc.resolution_px)
        assert costs.objective == pytest.approx(ref["objective"], rel=1e-9)

    def test_objective_linear_in_weights(self):
        base, topo = table_instance(seed=1)
        n = topo.n_devices
        rng = np.random.default_rng(3)
        alloc = Allocation(
            power_w=rng.uniform(base.p_min_w, base.p_max_w, n),
            cpu_hz=rng.uniform(base.f_min_hz, base.f_max_hz, n),
            resolution_px=np.full(n, 320.0),
        )
        from dataclasses import replace

        energy_only = evaluate(replace(base, weight_energy=1.0, weight_time=0.0, weight_accuracy=0.0), topo, alloc)
        time_only = evaluate(replace(base, weight_energy=0.0, weight_time=1.0, weight_accuracy=0.0), topo, alloc)
        mixed = evaluate(replace(base, weight_energy=0.3, weight_time=0.7, weight_accuracy=1.3), topo, alloc)
        expected = 0.3 * energy_only.objective + 0.7 * time_only.objective - 1.3 * mixed.total_accuracy
        assert mixed.objective == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_units_audit(self, seed):
        # default-unit inputs must produce joule/second magnitudes in sane
        # ranges; anything outside flags a conversion slip
        params, topo = table_instance(seed=seed)
        n = topo.n_devices
        alloc = Allocation(
            power_w=np.full(n, 0.5 * (params.p_min_w + params.p_max_w)),
            cpu_hz=np.full(n, 1e9),
            resolution_px=np.full(n, 320.0),
        )
        costs = evaluate(params, topo, alloc)
        per_device_energy = costs.e_trans_j + costs.e_cmp_j
        per_device_time = costs.t_trans_s + costs.t_cmp_s
        assert np.all(per_device_energy >= 1e-6) and np.all(per_device_energy <= 1e3)
        assert np.all(per_device_time >= 1e-4) and np.all(per_device_time <= 1e3)

    def test_out_of_bounds_allocation_rejected(self):
        params, topo = table_instance(seed=1)
        n = topo.n_devices
        alloc = Allocation(
            power_w=np.full(n, 2 * params.p_max_w),
            cpu_hz=np.full(n, 1e9),
            resolution_px=np.full(n, 320.0),
        )
        with pytest.raises(ValueError):
            evaluate(params, topo, alloc)

    def test_frequency_within_the_box_tolerance_of_f_min_evaluates(self):
        # the box check admits f_min less 1e-9 relative, so costing must too
        params, topo = table_instance(seed=1)
        n = topo.n_devices
        alloc = Allocation(
            power_w=np.full(n, 0.5 * (params.p_min_w + params.p_max_w)),
            cpu_hz=np.full(n, params.f_min_hz * (1 - 1e-10)),
            resolution_px=np.full(n, 160.0),
        )
        costs = evaluate(params, topo, alloc)
        assert np.isfinite(costs.objective)
        assert np.array_equal(costs.t_cmp_s, computation_cost(params, topo, 160.0, alloc.cpu_hz)[0])

    @pytest.mark.parametrize("field", ["power_w", "cpu_hz", "resolution_px"])
    def test_nan_allocation_rejected(self, field):
        # a NaN is neither below nor above a bound, so each check must fail on it
        params, topo = table_instance(seed=1)
        n = topo.n_devices
        alloc = Allocation(
            power_w=np.full(n, 0.5 * (params.p_min_w + params.p_max_w)),
            cpu_hz=np.full(n, 1e9),
            resolution_px=np.full(n, 320.0),
        )
        getattr(alloc, field)[17] = np.nan
        with pytest.raises(ValueError, match="outside"):
            evaluate(params, topo, alloc)

    def test_unreachable_device_surfaces(self):
        params = SystemParams(p_min_w=0.0)
        topo = topology_from_gains([1e-10, 2e-10])
        alloc = Allocation(
            power_w=np.array([0.0, 5e-3]),
            cpu_hz=np.full(2, 1e9),
            resolution_px=np.full(2, 320.0),
        )
        with pytest.raises(UnreachableDeviceError):
            evaluate(params, topo, alloc)

    def test_zero_power_names_the_unreachable_device(self):
        params = SystemParams(channel_count=2, p_min_w=0.0)
        topo = topology_from_gains([1e-10, 2e-10, 1e-10, 2e-10], ids=[17, 4, 9, 30])
        alloc = Allocation(
            power_w=np.array([5e-3, 5e-3, 5e-3, 0.0]),
            cpu_hz=np.full(4, 1e9),
            resolution_px=np.full(4, 320.0),
        )
        with pytest.raises(UnreachableDeviceError, match=r"^device 30 has zero uplink rate"):
            evaluate(params, topo, alloc)


@st.composite
def cells_and_allocations(draw):
    """A random paired topology with an allocation inside the boxes."""
    channels = draw(st.integers(1, 6))
    params = SystemParams(
        channel_count=channels,
        weight_energy=(alpha := draw(st.floats(0.05, 1.0))),
        weight_time=1.0 - alpha,
        weight_accuracy=draw(st.floats(0.0, 2.0)),
    )
    n = 2 * channels
    unit = st.floats(0.0, 1.0)
    gains = np.sort(
        np.array(draw(st.lists(st.floats(-13.0, -8.0), min_size=n, max_size=n))).reshape(-1, 2)
    ).ravel()
    topo = topology_from_gains(
        10.0**gains,
        cycles=draw(st.lists(st.floats(1e4, 3e4), min_size=n, max_size=n)),
    )
    frac = np.array(draw(st.lists(unit, min_size=3 * n, max_size=3 * n))).reshape(3, n)
    alloc = Allocation(
        power_w=params.p_min_w + frac[0] * (params.p_max_w - params.p_min_w),
        cpu_hz=params.f_min_hz + frac[1] * (params.f_max_hz - params.f_min_hz),
        resolution_px=160.0 + frac[2] * 480.0,
    )
    return params, topo, alloc


@settings(max_examples=60, deadline=None)
@given(cells_and_allocations())
def test_evaluate_matches_scalar_reference(case):
    params, topo, alloc = case
    costs = evaluate(params, topo, alloc)
    ref = reference_costs(params, topo, alloc.power_w, alloc.cpu_hz, alloc.resolution_px)
    for name in ("rate_bps", "t_trans_s", "e_trans_j", "t_cmp_s", "e_cmp_j", "accuracy"):
        np.testing.assert_allclose(getattr(costs, name), ref[name], rtol=1e-12, atol=0.0)
    # the objective is a difference of terms: measure its error against their size
    scale = (
        params.weight_energy * costs.total_energy_j
        + params.weight_time * costs.total_time_s
        + params.weight_accuracy * costs.total_accuracy
    )
    assert abs(costs.objective - ref["objective"]) <= 1e-12 * scale


def test_uplink_rates_matches_scalar_op():
    params, topo = table_instance(seed=4)
    rng = np.random.default_rng(4)
    p = rng.uniform(params.p_min_w, params.p_max_w, topo.n_devices)
    rates = uplink_rates(params, topo, p)
    n = topo.n_devices
    ref = reference_costs(params, topo, p, np.full(n, 1e9), np.full(n, 320.0))
    np.testing.assert_allclose(rates, ref["rate_bps"], rtol=1e-14, atol=0.0)
