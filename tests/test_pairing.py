import numpy as np
import pytest

from fedmar.model import ParamsError, SystemParams
from fedmar.pairing import (
    DeviceParamRanges,
    PairingScheme,
    TopologyConfig,
    channel_gain,
    pair_users,
    sample_topology,
)
from util import (
    GAIN_100M_NO_SHADOW,
    make_devices,
    reference_generate_topology,
    reference_pair_users,
    reference_sample_gains,
    scalar_devices,
)

DEVICE_FIELDS = ("id", "distance_km", "cycles_per_std_sample", "sample_count", "upload_bits")


class TestGenerateTopology:
    def test_deterministic_for_fixed_seed(self):
        config = TopologyConfig(rng_seed=11)
        (a, _), (b, _) = sample_topology(config), sample_topology(config)
        other, _ = sample_topology(TopologyConfig(rng_seed=12))
        for name in DEVICE_FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert not np.array_equal(a.distance_km, other.distance_km)

    def test_default_counts_and_ranges(self):
        devices, _ = sample_topology(TopologyConfig(rng_seed=2))
        assert np.array_equal(devices.id, np.arange(50))
        cycles = devices.cycles_per_std_sample
        assert np.all(cycles >= 1e4) and np.all(cycles <= 3e4)
        distances = devices.distance_km
        assert np.all(distances >= 0.01) and np.all(distances <= 0.5)
        assert np.all(devices.sample_count == 500.0) and np.all(devices.upload_bits == 28.1e3)
        assert all(np.shape(getattr(devices, name)) == (50,) for name in DEVICE_FIELDS)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TopologyConfig(user_count=49)
        with pytest.raises(ValueError):
            TopologyConfig(min_distance_km=0.6)
        with pytest.raises(ValueError):
            TopologyConfig(cell_radius_km=np.inf)
        with pytest.raises(ValueError, match="shadow sigma too large"):
            TopologyConfig(shadow_sigma_db=2000.0)
        TopologyConfig(shadow_sigma_db=20.0)

    def test_unshadowed_gain_overflow_blames_the_distances(self):
        # 1e-300 km gives a path gain of 10**1115, with no shadow draw at all
        with pytest.raises(ParamsError) as info:
            TopologyConfig(min_distance_km=1e-300, shadow_sigma_db=0.0)
        assert info.value.fields == ("min_distance_km", "cell_radius_km")
        assert "sigma" not in str(info.value)

    @pytest.mark.parametrize("sigma", [0.0, 3.3, 8.0, 17.0])
    def test_extreme_gains_are_the_scalar_gains(self, sigma):
        # the values the range check computed, bit for bit the scalar formula's
        config = TopologyConfig(min_distance_km=0.02, cell_radius_km=0.7, shadow_sigma_db=sigma)
        assert config.strongest_gain == float(channel_gain(0.02, -10.0 * sigma))
        assert config.weakest_gain == float(channel_gain(0.7, 10.0 * sigma))
        assert type(config.strongest_gain) is float and type(config.weakest_gain) is float

    @pytest.mark.parametrize(
        "kw",
        [
            {"sample_count": 0.0},
            {"sample_count": np.inf},
            {"upload_bits": 0.0},
            {"cycles_low": 5e4},
            {"cycles_low": -5.0},
            {"cycles_high": np.inf},
        ],
    )
    def test_ranges_validation(self, kw):
        with pytest.raises(ValueError):
            DeviceParamRanges(**kw)


class TestChannelGain:
    def test_one_km_reference(self):
        assert channel_gain(1.0, 0.0) == pytest.approx(10.0**-12.81, rel=1e-12)

    def test_hundred_meter_reference(self):
        assert channel_gain(0.1, 0.0) == pytest.approx(GAIN_100M_NO_SHADOW, rel=1e-12)

    def test_shadow_shift_is_db_exact(self):
        ratio = channel_gain(0.2, 8.0) / channel_gain(0.2, 0.0)
        assert ratio == pytest.approx(10.0**-0.8, rel=1e-12)

    def test_decreasing_in_distance(self):
        distances = np.linspace(0.01, 0.5, 100)
        gains = [channel_gain(d, 0.0) for d in distances]
        assert np.all(np.diff(gains) < 0)

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            channel_gain(0.0, 0.0)


class TestPairUsers:
    def setup_method(self):
        self.params = SystemParams(channel_count=2)

    def test_nearest_user_chunks_sorted_order(self):
        devices = make_devices([0.3, 0.1, 0.4, 0.2])
        gains = np.array([1e-10, 4e-10, 0.5e-10, 2e-10])
        topo = pair_users(self.params, devices, gains, PairingScheme.NEAREST_USER)
        chosen = [set(pair) for pair in topo.distance_km.reshape(-1, 2).tolist()]
        assert chosen == [{0.1, 0.2}, {0.3, 0.4}]

    def test_nearest_farthest_pairs_ends_inward(self):
        devices = make_devices([0.1, 0.2, 0.3, 0.4])
        gains = np.array([4e-10, 3e-10, 2e-10, 1e-10])
        topo = pair_users(self.params, devices, gains, PairingScheme.NEAREST_FARTHEST)
        chosen = [set(pair) for pair in topo.distance_km.reshape(-1, 2).tolist()]
        assert chosen == [{0.1, 0.4}, {0.2, 0.3}]

    def test_random_is_seeded(self):
        devices = make_devices([0.1, 0.2, 0.3, 0.4])
        gains = np.array([4e-10, 3e-10, 2e-10, 1e-10])
        a = pair_users(self.params, devices, gains, PairingScheme.RANDOM, rng_seed=9)
        b = pair_users(self.params, devices, gains, PairingScheme.RANDOM, rng_seed=9)
        assert np.array_equal(a.id, b.id)

    def test_rejects_device_count_other_than_two_per_channel(self):
        devices = make_devices([0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
        with pytest.raises(ValueError, match="6 devices do not fill 2 channels"):
            pair_users(self.params, devices, np.full(6, 1e-10), PairingScheme.NEAREST_USER)

    def test_rejects_odd_count(self):
        devices = make_devices([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            pair_users(self.params, devices, np.array([1e-10] * 3), PairingScheme.NEAREST_USER)

    @pytest.mark.parametrize("scheme", list(PairingScheme))
    def test_partition_and_gain_order(self, scheme):
        params = SystemParams()
        config = TopologyConfig(rng_seed=7)
        devices, gains = sample_topology(config)
        topo = pair_users(params, devices, gains, scheme, rng_seed=7)
        assert sorted(topo.id) == sorted(devices.id)
        assert topo.n_channels == 25
        assert np.all(topo.gains[0::2] <= topo.gains[1::2])
        # every device keeps its own fields and gain
        for name in DEVICE_FIELDS:
            assert np.array_equal(getattr(topo, name), getattr(devices, name)[topo.id])
        assert np.array_equal(topo.gains, gains[topo.id])

    def test_gain_ties_break_by_device_id(self):
        devices = make_devices([0.1, 0.2])
        params = SystemParams(channel_count=1)
        topo = pair_users(params, devices, np.array([2e-10, 2e-10]), PairingScheme.NEAREST_USER)
        assert [d.id for d in topo.devices()] == [0, 1]


def _assert_matches_reference(topo, expected):
    for name, want in expected.items():
        got = getattr(topo, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


class TestReferenceParity:
    """Array sampling and pairing reproduce the object-based reference in
    ``util`` bit for bit."""

    @pytest.mark.parametrize("scheme", list(PairingScheme))
    @pytest.mark.parametrize("sigma", [0.0, 8.0, 20.0])
    @pytest.mark.parametrize("users", [2, 4, 50, 2000])
    def test_sampled_topology_matches_reference(self, users, sigma, scheme):
        params = SystemParams(channel_count=users // 2)
        for seed in (1, 2):
            config = TopologyConfig(
                user_count=users, channel_count=users // 2, shadow_sigma_db=sigma, rng_seed=seed
            )
            devices, gains = sample_topology(config)
            ref_devices = reference_generate_topology(config)
            ref_gains = reference_sample_gains(config, ref_devices)
            assert np.array_equal(gains, ref_gains)
            topo = pair_users(params, devices, gains, scheme, rng_seed=seed)
            expected = reference_pair_users(params, ref_devices, ref_gains, scheme, rng_seed=seed)
            _assert_matches_reference(topo, expected)
            assert topo.devices() == [ref_devices[i] for i in expected["id"]]

    @pytest.mark.parametrize("scheme", list(PairingScheme))
    def test_distance_and_gain_ties_match_reference(self, scheme):
        rng = np.random.default_rng(23)
        for users in (2, 6, 40, 400):
            params = SystemParams(channel_count=users // 2)
            # three distances and three gains, so most pairs tie on both
            distances = rng.choice([0.05, 0.2, 0.4], users)
            gains = rng.choice([1e-11, 3e-11, 1e-10], users)
            devices = make_devices(distances, cycles=rng.uniform(1e4, 3e4, users))
            topo = pair_users(params, devices, gains, scheme, rng_seed=users)
            expected = reference_pair_users(
                params, scalar_devices(devices), gains, scheme, rng_seed=users
            )
            _assert_matches_reference(topo, expected)


class TestShadowSampling:
    def test_gains_deterministic_per_seed(self):
        config = TopologyConfig(rng_seed=3)
        (_, a), (_, b) = sample_topology(config), sample_topology(config)
        assert np.array_equal(a, b)

    def test_zero_sigma_reduces_to_path_loss(self):
        config = TopologyConfig(rng_seed=3, shadow_sigma_db=0.0)
        devices, gains = sample_topology(config)
        expected = [channel_gain(d, 0.0) for d in devices.distance_km]
        assert gains == pytest.approx(expected)
