import numpy as np
import pytest

from fedmar.model import SystemParams
from fedmar.pairing import (
    PairingScheme,
    TopologyConfig,
    channel_gain,
    generate_topology,
    pair_users,
    sample_gains,
    sample_topology,
)
from util import GAIN_100M_NO_SHADOW, make_device


class TestGenerateTopology:
    def test_deterministic_for_fixed_seed(self):
        config = TopologyConfig(rng_seed=11)
        assert generate_topology(config) == generate_topology(config)
        other = generate_topology(TopologyConfig(rng_seed=12))
        assert other != generate_topology(config)

    def test_default_counts_and_ranges(self):
        devices = generate_topology(TopologyConfig(rng_seed=2))
        assert len(devices) == 50
        cycles = np.array([d.cycles_per_std_sample for d in devices])
        assert np.all(cycles >= 1e4) and np.all(cycles <= 3e4)
        distances = np.array([d.distance_km for d in devices])
        assert np.all(distances >= 0.01) and np.all(distances <= 0.5)
        assert all(d.sample_count == 500.0 and d.upload_bits == 28.1e3 for d in devices)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TopologyConfig(user_count=49)
        with pytest.raises(ValueError):
            TopologyConfig(min_distance_km=0.6)


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

    def _devices(self, distances):
        return [make_device(i, distance_km=d) for i, d in enumerate(distances)]

    def test_nearest_user_chunks_sorted_order(self):
        devices = self._devices([0.3, 0.1, 0.4, 0.2])
        gains = np.array([1e-10, 4e-10, 0.5e-10, 2e-10])
        topo = pair_users(self.params, devices, gains, PairingScheme.NEAREST_USER)
        chosen = [{d.distance_km for d in ch.devices} for ch in topo.channels]
        assert chosen == [{0.1, 0.2}, {0.3, 0.4}]

    def test_nearest_farthest_pairs_ends_inward(self):
        devices = self._devices([0.1, 0.2, 0.3, 0.4])
        gains = np.array([4e-10, 3e-10, 2e-10, 1e-10])
        topo = pair_users(self.params, devices, gains, PairingScheme.NEAREST_FARTHEST)
        chosen = [{d.distance_km for d in ch.devices} for ch in topo.channels]
        assert chosen == [{0.1, 0.4}, {0.2, 0.3}]

    def test_random_is_seeded(self):
        devices = self._devices([0.1, 0.2, 0.3, 0.4])
        gains = np.array([4e-10, 3e-10, 2e-10, 1e-10])
        a = pair_users(self.params, devices, gains, PairingScheme.RANDOM, rng_seed=9)
        b = pair_users(self.params, devices, gains, PairingScheme.RANDOM, rng_seed=9)
        assert [ch.devices for ch in a.channels] == [ch.devices for ch in b.channels]

    def test_rejects_odd_count(self):
        devices = self._devices([0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            pair_users(self.params, devices, np.array([1e-10] * 3), PairingScheme.NEAREST_USER)

    @pytest.mark.parametrize("scheme", list(PairingScheme))
    def test_partition_and_gain_order(self, scheme):
        params = SystemParams()
        config = TopologyConfig(rng_seed=7)
        devices, gains = sample_topology(config)
        topo = pair_users(params, devices, gains, scheme, rng_seed=7)
        seen = sorted(d.id for ch in topo.channels for d in ch.devices)
        assert seen == sorted(d.id for d in devices)
        assert [ch.channel_index for ch in topo.channels] == list(range(25))
        for ch in topo.channels:
            (_, g1), (_, g2) = ch.members
            assert g1 <= g2

    def test_gain_ties_break_by_device_id(self):
        devices = self._devices([0.1, 0.2])[:2]
        params = SystemParams(channel_count=1)
        topo = pair_users(params, devices, np.array([2e-10, 2e-10]), PairingScheme.NEAREST_USER)
        assert [d.id for d in topo.channels[0].devices] == [0, 1]


class TestShadowSampling:
    def test_gains_deterministic_per_seed(self):
        config = TopologyConfig(rng_seed=3)
        devices = generate_topology(config)
        assert np.array_equal(sample_gains(config, devices), sample_gains(config, devices))

    def test_zero_sigma_reduces_to_path_loss(self):
        config = TopologyConfig(rng_seed=3, shadow_sigma_db=0.0)
        devices = generate_topology(config)
        gains = sample_gains(config, devices)
        expected = [channel_gain(d.distance_km, 0.0) for d in devices]
        assert gains == pytest.approx(expected)
