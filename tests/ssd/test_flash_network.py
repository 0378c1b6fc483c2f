"""Unit tests for the bus and mesh flash networks."""

import math

import pytest

from repro.config import GPU_FREQ_HZ, ZNANDConfig, bandwidth_to_bytes_per_cycle
from repro.ssd.flash_network import FlashNetwork

NETWORK_TYPES = ["bus", "mesh"]


def link_bytes_per_cycle(config, network_type):
    """The per-link bandwidth Table I gives each network type."""
    if network_type == "bus":
        return bandwidth_to_bytes_per_cycle(config.channel_bandwidth_bytes_per_s)
    return bandwidth_to_bytes_per_cycle(config.flash_network_bandwidth_bytes_per_s)


class TestFlashNetwork:
    def test_bus_narrower_than_mesh(self):
        config = ZNANDConfig()
        bus = FlashNetwork(config, network_type="bus")
        mesh = FlashNetwork(config, network_type="mesh")
        assert mesh.per_channel_bandwidth_bytes_per_s > bus.per_channel_bandwidth_bytes_per_s

    def test_mesh_is_8x_bus(self):
        """Table I: flash network bus width 8 B vs conventional 1 B channel."""
        config = ZNANDConfig()
        bus = FlashNetwork(config, network_type="bus")
        mesh = FlashNetwork(config, network_type="mesh")
        ratio = mesh.per_channel_bandwidth_bytes_per_s / bus.per_channel_bandwidth_bytes_per_s
        assert ratio == pytest.approx(8.0)

    def test_transfer_completion(self):
        network = FlashNetwork(ZNANDConfig(), network_type="mesh")
        completion = network.transfer(channel=0, num_bytes=4096, now=0.0)
        assert completion > 0.0

    def test_mesh_has_hop_latency(self):
        config = ZNANDConfig()
        mesh = FlashNetwork(config, network_type="mesh")
        # A zero-byte transfer still pays the mesh hop latency.
        completion = mesh.transfer(0, 0, 0.0)
        assert completion > 0.0

    def test_channel_contention(self):
        network = FlashNetwork(ZNANDConfig(), network_type="bus")
        first = network.transfer(0, 4096, 0.0)
        second = network.transfer(0, 4096, 0.0)
        assert second > first

    def test_independent_channels_parallel(self):
        network = FlashNetwork(ZNANDConfig(), network_type="mesh")
        a = network.transfer(0, 4096, 0.0)
        b = network.transfer(1, 4096, 0.0)
        assert a == pytest.approx(b)

    def test_total_bandwidth_scales_with_channels(self):
        network = FlashNetwork(ZNANDConfig(), network_type="mesh")
        assert network.total_bandwidth_bytes_per_s == pytest.approx(
            network.per_channel_bandwidth_bytes_per_s * 16
        )

    def test_invalid_type(self):
        with pytest.raises(ValueError):
            FlashNetwork(ZNANDConfig(), network_type="ring")

    def test_reset(self):
        network = FlashNetwork(ZNANDConfig(), network_type="mesh")
        network.transfer(0, 128, 0.0)
        network.reset()
        assert network.bytes_transferred() == 0

    def test_default_type_follows_the_config(self):
        assert FlashNetwork(ZNANDConfig()).network_type == "bus"
        mesh_config = ZNANDConfig(flash_network_type="mesh")
        assert FlashNetwork(mesh_config).network_type == "mesh"

    @pytest.mark.parametrize("network_type", NETWORK_TYPES)
    def test_one_link_per_channel(self, network_type):
        config = ZNANDConfig()
        network = FlashNetwork(config, network_type=network_type)
        names = [link.name for link in network.links]
        assert names == [f"flash_{network_type}_ch{i}" for i in range(config.channels)]

    @pytest.mark.parametrize("network_type", NETWORK_TYPES)
    def test_per_channel_bandwidth_is_the_table1_link(self, network_type):
        config = ZNANDConfig()
        network = FlashNetwork(config, network_type=network_type)
        assert network.per_channel_bandwidth_bytes_per_s / GPU_FREQ_HZ == pytest.approx(
            link_bytes_per_cycle(config, network_type))

    @pytest.mark.parametrize("network_type", NETWORK_TYPES)
    def test_transfer_time_is_bytes_over_link_bandwidth(self, network_type):
        config = ZNANDConfig()
        network = FlashNetwork(config, network_type=network_type)
        fixed = network.transfer(0, 0, 0.0)
        completion = network.transfer(1, 4096, 0.0)
        assert completion - fixed == pytest.approx(
            4096 / link_bytes_per_cycle(config, network_type))

    def test_mesh_latency_is_average_hops_times_hop_latency(self):
        mesh = FlashNetwork(ZNANDConfig(), network_type="mesh")
        assert mesh.transfer(0, 0, 0.0) == pytest.approx(
            FlashNetwork.MESH_HOP_LATENCY_CYCLES * FlashNetwork.MESH_AVERAGE_HOPS)

    def test_bus_has_no_fixed_latency(self):
        bus = FlashNetwork(ZNANDConfig(), network_type="bus")
        assert bus.transfer(0, 0, 25.0) == 25.0

    def test_transfer_starts_no_earlier_than_requested(self):
        network = FlashNetwork(ZNANDConfig(), network_type="mesh")
        early = network.transfer(0, 4096, 0.0)
        late = network.transfer(1, 4096, 1000.0)
        assert late == pytest.approx(early + 1000.0)

    def test_channel_index_wraps_onto_the_links(self):
        config = ZNANDConfig()
        network = FlashNetwork(config, network_type="bus")
        first = network.transfer(0, 4096, 0.0)
        # Channel ``channels`` is link 0 again, so it queues behind the first.
        second = network.transfer(config.channels, 4096, 0.0)
        assert second == pytest.approx(2 * first)

    def test_reset_frees_the_links(self):
        network = FlashNetwork(ZNANDConfig(), network_type="bus")
        first = network.transfer(0, 4096, 0.0)
        network.transfer(0, 4096, 0.0)
        network.reset()
        assert network.transfer(0, 4096, 0.0) == pytest.approx(first)

    def test_bytes_transferred_sums_every_channel(self):
        network = FlashNetwork(ZNANDConfig(), network_type="mesh")
        for channel in range(4):
            network.transfer(channel, 1000 * (channel + 1), 0.0)
        assert network.bytes_transferred() == 10_000

    def test_achieved_bandwidth_is_bytes_per_second(self):
        network = FlashNetwork(ZNANDConfig(), network_type="mesh")
        network.transfer(0, 4096, 0.0)
        network.transfer(1, 4096, 0.0)
        # GPU_FREQ_HZ cycles is one second.
        assert network.achieved_bandwidth_bytes_per_s(GPU_FREQ_HZ) == pytest.approx(8192.0)

    def test_achieved_bandwidth_of_an_empty_horizon_is_zero(self):
        network = FlashNetwork(ZNANDConfig(), network_type="mesh")
        network.transfer(0, 4096, 0.0)
        assert network.achieved_bandwidth_bytes_per_s(0.0) == 0.0

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 1, mesh hop count: XY routing on the 4x4 mesh averages "
        "8/3 hops between distinct channels, but MESH_AVERAGE_HOPS is 2.0"))
    def test_average_hops_match_the_mesh(self):
        channels = ZNANDConfig().channels
        dim = math.ceil(math.sqrt(channels))
        routers = [(c % dim, c // dim) for c in range(channels)]
        hops = [abs(ax - bx) + abs(ay - by)
                for a, (ax, ay) in enumerate(routers)
                for b, (bx, by) in enumerate(routers) if a != b]
        assert sum(hops) / len(hops) == pytest.approx(FlashNetwork.MESH_AVERAGE_HOPS)
