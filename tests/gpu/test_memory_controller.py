"""Unit tests for the memory controllers of GDDR5, Hetero and Optane."""

import pytest

from repro.config import (
    GDDR5,
    OptaneConfig,
    bandwidth_to_bytes_per_cycle,
    ns_to_cycles,
)
from repro.gpu.memory_controller import (
    MemoryControllerArray,
    build_gddr5_controllers,
    build_optane_controllers,
)


def make(controllers=2, interleave_bytes=256, granule_bytes=1):
    """Controllers of 8 bytes/cycle each, 100-cycle reads and 300-cycle writes."""
    return MemoryControllerArray(
        name="mc",
        controllers=controllers,
        bandwidth_gbps=bandwidth_gbps_for(8.0) * controllers,
        read_latency_cycles=100.0,
        write_latency_cycles=300.0,
        interleave_bytes=interleave_bytes,
        granule_bytes=granule_bytes,
    )


def bandwidth_gbps_for(bytes_per_cycle):
    """The GB/s that moves ``bytes_per_cycle`` at the GPU clock."""
    return bytes_per_cycle / bandwidth_to_bytes_per_cycle(1e9)


class TestMemoryControllerArray:
    def test_idle_access_is_latency_plus_transfer_time(self):
        array = make()
        per_controller = array.channels[0].bytes_per_cycle
        assert per_controller == pytest.approx(8.0)
        assert array.access(0, 128, False, 0.0) == 100.0 + 128 / per_controller
        assert array.access(256, 128, True, 0.0) == 300.0 + 128 / per_controller

    def test_write_uses_write_latency(self):
        array = make()
        read = array.access(0, 128, False, 0.0)
        write = array.access(1 << 20, 128, True, 0.0)
        assert write > read

    def test_striping_across_controllers(self):
        array = make(controllers=2)
        for address in (0, 255, 256, 512):
            array.access(address, 128, False, 0.0)
        assert [c.requests_served for c in array.channels] == [3, 1]

    def test_one_byte_interleave_stripes_by_address(self):
        array = make(controllers=3, interleave_bytes=1)
        for address in (0, 1, 2, 3, 7):
            array.access(address, 128, False, 0.0)
        assert [c.requests_served for c in array.channels] == [2, 2, 1]

    def test_channel_contention(self):
        array = make(controllers=1)
        first = array.access(0, 1 << 20, False, 0.0)
        second = array.access(0, 1 << 20, False, 0.0)
        assert second == pytest.approx(2 * first)

    def test_bytes_accounted(self):
        array = make()
        array.access(0, 128, False, 0.0)
        array.access(256, 128, False, 0.0)
        assert array.bytes_transferred == 256

    def test_transfers_round_up_to_whole_granules(self):
        array = make(granule_bytes=256)
        array.access(0, 128, True, 0.0)
        array.access(256, 300, False, 0.0)
        assert array.bytes_transferred == 256 + 512

    def test_controllers_share_the_bandwidth(self):
        """Net of each access's latency, a stream spread over every
        controller moves bytes at the array's total bandwidth."""
        array = make(controllers=2, interleave_bytes=1)
        accesses = 100
        completion = max(array.access(i, 4096, False, 0.0) for i in range(accesses))
        busy = completion - 100.0 * accesses / array.controllers
        assert array.achieved_bandwidth_bytes_per_s(busy) == pytest.approx(
            bandwidth_gbps_for(16.0) * 1e9)

    def test_achieved_bandwidth_of_an_empty_horizon(self):
        assert make().achieved_bandwidth_bytes_per_s(0.0) == 0.0

    def test_invalid_controllers(self):
        with pytest.raises(ValueError):
            make(controllers=0)


class TestGDDR5Controllers:
    def test_six_controllers_at_the_gddr5_rate(self):
        array = build_gddr5_controllers()
        assert array.controllers == 6
        per_controller = bandwidth_to_bytes_per_cycle(GDDR5.peak_bandwidth_gbps * 1e9) / 6
        latency = ns_to_cycles(GDDR5.access_latency_ns)
        assert array.access(0x1000, 128, False, 0.0) == latency + 128 / per_controller
        assert array.access(0x2000, 128, True, 0.0) == latency + 128 / per_controller

    def test_achieved_bandwidth_below_peak(self):
        array = build_gddr5_controllers()
        completion = max(array.access(i * 256, 128, False, 0.0) for i in range(100))
        achieved = array.achieved_bandwidth_bytes_per_s(completion)
        assert 0 < achieved <= GDDR5.peak_bandwidth_gbps * 1e9 * 1.01

    def test_channel_contention(self):
        """Two requests to one controller at once: the second waits out the first."""
        array = build_gddr5_controllers()
        first = array.access(0x1000, 128, False, 0.0)
        second = array.access(0x1000 + 6, 128, True, 0.0)
        assert second == pytest.approx(2 * first)

    @pytest.mark.xfail(strict=True, reason=(
        "model defect, ROADMAP item 1: GDDR5 stripes by address % 6 and every "
        "request address is a multiple of 128 B, so controllers 1, 3 and 5 "
        "serve nothing (Hetero|betw-back at scale 0.2: [212, 0, 221, 0, 221, 0])"))
    def test_aligned_requests_reach_every_controller(self):
        array = build_gddr5_controllers()
        for line in range(60):
            array.access(line * 128, 128, False, 0.0)
        assert all(c.requests_served > 0 for c in array.channels)


class TestOptaneControllers:
    def test_build_from_config(self):
        array = build_optane_controllers(OptaneConfig())
        assert array.controllers == 6
        assert array.interleave_bytes == array.granule_bytes == 256

    def test_idle_read_and_write_latency(self):
        config = OptaneConfig()
        array = build_optane_controllers(config)
        per_controller = bandwidth_to_bytes_per_cycle(39e9) / 6
        assert array.access(0, 128, False, 0.0) == (
            ns_to_cycles(190.0 + 8.9) + 256 / per_controller)
        assert array.access(1 << 20, 128, True, 0.0) == (
            ns_to_cycles(763.0) + 256 / per_controller)

    def test_small_write_rounds_to_granule(self):
        """A 128 B write is padded to Optane's 256 B internal granularity."""
        array = build_optane_controllers(OptaneConfig())
        array.access(0, 128, True, 0.0)
        assert array.bytes_transferred == 256

    def test_each_256_bytes_go_to_the_next_controller(self):
        array = build_optane_controllers(OptaneConfig())
        for block in range(8):
            array.access(block * 256 + 128, 128, False, 0.0)
        assert [c.requests_served for c in array.channels] == [2, 2, 1, 1, 1, 1]

    def test_write_slower_than_read(self):
        array = build_optane_controllers(OptaneConfig())
        read = array.access(0, 256, False, 0.0)
        write = array.access(1 << 20, 256, True, 0.0)
        assert write > read

    def test_zero_write_latency_means_zero(self):
        """``t_rp_ns=0`` serves writes with no latency at all, not at the
        read latency."""
        array = build_optane_controllers(OptaneConfig(t_rp_ns=0.0))
        assert array.write_latency_cycles == 0.0
        per_controller = array.channels[0].bytes_per_cycle
        assert array.access(0, 256, True, 0.0) == 256 / per_controller

    def test_bandwidth_capped(self):
        array = build_optane_controllers(OptaneConfig())
        completion = max(array.access(i * 256, 256, False, 0.0) for i in range(200))
        bandwidth = array.achieved_bandwidth_bytes_per_s(completion)
        assert bandwidth <= OptaneConfig().read_bandwidth_gbps_total * 1e9 * 1.05
