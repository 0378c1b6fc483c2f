"""Unit tests for DRAM technology models and the GDDR5 subsystem."""

import pytest

from repro.config import DRAM_TECHNOLOGIES, GDDR5, ZNAND_TECH
from repro.gpu.dram import DRAMDevice, DRAMSubsystem, build_gddr5_subsystem


class TestTechnologyConstants:
    def test_znand_density_advantage(self):
        """Z-NAND offers 64x the density of LPDDR4 (Section II-B)."""
        lpddr4 = DRAM_TECHNOLOGIES["LPDDR4"]
        ratio = ZNAND_TECH.package_capacity_gb / lpddr4.package_capacity_gb
        assert ratio == pytest.approx(16.0, rel=0.01) or ratio >= 16.0

    def test_gddr5_has_highest_power_per_gb(self):
        assert GDDR5.power_w_per_gb == max(t.power_w_per_gb for t in DRAM_TECHNOLOGIES.values())

    def test_znand_lowest_power_per_gb(self):
        assert ZNAND_TECH.power_w_per_gb == min(
            t.power_w_per_gb for t in DRAM_TECHNOLOGIES.values()
        )

    def test_gddr5_highest_bandwidth(self):
        assert GDDR5.peak_bandwidth_gbps == max(
            t.peak_bandwidth_gbps for t in DRAM_TECHNOLOGIES.values()
        )

    def test_gddr5_peak_bandwidth(self):
        """12 packages on a 384-bit bus accumulate 341.3 GB/s."""
        assert DRAM_TECHNOLOGIES["GDDR5"].peak_bandwidth_gbps == pytest.approx(341.3)


class TestDRAMDevice:
    def test_capacity_bytes(self):
        device = DRAMDevice(GDDR5)
        assert device.capacity_bytes == 1 << 30

    def test_power(self):
        device = DRAMDevice(GDDR5)
        assert device.power_watts == pytest.approx(5.0)

    @pytest.mark.parametrize("name", list(DRAM_TECHNOLOGIES))
    def test_power_is_the_rate_times_the_capacity(self, name):
        tech = DRAM_TECHNOLOGIES[name]
        device = DRAMDevice(tech)
        assert device.capacity_bytes == int(tech.package_capacity_gb * (1 << 30))
        assert device.power_watts == pytest.approx(
            tech.power_w_per_gb * tech.package_capacity_gb)


class TestDRAMSubsystem:
    def test_gddr5_subsystem_configuration(self):
        dram = build_gddr5_subsystem()
        assert dram.controllers == 6
        assert len(dram.devices) == 12
        assert dram.capacity_bytes == 12 << 30

    def test_gddr5_subsystem_static_power(self):
        """12 GB of GDDR5 at 5 W/GB draws 60 W (Fig. 3b)."""
        assert build_gddr5_subsystem().power_watts == pytest.approx(60.0)

    def test_access_returns_completion_after_latency(self):
        dram = build_gddr5_subsystem()
        completion = dram.access(0x1000, 128, now=0.0)
        assert completion > 0.0

    def test_channel_contention(self):
        dram = DRAMSubsystem(GDDR5, controllers=1, packages=1)
        first = dram.access(0, 1 << 20, now=0.0)
        second = dram.access(0, 1 << 20, now=0.0)
        assert second > first

    def test_achieved_bandwidth_below_peak(self):
        dram = build_gddr5_subsystem()
        completion = 0.0
        for i in range(100):
            completion = max(completion, dram.access(i * 256, 128, now=0.0))
        achieved = dram.achieved_bandwidth_bytes_per_s(completion)
        assert 0 < achieved <= GDDR5.peak_bandwidth_gbps * 1e9 * 1.01

    def test_controllers_share_the_technology_rate(self):
        """Net of each access's fixed latency, a stream spread over every
        controller moves bytes at the technology's peak bandwidth."""
        dram = DRAMSubsystem(ZNAND_TECH, controllers=2, packages=1)
        latency = dram.access(0, 0, now=0.0)
        dram.reset()
        accesses = 100
        completion = max(dram.access(i, 4096, now=0.0) for i in range(accesses))
        busy = completion - latency * accesses / dram.controllers
        assert dram.achieved_bandwidth_bytes_per_s(busy) == pytest.approx(
            ZNAND_TECH.peak_bandwidth_gbps * 1e9)

    def test_invalid_configuration(self):
        with pytest.raises(ValueError):
            DRAMSubsystem(GDDR5, controllers=0, packages=1)
