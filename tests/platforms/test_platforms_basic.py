"""Smoke and structural tests for every platform."""

import pytest

from repro.config import default_config
from repro.configspace import SCHEMA
from repro.gpu.sm import GPUExecutionResult
from repro.platforms import build_platform
from repro.platforms.base import PlatformResult
from repro.platforms.zng import PLATFORM_NAMES, ZnGPlatform, ZnGVariant
from repro.sim.stats import StatsCollector

ALL_PLATFORMS = ["GDDR5"] + PLATFORM_NAMES


class TestFactory:
    @pytest.mark.parametrize("name", ALL_PLATFORMS)
    def test_build_each_platform(self, name):
        platform = build_platform(name)
        assert platform.name == name

    def test_unknown_platform(self):
        with pytest.raises(ValueError):
            build_platform("Frankenstein")

    def test_zng_variants(self):
        assert ZnGVariant.BASE.value == "ZnG-base"
        assert not ZnGVariant.BASE.has_read_optimization
        assert not ZnGVariant.BASE.has_write_optimization
        assert ZnGVariant.FULL.has_read_optimization
        assert ZnGVariant.FULL.has_write_optimization


class TestExecution:
    @pytest.mark.parametrize("name", ALL_PLATFORMS)
    def test_runs_to_completion(self, name, tiny_mix):
        platform = build_platform(name)
        result = platform.run(tiny_mix.combined)
        assert result.cycles > 0
        assert result.ipc > 0
        assert result.execution.instructions > 0

    @pytest.mark.parametrize("name", ALL_PLATFORMS)
    def test_request_accounting(self, name, tiny_mix):
        platform = build_platform(name)
        platform.run(tiny_mix.combined)
        requests = platform.stats.get("requests")
        reads = platform.stats.get("read_requests")
        writes = platform.stats.get("write_requests")
        assert requests == reads + writes

    @pytest.mark.parametrize("name", ALL_PLATFORMS)
    def test_extra_counters_read_the_components(self, name, tiny_mix):
        """The record's component counters are the platform's own, and they
        survive the record round trip."""
        platform = build_platform(name)
        result = platform.run(tiny_mix.combined)
        extra = PlatformResult.from_record(result.to_record()).extra
        sms, l2 = platform.gpu.sms, platform.l2
        assert extra["mshr.secondary_misses"] == sum(sm.mshr.secondary_misses for sm in sms)
        assert extra["mshr.stalls"] == sum(sm.mshr.stalls for sm in sms)
        assert extra["wait.sm_issue_cycles"] == sum(sm.issue_port.wait_cycles for sm in sms)
        assert extra["wait.noc_links_cycles"] == platform.noc.links.wait_cycles
        assert (extra["l2.hits"], extra["l2.misses"]) == (l2.hits, l2.misses)
        # The L2's own counters see every access; ``stats`` counts reads.
        assert extra["l2.hits"] + extra["l2.misses"] >= (
            result.stats.get("l2_hits") + result.stats.get("l2_misses"))
        controllers = getattr(platform, "controllers", None)
        if controllers is None:
            assert "ssd.flash_commands" not in extra
            assert "wait.flash_dispatch_cycles" not in extra
        else:
            assert extra["ssd.flash_commands"] == controllers.commands_issued > 0
            assert extra["wait.flash_dispatch_cycles"] == sum(
                c.dispatcher.wait_cycles for c in controllers.controllers)

    def test_describe(self, tiny_mix):
        platform = build_platform("ZnG")
        description = platform.describe()
        assert description["name"] == "ZnG"
        assert description["l2_read_only"]


def _result_with_breakdown(breakdown):
    execution = GPUExecutionResult(cycles=1.0, instructions=1, memory_requests=1, ipc=1.0)
    return PlatformResult("ZnG", "w", execution, StatsCollector(),
                          latency_breakdown=breakdown)


class TestPlatformResult:
    def test_breakdown_fractions_sum_to_one(self):
        fractions = _result_with_breakdown({"a": 30.0, "b": 70.0}).breakdown_fractions()
        assert fractions["a"] == pytest.approx(0.3)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_breakdown_empty(self):
        assert _result_with_breakdown({}).breakdown_fractions() == {}


class TestPhysicalAddressRouting:
    """GDDR5, Hetero and Optane route an L2 miss by the MMU's translation."""

    @pytest.mark.parametrize("name,device", [("GDDR5", "dram"), ("Optane", "optane")])
    def test_miss_reaches_device_at_translated_address(self, name, device):
        platform = build_platform(name)
        platform.mmu.preload({3: 5})
        seen = []
        target = getattr(platform, device)
        access = target.access

        def recording_access(address, num_bytes, *args, **kwargs):
            seen.append((address, num_bytes))
            return access(address, num_bytes, *args, **kwargs)

        target.access = recording_access
        platform.memory_access(3 * 4096 + 256, False, 0, 0x10, 0.0)
        platform.memory_access(3 * 4096 + 384, True, 0, 0x14, 0.0)
        assert seen == [(5 * 4096 + 256, platform.request_bytes),
                        (5 * 4096 + 384, platform.request_bytes)]
        # The L2 is indexed by the virtual address.
        assert platform.l2.probe(3 * 4096 + 256)


class TestL2Configuration:
    def test_read_optimization_uses_stt_mram(self):
        base = ZnGPlatform(ZnGVariant.BASE)
        full = ZnGPlatform(ZnGVariant.FULL)
        assert full.l2.size_bytes > base.l2.size_bytes
        assert full.l2.read_only
        assert not base.l2.read_only

    def test_stt_mram_is_4x_sram(self):
        base = ZnGPlatform(ZnGVariant.BASE)
        full = ZnGPlatform(ZnGVariant.FULL)
        assert full.l2.size_bytes == 4 * base.l2.size_bytes


class TestZnGComponents:
    def test_base_has_no_prefetcher(self):
        platform = ZnGPlatform(ZnGVariant.BASE)
        assert platform.prefetcher is None

    def test_rdopt_has_prefetcher(self):
        platform = ZnGPlatform(ZnGVariant.RDOPT)
        assert platform.prefetcher is not None

    def test_wropt_uses_package_scope(self):
        platform = ZnGPlatform(ZnGVariant.WROPT)
        assert platform.register_cache.scope == "package"

    def test_base_uses_plane_scope(self):
        platform = ZnGPlatform(ZnGVariant.BASE)
        assert platform.register_cache.scope == "plane"

    def test_all_zng_use_mesh_network(self):
        for variant in ZnGVariant:
            platform = ZnGPlatform(variant)
            assert platform.flash_network.network_type == "mesh"


class TestFlashNetworkFollowsConfig:
    def test_hybrid_gpu_defaults_to_bus(self):
        assert build_platform("HybridGPU").flash_network.network_type == "bus"

    def test_hybrid_gpu_honours_a_mesh_override(self):
        config = SCHEMA.apply(default_config(), {"znand.flash_network_type": "mesh"})
        platform = build_platform("HybridGPU", config)
        assert platform.flash_network.network_type == "mesh"
