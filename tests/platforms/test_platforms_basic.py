"""Smoke and structural tests for every platform."""

import pytest

from repro.platforms import build_platform
from repro.platforms.zng import PLATFORM_NAMES, ZnGPlatform, ZnGVariant

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

    def test_describe(self, tiny_mix):
        platform = build_platform("ZnG")
        description = platform.describe()
        assert description["name"] == "ZnG"
        assert description["l2_read_only"]


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
