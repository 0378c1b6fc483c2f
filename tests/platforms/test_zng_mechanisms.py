"""Integration tests for the ZnG mechanisms inside a running platform."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import default_config, us_to_cycles
from repro.configspace import SCHEMA
from repro.platforms.zng import ZnGPlatform, ZnGVariant, build_platform
from repro.ssd.znand import ZNANDArray
from repro.workloads.multiapp import build_mix
from repro.workloads.trace import TraceKnobs


@pytest.fixture(scope="module")
def mix():
    return build_mix("betw", "back", TraceKnobs(
        scale=0.3, seed=1, warps_per_sm=4, memory_instructions_per_warp=64))


class TestFTLIntegration:
    def test_dbmt_populated(self, mix):
        platform = ZnGPlatform(ZnGVariant.FULL)
        platform.run(mix.combined)
        assert len(platform.ftl.dbmt) > 0

    def test_reads_translate(self, mix):
        platform = ZnGPlatform(ZnGVariant.FULL)
        platform.run(mix.combined)
        assert platform.ftl.reads_translated > 0

    def test_writes_handled(self, mix):
        """Writes are either absorbed in registers or allocated a log page."""
        platform = ZnGPlatform(ZnGVariant.FULL)
        platform.run(mix.combined)
        absorbed = platform.register_cache.write_hits + platform.register_cache.write_misses
        assert absorbed > 0

    def test_base_allocates_log_pages(self, mix):
        """ZnG-base programs log pages directly as its plane registers overflow."""
        platform = ZnGPlatform(ZnGVariant.BASE)
        platform.run(mix.combined)
        assert platform.ftl.writes_allocated > 0


class TestReadOptimization:
    def test_prefetcher_trains(self, mix):
        platform = ZnGPlatform(ZnGVariant.RDOPT)
        platform.run(mix.combined)
        assert platform.prefetcher.predictor.updates > 0

    def test_stt_mram_improves_l2_hit_rate(self, mix):
        base = ZnGPlatform(ZnGVariant.BASE)
        rdopt = ZnGPlatform(ZnGVariant.RDOPT)
        base_result = base.run(mix.combined)
        rdopt_result = rdopt.run(mix.combined)
        assert rdopt_result.l2_hit_rate >= base_result.l2_hit_rate


class TestWriteOptimization:
    def test_register_cache_absorbs_writes(self, mix):
        platform = ZnGPlatform(ZnGVariant.WROPT)
        platform.run(mix.combined)
        assert platform.register_cache.write_hits > 0

    def test_register_hit_rate_high_for_redundant_writes(self, mix):
        platform = ZnGPlatform(ZnGVariant.WROPT)
        result = platform.run(mix.combined)
        # Write redundancy (Fig. 5c) means most writes hit a resident register.
        assert result.extra["register_hit_rate"] > 0.5

    def test_fewer_programs_than_writes(self, mix):
        platform = ZnGPlatform(ZnGVariant.WROPT)
        platform.run(mix.combined)
        writes = platform.stats.get("register_write_hits") + platform.stats.get(
            "register_write_misses"
        )
        programs = platform.register_cache.programs_issued
        assert programs < writes


class TestWriteHeatmap:
    def test_heatmap_reflects_writes(self, mix):
        platform = ZnGPlatform(ZnGVariant.BASE)
        platform.run(mix.combined)
        heatmap = platform.array.write_heatmap()
        assert heatmap.sum() > 0


class TestFlashLatenciesFollowConfig:
    """The array's per-operation latencies are computed once, at construction,
    from the platform's own config, not from a default."""

    @pytest.mark.parametrize("name", ["ZnG-base", "ZnG"])
    def test_read_miss_charges_the_overridden_latencies(self, name):
        config = SCHEMA.apply(default_config(), {"znand.read_latency_us": 7.0,
                                                 "znand.program_latency_us": 250.0})
        platform = build_platform(name, config)
        overhead = ZNANDArray.COMMAND_OVERHEAD_CYCLES
        platform.memory_access(0x10000, False, 0, 0, 0.0)
        assert platform.stats.get("l2_misses") == 1
        assert platform.stats.breakdown["flash_array"] == us_to_cycles(7.0) + overhead
        # A program on an idle plane holds it for the overridden program latency.
        transferred, completion = platform.controllers.program(1, 0.0)
        assert completion - transferred == us_to_cycles(250.0) + overhead


class TestDirectRegisterGroupMatchesHelpers:
    """A read miss checks the flash registers by reading the register group
    directly; the helpers ``group_of_plane`` and ``holds`` must agree."""

    @pytest.mark.parametrize("name", ["ZnG-base", "ZnG"])  # plane, package scope
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 23), st.integers(0, 2)),
                        min_size=1, max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_register_read_hits_match(self, name, ops):
        platform = build_platform(name)
        registers = platform.register_cache
        breakdown = platform.stats.breakdown
        pages_per_block = platform.ftl.pages_per_block()
        now = 0.0
        # Pages of 24 blocks, which the FTL spreads over 24 planes and three
        # packages.
        for is_write, block, offset in ops:
            page = block * pages_per_block + offset
            now += 50.0
            address = page * platform.page_size
            if is_write:
                platform._service_write(address, address, now, breakdown)
                continue
            plane = platform.array.geometry.plane_of_ppn(
                platform.ftl.translate_read(page))
            expected = registers.holds(registers.group_of_plane(plane), page)
            before = platform.stats.get("register_read_hits")
            platform._service_l2_miss(address, address, 0, now, breakdown)
            assert (platform.stats.get("register_read_hits") - before == 1) == expected
