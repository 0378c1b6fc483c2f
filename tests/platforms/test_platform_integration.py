"""Cross-platform integration tests on micro-workloads.

Run each platform on controlled access patterns and assert the memory system
behaves sensibly: reads complete, writes complete, statistics are consistent,
and the ZnG optimisations engage on the patterns that motivate them.
"""

import gc

import pytest

from repro.config import default_config
from repro.platforms import build_platform
from repro.platforms.zng import PLATFORM_NAMES, ZnGPlatform, ZnGVariant
from repro.runner.spec import apply_overrides
from repro.workloads import microbench

ALL = ["GDDR5"] + PLATFORM_NAMES


class TestStreamingOnAllPlatforms:
    @pytest.mark.parametrize("name", ALL)
    def test_streaming_completes(self, name):
        trace = microbench.streaming(num_warps=16, accesses_per_warp=32)
        result = build_platform(name).run(trace)
        assert result.ipc > 0
        assert result.execution.memory_requests > 0

    @pytest.mark.parametrize("name", ALL)
    def test_statistics_consistent(self, name):
        trace = microbench.streaming(num_warps=8, accesses_per_warp=16)
        platform = build_platform(name)
        platform.run(trace)
        reads = platform.stats.get("read_requests")
        writes = platform.stats.get("write_requests")
        assert platform.stats.get("requests") == reads + writes
        assert writes == 0  # streaming is read-only


class TestWritePatterns:
    @pytest.mark.parametrize("name", ["GDDR5", "HybridGPU", "Optane", "ZnG"])
    def test_hammer_completes(self, name):
        trace = microbench.hammer(num_warps=16, writes_per_warp=32, hot_pages=4)
        result = build_platform(name).run(trace)
        assert result.ipc > 0

    def test_zng_register_absorbs_hammer(self):
        trace = microbench.hammer(num_warps=32, writes_per_warp=64, hot_pages=8)
        platform = ZnGPlatform(ZnGVariant.WROPT)
        platform.run(trace)
        # Maximal write redundancy should give a very high register hit rate.
        assert platform.register_cache.hit_rate > 0.9


class TestPrefetchEngagesOnStreaming:
    def test_dynamic_prefetch_triggers_on_streaming(self):
        trace = microbench.streaming(num_warps=16, accesses_per_warp=64)
        platform = ZnGPlatform(ZnGVariant.FULL)
        result = platform.run(trace)
        # A purely sequential stream should drive the predictor to prefetch.
        assert result.extra.get("prefetch_rate", 0.0) > 0.0


class TestReuseReducesFlashTraffic:
    def test_stencil_reuse_limits_flash_reads(self):
        trace = microbench.stencil(num_warps=32, iterations=32)
        platform = ZnGPlatform(ZnGVariant.FULL)
        result = platform.run(trace)
        # On-chip reuse keeps flash reads well below total memory requests.
        assert platform.stats.get("flash_page_reads") < result.execution.memory_requests


class TestDeterminism:
    @pytest.mark.parametrize("name", ["HybridGPU", "Optane", "ZnG"])
    def test_same_trace_same_result(self, name):
        trace = microbench.streaming(num_warps=8, accesses_per_warp=16)
        a = build_platform(name).run(trace)
        b = build_platform(name).run(trace)
        assert a.ipc == pytest.approx(b.ipc)
        assert a.cycles == pytest.approx(b.cycles)


class TestL2EvictionState:
    def test_hybridgpu_keeps_no_per_eviction_state_on_the_l2(self):
        """Evictions are reported to the caller, never logged on the L2.

        An eviction is a ``(line_address, state_bits)`` tuple, so a log of
        them is a container holding tuples.
        """
        config = apply_overrides(default_config(), {"gpu.l2_size_bytes": 98304})
        platform = build_platform("HybridGPU", config)
        platform.run(microbench.streaming(num_warps=16, accesses_per_warp=64))
        l2 = platform.l2
        assert sum(l2.array(bank).evictions for bank in range(l2.banks)) > 0
        for name, value in vars(l2).items():
            if isinstance(value, (list, tuple, dict, set)):
                assert not any(isinstance(item, tuple) for item in value), name


class TestNoReferenceCycles:
    @pytest.mark.parametrize("name", ALL)
    def test_finished_platform_leaves_no_cyclic_garbage(self, name):
        """Refcounting alone frees a finished platform, so memory does not
        pile up across the cells of a grid until a full collection runs."""
        trace = microbench.streaming(num_warps=8, accesses_per_warp=16)
        gc.collect()
        gc.disable()
        try:
            build_platform(name).run(trace)
            assert gc.collect() == 0
        finally:
            gc.enable()
