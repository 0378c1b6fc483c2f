"""Tests for the alternative prefetch-policy baselines."""

import pytest

from repro.core.prefetch_policies import (
    NextLinePrefetch,
    NoPrefetch,
    StridePrefetch,
    build_prefetcher,
)
from repro.core.prefetcher import DynamicReadPrefetcher


def read(pc=0x1000, page=0):
    """The ``(pc, warp_id, address)`` of a read of ``page``, as ``train`` takes them."""
    return pc, 0, page * 4096


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("none", NoPrefetch),
        ("next_line", NextLinePrefetch),
        ("stride", StridePrefetch),
        ("dynamic", DynamicReadPrefetcher),
    ])
    def test_build(self, name, cls):
        assert isinstance(build_prefetcher(name), cls)

    def test_unknown(self):
        with pytest.raises(ValueError):
            build_prefetcher("oracle")


class TestNoPrefetch:
    def test_never_prefetches(self):
        pf = NoPrefetch()
        pf.train(*read())
        decision = pf.on_miss(0x1000)
        assert not decision.prefetch
        assert decision.fetch_bytes == 128
        assert pf.prefetch_rate == 0.0


class TestNextLine:
    def test_always_fetches_window(self):
        pf = NextLinePrefetch(window_bytes=1024)
        decision = pf.on_miss(0x1000)
        assert decision.prefetch
        assert decision.fetch_bytes == 1024
        assert pf.prefetch_rate == 1.0


class TestStride:
    def test_detects_constant_stride(self):
        pf = StridePrefetch(confidence_threshold=2)
        # Train a stride of +1 page at a fixed PC.
        for page in range(5):
            pf.train(*read(pc=0x10, page=page))
        decision = pf.on_miss(0x10)
        assert decision.prefetch
        assert decision.reason == "stride_confirmed"

    def test_no_prefetch_without_stride(self):
        pf = StridePrefetch(confidence_threshold=2)
        # Random pages -> no consistent stride.
        for page in [3, 17, 1, 42, 8]:
            pf.train(*read(pc=0x10, page=page))
        decision = pf.on_miss(0x10)
        assert not decision.prefetch

    def test_different_pcs_independent(self):
        pf = StridePrefetch(confidence_threshold=2)
        for page in range(5):
            pf.train(*read(pc=0x10, page=page))
        # A different PC has no history -> no prefetch.
        assert not pf.on_miss(0x20).prefetch


class TestOnPlatform:
    @pytest.mark.parametrize("policy", ["none", "next_line", "stride", "dynamic"])
    def test_policy_runs_on_zng(self, policy):
        from dataclasses import replace

        from repro.config import default_config
        from repro.platforms.zng import ZnGPlatform, ZnGVariant
        from repro.workloads.multiapp import build_mix

        config = default_config()
        config = config.copy(prefetch=replace(config.prefetch, policy=policy))
        mix = build_mix("betw", "back", scale=0.1, seed=1,
                        warps_per_sm=4, memory_instructions_per_warp=48)
        result = ZnGPlatform(ZnGVariant.FULL, config).run(mix.combined)
        assert result.ipc > 0
