"""Unit tests for the SSD engine (dispatcher + cores + DRAM buffer)."""

from collections import defaultdict

import pytest

from repro.config import SSDEngineConfig, ZNANDConfig
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.ssd_engine import SSDEngine
from repro.ssd.znand import ZNANDArray


def make_engine():
    config = ZNANDConfig(
        channels=4, dies_per_package=2, planes_per_die=2,
        blocks_per_plane=16, pages_per_block=8,
    )
    array = ZNANDArray(config, network=FlashNetwork(config, "bus"))
    return SSDEngine(SSDEngineConfig(), array)


def service(engine, address, is_write=False, now=0.0):
    """One request; returns its completion cycle and charged breakdown."""
    breakdown = defaultdict(float)
    completion = engine.service(address, 128, is_write, now, breakdown)
    return completion, dict(breakdown)


class TestService:
    def test_cold_read_hits_flash(self):
        engine = make_engine()
        _, breakdown = service(engine, 0x1000)
        assert breakdown["flash_array"] > 0
        assert engine.buffer_hits == 0

    def test_warm_read_hits_buffer(self):
        engine = make_engine()
        service(engine, 0x1000)
        _, breakdown = service(engine, 0x1000, now=1e6)
        assert engine.buffer_hits == 1
        assert "flash_array" not in breakdown

    def test_engine_latency_present(self):
        engine = make_engine()
        _, breakdown = service(engine, 0x2000)
        assert breakdown["ssd_engine"] > 0
        assert breakdown["ssd_dispatcher"] > 0

    def test_breakdown_charged_in_path_order(self):
        engine = make_engine()
        breakdown = defaultdict(float, {"tlb": 1.0})
        completion = engine.service(0x2000, 128, False, 0.0, breakdown)
        assert list(breakdown) == ["tlb", "ssd_dispatcher", "ssd_engine",
                                   "flash_array", "flash_channel", "dram_buffer"]
        # The components cover the request, bar the time it queued for flash.
        assert 0 < sum(breakdown.values()) - 1.0 <= completion

    def test_breakdown_accumulates(self):
        engine = make_engine()
        breakdown = defaultdict(float)
        engine.service(0x1000, 128, False, 0.0, breakdown)
        first = breakdown["ssd_engine"]
        engine.service(0x5000, 128, False, 1e6, breakdown)
        assert breakdown["ssd_engine"] > first

    def test_engine_is_throughput_bottleneck(self):
        """Many concurrent requests serialize on the limited embedded cores."""
        engine = make_engine()
        last = 0.0
        for i in range(50):
            completion, _ = service(engine, i * 4096)
            last = max(last, completion)
        # With only a few cores at a low request rate, 50 requests take a while.
        assert last > 0.0
        assert engine.requests_serviced == 50

    def test_write_path(self):
        engine = make_engine()
        completion, _ = service(engine, 0x3000, is_write=True)
        assert completion > 0.0

    def test_buffer_hit_rate(self):
        engine = make_engine()
        service(engine, 0x1000)
        service(engine, 0x1000, now=1e6)
        assert engine.buffer_hit_rate == pytest.approx(0.5)

    def test_reset(self):
        engine = make_engine()
        service(engine, 0x1000)
        engine.reset_statistics()
        assert engine.requests_serviced == 0
        assert engine.buffer_hits == 0
