"""Unit tests for the banked shared L2 cache (SRAM and STT-MRAM variants)."""

import pytest

from repro.config import GPUConfig, STTMRAMConfig
from repro.gpu.cache import ACCESSED, PREFETCHED
from repro.gpu.l2cache import SharedL2Cache


def make_sram_l2():
    return SharedL2Cache.from_gpu_config(GPUConfig())


def make_stt_l2():
    return SharedL2Cache.from_stt_mram_config(STTMRAMConfig())


class TestConstruction:
    def test_sram_configuration(self):
        l2 = make_sram_l2()
        assert l2.size_bytes == 6 * 1024 * 1024
        assert l2.banks == 6
        assert not l2.read_only

    def test_stt_mram_configuration(self):
        l2 = make_stt_l2()
        assert l2.size_bytes == 24 * 1024 * 1024
        assert l2.read_only
        assert l2.write_latency_cycles == 5


class TestAccessPath:
    def test_read_miss_then_hit_after_fill(self):
        l2 = make_sram_l2()
        hit, _ = l2.access(0x1000, is_write=False, now=0.0)
        assert not hit
        l2.fill(0x1000, now=10.0)
        hit, _ = l2.access(0x1000, is_write=False, now=20.0)
        assert hit

    def test_bank_mapping_consistent(self):
        l2 = make_sram_l2()
        assert l2.bank_of(0x1000) == l2.bank_of(0x1000 + 64)
        banks = {l2.bank_of(i * 128) for i in range(12)}
        assert len(banks) == 6  # consecutive lines stripe across all banks

    def test_write_hit_marks_dirty_in_sram(self):
        l2 = make_sram_l2()
        l2.fill(0x2000, now=0.0)
        hit, _ = l2.access(0x2000, is_write=True, now=1.0)
        assert hit

    def test_read_only_l2_bypasses_writes(self):
        l2 = make_stt_l2()
        l2.fill(0x3000, now=0.0)
        hit, _ = l2.access(0x3000, is_write=True, now=1.0)
        assert not hit
        assert l2.write_bypasses == 1
        # The stale copy must have been invalidated for coherence.
        assert not l2.probe(0x3000)

    def test_write_charges_write_latency(self):
        l2 = make_stt_l2()
        _, ready = l2.access(0x100, is_write=True, now=0.0)
        assert ready - 0.0 >= 5

    def test_access_latency_read(self):
        l2 = make_sram_l2()
        _, ready = l2.access(0x100, is_write=False, now=10.0)
        assert ready >= 11.0


class TestFills:
    def test_fill_page_inserts_every_line(self):
        l2 = make_stt_l2()
        l2.fill_page(0x4000, 4096, now=0.0, prefetched=True)
        for offset in range(0, 4096, 128):
            assert l2.probe(0x4000 + offset)
        assert l2.prefetch_insertions == 32

    def test_fill_page_limit_bytes(self):
        l2 = make_stt_l2()
        l2.fill_page(0x8000, 4096, now=0.0, prefetched=True, limit_bytes=1024)
        assert l2.probe(0x8000)
        assert l2.probe(0x8000 + 896)
        assert not l2.probe(0x8000 + 1024)

    def test_fill_does_not_block_demand_port(self):
        """Fills at future timestamps must not delay earlier demand accesses."""
        l2 = make_sram_l2()
        l2.fill(0x5000, now=1_000_000.0)
        _, ready = l2.access(0x5000 + 128 * 6, is_write=False, now=5.0)  # same bank
        assert ready < 1_000.0

    @staticmethod
    def make_tiny_l2():
        """One-way banks where line i and line i + 6 share a bank and a set."""
        return SharedL2Cache(
            name="tiny", size_bytes=6 * 2 * 128, assoc=1, line_bytes=128,
            banks=6, read_latency_cycles=1, write_latency_cycles=1,
        )

    def test_fill_reports_its_eviction(self):
        l2 = self.make_tiny_l2()
        assert l2.fill(0, now=0.0, prefetched=True) is None
        assert l2.fill(6 * 128, now=0.0) == (0, PREFETCHED)

    def test_fill_page_returns_evictions_in_order(self):
        l2 = self.make_tiny_l2()
        assert l2.fill_page(0, 6 * 128, now=0.0) == []
        evictions = l2.fill_page(6 * 128, 6 * 128, now=0.0)
        assert [address for address, _ in evictions] == [
            line * 128 for line in range(6)]

    def test_pin_lines_and_unpin(self):
        l2 = make_stt_l2()
        assert l2.pin_lines([0x0, 0x80], now=0.0) == []
        assert l2.probe(0x0)
        assert l2.unpin_all() == 2

    def test_pin_lines_returns_evictions(self):
        l2 = self.make_tiny_l2()
        l2.fill(0, now=0.0)
        evictions = l2.pin_lines([6 * 128, 12 * 128], now=0.0)
        # The second pin finds its set's only way pinned and bypasses.
        assert evictions == [(0, ACCESSED)]
        assert l2.probe(6 * 128) and not l2.probe(12 * 128)


class TestCapacity:
    @pytest.mark.xfail(strict=True, reason=(
        "model defect: the bank is line % banks and each bank's set is "
        "line % num_sets of the same line number; gcd(6, sets) = 2, so each "
        "bank uses only the sets of its own parity and holds half its lines"))
    def test_both_flavours_hold_one_line_per_line_of_capacity(self):
        resident = {}
        for l2 in (make_sram_l2(), make_stt_l2()):
            addresses = range(0, l2.size_bytes, l2.line_bytes)
            for address in addresses:
                l2.fill(address, now=0.0)
            resident[l2.name] = sum(l2.probe(address) for address in addresses)
        assert resident == {
            "l2_sram": 6 * 1024 * 1024 // 128,
            "l2_stt_mram": 24 * 1024 * 1024 // 128,
        }


class TestStatistics:
    def test_hit_rate(self):
        l2 = make_sram_l2()
        l2.fill(0x0, now=0.0)
        l2.access(0x0, is_write=False, now=1.0)
        l2.access(0x10000, is_write=False, now=2.0)
        assert l2.hit_rate == pytest.approx(0.5)

    def test_reset_statistics(self):
        l2 = make_sram_l2()
        l2.access(0x0, is_write=False, now=0.0)
        l2.reset_statistics()
        assert l2.hits == 0
        assert l2.misses == 0
