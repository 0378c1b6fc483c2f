"""Unit tests for the shared TLB."""

import pytest

from repro.gpu.tlb import TLB
from tests.gpu.test_mmu import tlb_lookup


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(entries=4)
        assert tlb_lookup(tlb, 0x1000) is None
        tlb.insert(0x1000, payload=7)
        assert tlb_lookup(tlb, 0x1234) == 7  # same page
        assert tlb.hits == 1
        assert tlb.misses == 1

    def test_lru_eviction(self):
        tlb = TLB(entries=2)
        tlb.insert(0 * 4096, 0)
        tlb.insert(1 * 4096, 1)
        tlb_lookup(tlb, 0)         # page 0 becomes MRU
        tlb.insert(2 * 4096, 2)    # evicts page 1
        assert tlb_lookup(tlb, 0) == 0
        assert tlb_lookup(tlb, 1 * 4096) is None
        assert tlb.evictions == 1

    def test_update_existing_entry(self):
        tlb = TLB(entries=2)
        tlb.insert(0, 1)
        tlb.insert(0, 9)
        assert tlb_lookup(tlb, 0) == 9
        assert tlb.occupancy == 1

    def test_invalidate(self):
        tlb = TLB(entries=4)
        tlb.insert(0, 1)
        tlb.insert(4096, 2)
        assert tlb.invalidate(0)
        assert not tlb.invalidate(0)
        assert tlb.occupancy == 1
        assert tlb.invalidate(4096)
        assert tlb.occupancy == 0

    def test_hit_rate(self):
        tlb = TLB(entries=4)
        tlb.insert(0, 1)
        tlb_lookup(tlb, 0)
        tlb_lookup(tlb, 8192)
        assert tlb.hit_rate == pytest.approx(0.5)

    def test_capacity_respected(self):
        tlb = TLB(entries=8)
        for page in range(100):
            tlb.insert(page * 4096, page)
        assert tlb.occupancy == 8

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            TLB(entries=0)
