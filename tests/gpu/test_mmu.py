"""Unit tests for the MMU: page table, TLB path, page walks and fault handling."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig
from repro.gpu.mmu import MMU, PageTable


class TestPageTable:
    def test_map_and_lookup(self):
        table = PageTable()
        frame = table.map_page(10)
        assert table.lookup(10) == frame
        assert table.is_mapped(10)
        assert len(table) == 1

    def test_explicit_frame(self):
        table = PageTable()
        table.map_page(5, frame=99)
        assert table.lookup(5) == 99

    def test_unmap(self):
        table = PageTable()
        table.map_page(1)
        table.unmap(1)
        assert table.lookup(1) is None

    def test_sequential_frames(self):
        table = PageTable()
        frames = [table.map_page(i) for i in range(5)]
        assert frames == sorted(frames)


class TestMMU:
    def make_mmu(self, **kwargs):
        return MMU(GPUConfig(), **kwargs)

    def test_first_translation_walks(self):
        mmu = self.make_mmu()
        mmu.page_table.map_page(0, frame=0)
        _, latency, tlb_hit = mmu.translate(0x10, now=0.0)
        assert not tlb_hit
        assert latency >= mmu.config.page_walk_latency_cycles
        assert mmu.page_walks == 1

    def test_second_translation_hits_tlb(self):
        mmu = self.make_mmu()
        mmu.page_table.map_page(0, frame=0)
        mmu.translate(0x10, now=0.0)
        _, latency, tlb_hit = mmu.translate(0x20, now=500.0)
        assert tlb_hit
        assert latency == pytest.approx(1.0)

    def test_physical_address_composition(self):
        mmu = self.make_mmu()
        mmu.page_table.map_page(3, frame=7)
        physical_address, _, _ = mmu.translate(3 * 4096 + 123, now=0.0)
        assert physical_address == 7 * 4096 + 123

    def test_walk_cache_reduces_latency(self):
        mmu = self.make_mmu()
        mmu.page_table.map_page(0, frame=0)
        _, first_latency, _ = mmu.translate(0x10, now=0.0)
        mmu.tlb.flush()
        walk_cache_hits = mmu.walk_cache.hits
        _, second_latency, _ = mmu.translate(0x20, now=10_000.0)
        assert mmu.walk_cache.hits == walk_cache_hits + 1
        assert second_latency < first_latency

    def test_unmapped_page_without_handler_is_demand_mapped(self):
        mmu = self.make_mmu()
        mmu.translate(0x5000, now=0.0)
        assert mmu.page_faults == 1
        assert mmu.page_table.is_mapped(5)

    def test_fault_handler_invoked(self):
        handled = []

        def handler(virtual_page, now):
            handled.append(virtual_page)
            return virtual_page + 1000, now + 5000.0

        mmu = self.make_mmu(fault_handler=handler)
        _, latency, _ = mmu.translate(7 * 4096, now=0.0)
        assert handled == [7]
        assert mmu.page_faults == 1
        assert latency >= 5000.0
        assert mmu.page_table.lookup(7) == 1007

    def test_preload_avoids_faults(self):
        mmu = self.make_mmu()
        mmu.preload({i: i for i in range(16)})
        mmu.translate(8 * 4096, now=0.0)
        assert mmu.page_faults == 0

    def test_walker_threads_limit_concurrency(self):
        config = GPUConfig(page_walk_threads=1)
        mmu = MMU(config)
        mmu.page_table.map_page(0, frame=0)
        mmu.page_table.map_page(1, frame=1)
        _, first_latency, _ = mmu.translate(0, now=0.0)
        _, second_latency, _ = mmu.translate(4096, now=0.0)
        # With a single walk thread the second walk queues behind the first.
        assert second_latency > first_latency

    def test_reset_statistics(self):
        mmu = self.make_mmu()
        mmu.translate(0, now=0.0)
        mmu.reset_statistics()
        assert mmu.translations == 0
        assert mmu.page_walks == 0


def reference_translate(mmu, virtual_address, now):
    """``MMU.translate`` with its TLB hit taken through ``TLB.lookup``.

    A miss runs the MMU's own miss path, which counts the TLB miss itself,
    so the one ``TLB.lookup`` counted is taken back first.
    """
    frame = mmu.tlb.lookup(virtual_address)
    if frame is not None:
        page_size = mmu.page_size_bytes
        return frame * page_size + virtual_address % page_size, 1.0, True
    mmu.tlb.misses -= 1
    return MMU.translate(mmu, virtual_address, now)


def mmu_state(mmu):
    walker = mmu.walker
    return (mmu.tlb.hits, mmu.tlb.misses, mmu.tlb.evictions,
            list(mmu.tlb._entries.items()), mmu.translations, mmu.page_walks,
            mmu.page_faults, (walker.busy_cycles, walker.requests_served))


class TestInlineTLBHitMatchesLookup:
    @given(accesses=st.lists(st.tuples(st.integers(0, 40), st.integers(0, 4095)),
                             min_size=1, max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_same_translations_and_counters(self, accesses):
        # A 4-entry TLB over 41 pages: hits, misses and evictions.
        config = GPUConfig(tlb_entries=4)
        inline, reference = MMU(config), MMU(config)
        for step, (page, offset) in enumerate(accesses):
            address = page * 4096 + offset
            assert (inline.translate(address, float(step))
                    == reference_translate(reference, address, float(step)))
            assert mmu_state(inline) == mmu_state(reference)
        # Every translation probes the TLB once.
        assert inline.translations == len(accesses)
