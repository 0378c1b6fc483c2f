"""Unit and property tests for the zero-overhead FTL."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import FTLConfig, ZNANDConfig
from repro.core.helper_gc import HelperThreadGC
from repro.core.zero_overhead_ftl import ZeroOverheadFTL
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.znand import ZNANDArray


def make_ftl(pages_per_block=8, blocks=32):
    config = ZNANDConfig(
        channels=2, dies_per_package=1, planes_per_die=2,
        blocks_per_plane=blocks, pages_per_block=pages_per_block,
    )
    array = ZNANDArray(config, network=FlashNetwork(config, "mesh"))
    ftl = ZeroOverheadFTL(array, FTLConfig(data_blocks_per_log_block=4))
    ftl.helper_gc = HelperThreadGC(ftl, array)
    return ftl, array


def read_from_log(ftl, virtual_page):
    """Translate a read; return ``(ppn, whether the log block served it)``."""
    before = ftl.reads_from_log
    ppn = ftl.translate_read(virtual_page)
    return ppn, ftl.reads_from_log - before == 1


class TestMappingSetup:
    def test_map_virtual_block(self):
        ftl, _ = make_ftl()
        entry = ftl.map_virtual_block(0)
        assert entry.vbn == 0
        assert ftl.dbmt.lookup(0) is entry

    def test_idempotent_mapping(self):
        ftl, _ = make_ftl()
        first = ftl.map_virtual_block(3)
        second = ftl.map_virtual_block(3)
        assert first is second

    def test_setup_mapping_covers_footprint(self):
        ftl, _ = make_ftl(pages_per_block=8)
        blocks = ftl.setup_mapping(total_virtual_pages=40)
        assert blocks == 5  # ceil(40 / 8)
        assert len(ftl.dbmt) == 5

    def test_data_and_log_blocks_disjoint(self):
        ftl, _ = make_ftl()
        entry = ftl.map_virtual_block(0)
        assert entry.pdbn != entry.plbn


class TestReadTranslation:
    def test_read_of_clean_page_uses_data_block(self):
        ftl, _ = make_ftl()
        ftl.map_virtual_block(0)
        _, from_log_block = read_from_log(ftl, 0)
        assert not from_log_block

    def test_read_after_write_uses_log_block(self):
        ftl, _ = make_ftl()
        ftl.map_virtual_block(0)
        ftl.allocate_write(0, now=0.0)
        _, from_log_block = read_from_log(ftl, 0)
        assert from_log_block

    def test_page_index_preserved(self):
        ftl, array = make_ftl(pages_per_block=8)
        ftl.map_virtual_block(0)
        ppn = ftl.translate_read(5)
        assert array.geometry.decompose(ppn).page == 5

    def test_translate_maps_on_demand(self):
        ftl, _ = make_ftl()
        # No explicit mapping: the FTL maps the block lazily.
        assert ftl.translate_read(10) >= 0


class TestWriteAllocation:
    def test_write_allocates_log_page(self):
        ftl, array = make_ftl()
        ftl.map_virtual_block(0)
        ppn, ready, gc_performed = ftl.allocate_write(0, now=0.0)
        geometry = array.geometry
        assert geometry.block_id(geometry.decompose(ppn)) == ftl.dbmt.lookup(0).plbn
        assert ready == 0.0 and not gc_performed

    def test_rewrites_allocate_distinct_log_pages(self):
        ftl, _ = make_ftl()
        ftl.map_virtual_block(0)
        first, _, _ = ftl.allocate_write(0, now=0.0)
        second, _, _ = ftl.allocate_write(0, now=10.0)
        assert first != second

    def test_log_block_fill_triggers_gc(self):
        ftl, _ = make_ftl(pages_per_block=4)
        ftl.map_virtual_block(0)
        gc_seen = False
        for i in range(12):
            _, _, gc_performed = ftl.allocate_write(i % 4, now=float(i))
            gc_seen = gc_seen or gc_performed
        assert gc_seen
        assert ftl.gc_merges >= 1


class TestDBMTSize:
    def test_block_granular_table_is_small(self):
        ftl, _ = make_ftl()
        ftl.setup_mapping(100)
        # Far smaller than a page-granular table would be.
        assert ftl.dbmt_size_bytes < ftl.dbmt.capacity_bytes


class TestProperties:
    @given(
        writes=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=30)
    )
    @settings(max_examples=30, deadline=None)
    def test_read_sees_latest_write(self, writes):
        # Large log blocks so the small working set never triggers a GC merge;
        # every written page then resolves through its log block.
        ftl, _ = make_ftl(pages_per_block=64, blocks=64)
        ftl.setup_mapping(16)
        time = 0.0
        for page in writes:
            _, ready, _ = ftl.allocate_write(page, now=time)
            time = ready + 1
        assert ftl.gc_merges == 0
        for page in set(writes):
            _, from_log_block = read_from_log(ftl, page)
            assert from_log_block

    @given(pages=st.lists(st.integers(min_value=0, max_value=31), min_size=1, max_size=20))
    @settings(max_examples=30, deadline=None)
    def test_clean_reads_never_from_log(self, pages):
        ftl, _ = make_ftl(pages_per_block=8, blocks=64)
        ftl.setup_mapping(32)
        for page in pages:
            _, from_log_block = read_from_log(ftl, page)
            assert not from_log_block
