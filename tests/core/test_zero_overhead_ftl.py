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


def block_id(geometry, ppn):
    """Flat block index of a PPN: its plane times blocks per plane, plus its block."""
    location = geometry.decompose(ppn)
    return geometry.plane_id(location) * geometry.blocks_per_plane + location.block


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
        assert block_id(geometry, ppn) == ftl.dbmt.lookup(0).plbn
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


class TestDataBlockAllocation:
    def test_data_blocks_stripe_planes_and_decode_to_their_block(self):
        # The default geometry: every one of its 1,024 planes, two blocks deep.
        config = ZNANDConfig()
        array = ZNANDArray(config, network=FlashNetwork(config, "mesh"))
        ftl = ZeroOverheadFTL(array)
        geometry = array.geometry
        planes = geometry.total_planes
        for index in range(2 * planes):
            plane, block = index % planes, index // planes
            assert ftl._allocate_data_block() == block_id(
                geometry, geometry.ppn_of(plane, block, 0))

    def test_a_released_block_is_reused_first(self):
        ftl, _ = make_ftl()
        first = ftl._allocate_data_block()
        second = ftl._allocate_data_block()
        ftl.release_data_block(first)
        assert ftl._allocate_data_block() == first
        # The next fresh block is the third plane's block 0.
        assert second == ftl.geometry.blocks_per_plane
        assert ftl._allocate_data_block() == 2 * ftl.geometry.blocks_per_plane


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


def reference_translate(ftl, virtual_page):
    """``translate_read`` built from the helpers its body copies:
    ``dbmt.lookup`` -> ``decoder.search`` -> ``ppn_in_block``/``ppn_of``."""
    ftl.reads_translated += 1
    vbn, page_index = divmod(virtual_page, ftl.geometry.pages_per_block)
    entry = ftl.dbmt.lookup(vbn)
    if entry is None:
        entry = ftl.map_virtual_block(vbn)
    plane, block = divmod(entry.plbn, ftl.geometry.blocks_per_plane)
    log_page = ftl.row_decoder(plane).search(entry.plbn, entry.pdbn, page_index)
    if log_page is not None:
        ftl.reads_from_log += 1
        return ftl.geometry.ppn_of(plane, block, log_page)
    return ftl.ppn_in_block(entry.pdbn, page_index)


def translation_state(ftl):
    """Every counter a read translation touches, per LPMT table."""
    tables = {(plane, plbn): (table.searches, table.hits)
              for plane, decoder in ftl.row_decoders.items()
              for plbn, table in decoder.tables.items()}
    return (ftl.reads_translated, ftl.reads_from_log, ftl.dbmt.lookups,
            ftl.dbmt.misses, len(ftl.dbmt), tables)


class TestInlineTranslateReadMatchesHelpers:
    @given(ops=st.lists(st.tuples(st.booleans(), st.integers(0, 63)),
                        min_size=1, max_size=80))
    @settings(max_examples=100, deadline=None)
    def test_same_ppns_and_counters(self, ops):
        inline, _ = make_ftl(pages_per_block=4)
        reference, _ = make_ftl(pages_per_block=4)
        # Twelve writes to one block fill its group's 4-page log block, so the
        # helper GC merges it before the random stream starts.
        prefix = [(True, page % 4) for page in range(12)]
        for ftl in (inline, reference):
            ftl.setup_mapping(32)
        for step, (is_write, page) in enumerate(prefix + ops):
            if is_write:
                assert (inline.allocate_write(page, float(step))
                        == reference.allocate_write(page, float(step)))
            else:
                assert inline.translate_read(page) == reference_translate(reference, page)
            assert translation_state(inline) == translation_state(reference)
        assert inline.gc_merges >= 1
