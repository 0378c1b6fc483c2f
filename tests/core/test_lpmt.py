"""Unit tests for the Log Page Mapping Table and programmable row decoder."""

import pytest

from repro.core.lpmt import LogPageMappingTable, ProgrammableRowDecoder


class TestLogPageMappingTable:
    def test_program_then_search(self):
        lpmt = LogPageMappingTable(plbn=0, pages_per_block=8)
        log_page = lpmt.program(pdbn=3, page_index=5)
        assert lpmt.search(3, 5) == log_page

    def test_search_miss(self):
        lpmt = LogPageMappingTable(plbn=0, pages_per_block=8)
        assert lpmt.search(1, 1) is None

    def test_in_order_allocation(self):
        lpmt = LogPageMappingTable(plbn=0, pages_per_block=8)
        first = lpmt.program(0, 0)
        second = lpmt.program(0, 1)
        assert second == first + 1

    def test_rewrite_allocates_new_log_page(self):
        lpmt = LogPageMappingTable(plbn=0, pages_per_block=8)
        first = lpmt.program(0, 0)
        second = lpmt.program(0, 0)  # rewrite the same page
        assert second != first
        assert lpmt.search(0, 0) == second  # latest copy wins

    def test_is_full(self):
        lpmt = LogPageMappingTable(plbn=0, pages_per_block=2)
        lpmt.program(0, 0)
        lpmt.program(0, 1)
        assert lpmt.is_full
        with pytest.raises(RuntimeError):
            lpmt.program(0, 2)

    def test_valid_entries(self):
        lpmt = LogPageMappingTable(plbn=0, pages_per_block=8)
        lpmt.program(0, 0)
        lpmt.program(1, 0)
        valid = lpmt.valid_entries()
        assert set(valid) == {(0, 0), (1, 0)}

    def test_reset(self):
        lpmt = LogPageMappingTable(plbn=0, pages_per_block=4)
        lpmt.program(0, 0)
        lpmt.reset(new_plbn=9)
        assert lpmt.plbn == 9
        assert lpmt.next_free_page == 0
        assert len(lpmt) == 0

    def test_search_statistics(self):
        lpmt = LogPageMappingTable(plbn=0, pages_per_block=8)
        lpmt.program(0, 0)
        lpmt.search(0, 0)
        lpmt.search(5, 5)
        assert lpmt.searches == 2
        assert lpmt.hits == 1


class TestProgrammableRowDecoder:
    def test_table_creation_on_demand(self):
        decoder = ProgrammableRowDecoder(plane_id=0, pages_per_block=8)
        table = decoder.table_for(5)
        assert table.plbn == 5
        assert decoder.table_for(5) is table

    def test_program_and_search(self):
        decoder = ProgrammableRowDecoder(plane_id=0, pages_per_block=8)
        decoder.program(plbn=2, pdbn=3, page_index=1)
        assert decoder.search(2, 3, 1) is not None
        assert decoder.search(2, 3, 2) is None

    def test_release(self):
        decoder = ProgrammableRowDecoder(plane_id=0, pages_per_block=8)
        decoder.program(2, 3, 1)
        decoder.release(2)
        assert 2 not in decoder.tables

    def test_cam_search_is_overlapped(self):
        """CAM search cost is modelled as overlapping array access (near-zero)."""
        assert ProgrammableRowDecoder.SEARCH_CYCLES <= 4.0
