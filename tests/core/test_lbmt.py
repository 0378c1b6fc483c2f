"""Unit tests for the Log Block Mapping Table (shared-memory resident)."""

import pytest

from repro.core.lbmt import LogBlockMappingTable


class TestLBMT:
    def test_assign_groups_data_blocks(self):
        lbmt = LogBlockMappingTable(data_blocks_per_log_block=4)
        lbmt.assign(pdbn=0, plbn=100)
        lbmt.assign(pdbn=1, plbn=100)
        group = lbmt.group_by_plbn(100)
        assert group is not None
        assert set(group.data_blocks) == {0, 1}

    def test_group_id_contiguous_ranges(self):
        lbmt = LogBlockMappingTable(data_blocks_per_log_block=4)
        assert lbmt.group_id_of(0) == 0
        assert lbmt.group_id_of(3) == 0
        assert lbmt.group_id_of(4) == 1

    def test_log_block_lookup(self):
        lbmt = LogBlockMappingTable(data_blocks_per_log_block=4)
        lbmt.assign(2, plbn=55)
        assert lbmt.log_block_for(2) == 55
        assert lbmt.log_block_for(100) is None

    def test_group_by_plbn(self):
        lbmt = LogBlockMappingTable()
        lbmt.assign(0, plbn=77)
        group = lbmt.group_by_plbn(77)
        assert group is not None
        assert group.plbn == 77

    def test_replace_log_block(self):
        lbmt = LogBlockMappingTable()
        group = lbmt.assign(0, plbn=10)
        lbmt.replace_log_block(group.group_id, new_plbn=20)
        assert lbmt.log_block_for(0) == 20

    def test_replace_unknown_group(self):
        lbmt = LogBlockMappingTable()
        with pytest.raises(KeyError):
            lbmt.replace_log_block(99, 0)

    def test_size_bytes(self):
        lbmt = LogBlockMappingTable()
        lbmt.assign(0, plbn=1)
        lbmt.assign(8, plbn=2)
        assert lbmt.size_bytes == 2 * LogBlockMappingTable.ENTRY_BYTES

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            LogBlockMappingTable(data_blocks_per_log_block=0)

    def test_groups_listing(self):
        lbmt = LogBlockMappingTable(data_blocks_per_log_block=2)
        lbmt.assign(0, plbn=1)
        lbmt.assign(2, plbn=2)
        assert len(lbmt.groups()) == 2
