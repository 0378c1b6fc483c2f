"""Unit tests for the Data Block Mapping Table (MMU-resident, read-only)."""

import pytest

from repro.core.dbmt import DataBlockMappingTable, DBMTEntry


class TestDBMT:
    def test_install_and_lookup(self):
        dbmt = DataBlockMappingTable()
        entry = dbmt.install(vbn=0, lbn=0, pdbn=5, plbn=100)
        assert dbmt.lookup(0) is entry
        assert entry.pdbn == 5
        assert entry.plbn == 100

    def test_lookup_miss(self):
        dbmt = DataBlockMappingTable()
        assert dbmt.lookup(99) is None
        assert dbmt.misses == 1

    def test_entry_size_is_16_bytes(self):
        assert DBMTEntry.ENTRY_BYTES == 16

    def test_capacity_entries(self):
        dbmt = DataBlockMappingTable(capacity_bytes=80 * 1024)
        assert dbmt.capacity_entries == 80 * 1024 // 16

    def test_size_bytes_tracks_entries(self):
        dbmt = DataBlockMappingTable()
        dbmt.install(0, 0, 0, 0)
        dbmt.install(1, 1, 1, 1)
        assert dbmt.size_bytes == 32

    def test_fits_in_mmu_within_budget(self):
        dbmt = DataBlockMappingTable(capacity_bytes=80 * 1024)
        for vbn in range(100):
            dbmt.install(vbn, vbn, vbn, vbn)
        assert dbmt.fits_in_mmu()

    def test_overflow_tracked(self):
        dbmt = DataBlockMappingTable(capacity_bytes=16 * 4)  # only 4 entries
        for vbn in range(6):
            dbmt.install(vbn, vbn, vbn, vbn)
        assert dbmt.overflow_entries == 2
        assert not dbmt.fits_in_mmu()

    def test_dbmt_fits_80kb_for_realistic_device(self):
        """The paper's key claim: block-granular mapping fits in ~80 KB."""
        # 800 GB device, 2 MB blocks (384 x 4 KB pages ~= 1.5 MB) => ~500k
        # blocks would need 8 MB at 16 B/entry, but only the *hot working set*
        # of blocks is resident; the resident DBMT is bounded at 80 KB / 16 =
        # 5120 entries.
        dbmt = DataBlockMappingTable(capacity_bytes=80 * 1024)
        assert dbmt.capacity_entries == 5120
