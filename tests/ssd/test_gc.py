"""Unit tests for the garbage collector."""

import pytest

from repro.config import ZNANDConfig
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.gc import GarbageCollector
from repro.ssd.znand import ZNANDArray


def make_array():
    config = ZNANDConfig(
        channels=2, dies_per_package=1, planes_per_die=1,
        blocks_per_plane=8, pages_per_block=4,
    )
    return ZNANDArray(config, network=FlashNetwork(config, "mesh"))


class TestVictimSelection:
    def test_selects_fewest_valid_pages(self):
        array = make_array()
        gc = GarbageCollector(array)
        # Block 0: 3 valid pages, Block 1: 1 valid page.
        for page in range(3):
            array.program_page(array.geometry.ppn_of(0, 0, page), now=0.0)
        array.program_page(array.geometry.ppn_of(0, 1, 0), now=0.0)
        assert gc.select_victim(0, [0, 1]) == 1

    def test_empty_candidates(self):
        array = make_array()
        gc = GarbageCollector(array)
        assert gc.select_victim(0, []) is None

    def test_tied_victims_keep_the_first_candidate(self):
        array = make_array()
        gc = GarbageCollector(array)
        for block in (4, 6):
            array.program_page(array.geometry.ppn_of(0, block, 0), now=0.0)
        assert gc.select_victim(0, [6, 4]) == 6


class TestWearLeveling:
    def test_prefers_lowest_erase_count(self):
        array = make_array()
        gc = GarbageCollector(array)
        array.erase_block(0, 2, now=0.0)  # block 2 now has erase_count 1
        destination = gc.select_destination(0, [2, 3])
        assert destination == 3

    def test_equal_wear_keeps_the_first_free_block(self):
        array = make_array()
        gc = GarbageCollector(array)
        assert gc.select_destination(0, [5, 3, 7]) == 5

    def test_no_free_blocks(self):
        array = make_array()
        gc = GarbageCollector(array)
        assert gc.select_destination(0, []) is None


class TestCollect:
    def test_migrates_and_erases(self):
        array = make_array()
        gc = GarbageCollector(array)
        valid = [array.geometry.ppn_of(0, 0, p) for p in range(2)]
        for ppn in valid:
            array.program_page(ppn, now=0.0)

        relocations = []

        def relocate(ppn, time):
            relocations.append(ppn)
            return ppn, time + 100.0

        result = gc.collect(0, victim_block=0, valid_ppns=valid, relocate=relocate, now=0.0)
        assert result.blocks_erased == 1
        assert result.pages_migrated == 2
        assert relocations == valid
        assert gc.total_blocks_erased == 1
