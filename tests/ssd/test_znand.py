"""Unit and property tests for the Z-NAND flash array."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import ZNANDConfig, us_to_cycles
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.znand import PageState, ZNANDArray


def small_array(network_type="mesh"):
    config = ZNANDConfig(
        channels=4, dies_per_package=2, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=4,
    )
    return ZNANDArray(config, network=FlashNetwork(config, network_type))


def read(array, ppn, now, transfer_bytes=None):
    """``array.read_page`` of one PPN, decoded into its plane and channel."""
    geometry = array.geometry
    return array.read_page(geometry.plane_of_ppn(ppn), geometry.channel_of_ppn(ppn),
                           now, transfer_bytes)


class TestTiming:
    def test_read_latency_matches_config(self):
        array = small_array()
        sensed, _ = read(array, 0, now=0.0)
        # Array latency includes the 3 us sense plus command overhead.
        assert sensed == array.read_array_cycles
        assert array.read_array_cycles >= us_to_cycles(3.0)

    def test_program_slower_than_read(self):
        array = small_array()
        sensed, _ = read(array, 0, now=0.0)
        transferred, programmed = array.program_page(1, now=0.0)
        assert programmed - transferred > sensed
        assert array.program_array_cycles > array.read_array_cycles

    def test_erase_is_expensive(self):
        array = small_array()
        completion = array.erase_block(plane_id=0, block=0, now=0.0)
        assert completion == array.erase_array_cycles
        assert completion >= us_to_cycles(100.0)

    def test_partial_transfer_still_senses_full_page(self):
        array = small_array()
        full_sensed, full_done = read(array, 0, now=0.0)
        array.reset_statistics()
        partial_sensed, partial_done = read(array, 0, now=0.0, transfer_bytes=128)
        # The array sense time is identical; only the network transfer shrinks.
        assert partial_sensed == full_sensed
        assert partial_done - partial_sensed < full_done - full_sensed

    def test_plane_serializes_operations(self):
        array = small_array()
        # Two reads to the same plane (ppn 0 and ppn that maps to same plane).
        same_plane_ppn = array.geometry.ppn_of(0, 0, 1)
        first_sensed, _ = read(array, 0, now=0.0)
        second_sensed, _ = read(array, same_plane_ppn, now=0.0)
        # The second sense starts only once the first has finished.
        assert second_sensed - array.read_array_cycles >= first_sensed


class TestPageState:
    def test_program_marks_valid(self):
        array = small_array()
        array.program_page(0, now=0.0)
        assert array.page_state(0) == PageState.VALID

    def test_mark_invalid(self):
        array = small_array()
        array.program_page(0, now=0.0)
        array.mark_invalid(0)
        assert array.page_state(0) == PageState.INVALID

    def test_valid_page_count(self):
        array = small_array()
        ppns = [array.geometry.ppn_of(0, 0, p) for p in range(4)]
        for ppn in ppns:
            array.program_page(ppn, now=0.0)
        state = array.block_state(0, 0)
        assert state.valid_pages == 4

    def test_erase_resets_block(self):
        array = small_array()
        for page in range(4):
            array.program_page(array.geometry.ppn_of(0, 0, page), now=0.0)
        array.erase_block(0, 0, now=0.0)
        state = array.block_state(0, 0)
        assert state.next_free_page == 0
        assert state.valid_pages == 0
        assert state.erase_count == 1


class TestStatistics:
    def test_read_write_counts(self):
        array = small_array()
        read(array, 0, now=0.0)
        array.program_page(1, now=0.0)
        assert array.page_reads == 1
        assert array.page_programs == 1

    def test_per_plane_counts(self):
        array = small_array()
        array.program_page(0, now=0.0)  # plane 0
        array.program_page(1, now=0.0)  # plane mapped from ppn 1
        assert sum(array.writes_per_plane) == 2

    def test_write_heatmap_shape(self):
        array = small_array()
        heatmap = array.write_heatmap()
        assert heatmap.shape == (4, array.geometry.total_planes // 4)

    def test_read_bandwidth_positive(self):
        array = small_array()
        completion = 0.0
        for ppn in range(8):
            completion = max(completion, read(array, ppn, now=0.0)[1])
        assert array.array_read_bandwidth_bytes_per_s(completion) > 0

    def test_reset_statistics(self):
        array = small_array()
        read(array, 0, now=0.0)
        array.reset_statistics()
        assert array.page_reads == 0
        assert sum(array.reads_per_plane) == 0


class TestProperties:
    @given(ppns=st.lists(st.integers(min_value=0, max_value=511), min_size=1, max_size=50))
    @settings(max_examples=40, deadline=None)
    def test_bytes_read_tracks_reads(self, ppns):
        array = small_array()
        for ppn in ppns:
            read(array, ppn % array.geometry.total_pages, now=0.0)
        assert array.bytes_read_from_array == len(ppns) * array.config.page_size_bytes

    @given(page=st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_program_advances_free_pointer(self, page):
        array = small_array()
        ppn = array.geometry.ppn_of(0, 0, page)
        array.program_page(ppn, now=0.0)
        assert array.block_state(0, 0).next_free_page >= page + 1
