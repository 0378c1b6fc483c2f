"""Unit and property tests for the flash-register write cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import RegisterCacheConfig, ZNANDConfig
from repro.core.register_cache import FlashRegisterCache
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.znand import ZNANDArray


def make_cache(scope="package", registers_per_plane=8):
    config = ZNANDConfig(
        channels=4, dies_per_package=2, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=4,
    )
    array = ZNANDArray(config, network=FlashNetwork(config, "mesh"))
    rc_config = RegisterCacheConfig(registers_per_plane=registers_per_plane)
    return FlashRegisterCache(array, rc_config, scope=scope)


def noop_program(virtual_page, now):
    return now + 1000.0  # stand-in for a 100 us flash program


class TestWriteAbsorption:
    def test_first_write_is_miss(self):
        cache = make_cache()
        ready, register_hit, evicted_page = cache.write(
            0, target_plane=0, write_bytes=128, now=0.0, program_fn=noop_program)
        assert not register_hit
        assert evicted_page is None
        assert ready == cache.MERGE_LATENCY_CYCLES

    def test_repeated_write_is_hit(self):
        cache = make_cache()
        cache.write(0, 0, 128, 0.0, noop_program)
        _, register_hit, _ = cache.write(0, 0, 128, 10.0, noop_program)
        assert register_hit
        assert cache.write_hits == 1

    def test_merge_accumulates_dirty_bytes(self):
        cache = make_cache()
        cache.write(0, 0, 128, 0.0, noop_program)
        cache.write(0, 0, 128, 1.0, noop_program)
        group = cache.group_of_plane(0)
        entry = cache._packages[group][0]
        assert entry.dirty_bytes == 256
        assert entry.writes_merged == 2


class TestEviction:
    def test_eviction_programs_flash(self):
        cache = make_cache(scope="plane", registers_per_plane=2)
        programmed = []

        def program(page, now):
            programmed.append(page)
            return now + 1000.0

        # Three distinct pages to the same plane overflow its 2 registers.
        plane = 0
        cache.write(0, plane, 128, 0.0, program)
        cache.write(cache.planes_per_package, plane, 128, 0.0, program)  # same plane group in plane scope
        # In plane scope, group == plane; use pages that map to the same plane.
        cache.write(1000, plane, 128, 0.0, program)
        assert cache.evictions >= 1

    def test_package_scope_larger_capacity(self):
        package_cache = make_cache(scope="package", registers_per_plane=8)
        plane_cache = make_cache(scope="plane", registers_per_plane=8)
        assert package_cache._group_capacity > plane_cache._group_capacity


class TestPlaneScope:
    def test_prepare_for_read_drains_plane(self):
        cache = make_cache(scope="plane", registers_per_plane=2)
        programmed = []

        def program(page, now):
            programmed.append(page)
            return now + 1000.0

        cache.write(5, target_plane=3, write_bytes=128, now=0.0, program_fn=program)
        assert cache.holds(cache.group_of_plane(3), 5)
        cache.prepare_plane_for_read(3, now=100.0, program_fn=program)
        assert not cache.holds(cache.group_of_plane(3), 5)
        assert cache.forced_read_flushes == 1

    def test_package_scope_read_not_blocked(self):
        cache = make_cache(scope="package")
        completion = cache.prepare_plane_for_read(0, now=100.0, program_fn=noop_program)
        assert completion == 100.0


class TestThrashingSpill:
    def test_spill_to_l2_when_thrashing(self):
        config = RegisterCacheConfig(
            registers_per_plane=1, thrashing_window=2, thrashing_eviction_ratio=0.1,
        )
        znand = ZNANDConfig(
            channels=2, dies_per_package=1, planes_per_die=1,
            blocks_per_plane=8, pages_per_block=4,
        )
        array = ZNANDArray(znand, network=FlashNetwork(znand, "mesh"))
        cache = FlashRegisterCache(array, config, scope="package")
        spilled = []

        def spill(page, now):
            spilled.append(page)
            return now + 50.0

        # Force evictions until thrashing is detected, then spills begin.
        for page in range(20):
            cache.write(page, target_plane=0, write_bytes=128, now=float(page),
                        program_fn=noop_program, l2_spill_fn=spill)
        assert cache.l2_spills >= 1


class TestProperties:
    @given(
        pages=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60)
    )
    @settings(max_examples=30, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, pages):
        cache = make_cache(scope="package", registers_per_plane=8)
        for page in pages:
            cache.write(page, target_plane=0, write_bytes=128, now=0.0, program_fn=noop_program)
        group = cache.group_of_plane(0)
        assert cache.occupancy(group) <= cache._group_capacity

    @given(
        pages=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=80)
    )
    @settings(max_examples=30, deadline=None)
    def test_hits_plus_misses_equals_writes(self, pages):
        cache = make_cache()
        for page in pages:
            cache.write(page, target_plane=0, write_bytes=128, now=0.0, program_fn=noop_program)
        assert cache.write_hits + cache.write_misses == len(pages)
