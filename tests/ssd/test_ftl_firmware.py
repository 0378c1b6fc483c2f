"""Unit and property tests for the conventional page-mapped FTL firmware."""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PlatformConfig, ZNANDConfig
from repro.platforms.base import GPUSSDPlatform
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.ftl_firmware import PageMappedFTL
from repro.ssd.znand import ZNANDArray
from repro.workloads.registry import build_token_trace
from repro.workloads.trace import TraceKnobs


def make_ftl(gc_threshold=0.05):
    config = ZNANDConfig(
        channels=2, dies_per_package=1, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=4,
    )
    array = ZNANDArray(config, network=FlashNetwork(config, "mesh"))
    return PageMappedFTL(array, gc_free_block_threshold=gc_threshold)


class TestMapping:
    def test_write_then_translate(self):
        ftl = make_ftl()
        ftl.write(10, now=0.0)
        assert ftl.translate(10) is not None

    def test_out_of_place_update(self):
        ftl = make_ftl()
        ftl.write(10, now=0.0)
        first_ppn = ftl.translate(10)
        ftl.write(10, now=1000.0)
        second_ppn = ftl.translate(10)
        assert first_ppn != second_ppn
        # The old physical page must be invalidated.
        assert ftl.array.page_state(first_ppn) != 1  # not VALID

    def test_read_unmapped_allocates(self):
        ftl = make_ftl()
        array_cycles, transfer_cycles, completion = ftl.read(42, now=0.0)
        assert array_cycles == ftl.array.read_array_cycles
        assert completion >= array_cycles + transfer_cycles > 0.0
        assert ftl.translate(42) is not None

    def test_write_mapping_only_no_program(self):
        ftl = make_ftl()
        _, _ = ftl.write_mapping_only(5, now=0.0)
        assert ftl.array.page_programs == 0
        assert ftl.translate(5) is not None


class TestGarbageCollection:
    def test_gc_triggers_when_blocks_exhaust(self):
        ftl = make_ftl(gc_threshold=0.2)
        # Repeatedly rewrite a small working set so out-of-place updates burn
        # through every plane's free blocks and force a GC pass.
        time = 0.0
        for _ in range(40):
            for lpn in range(16):
                _, _, time = ftl.write(lpn, now=time)
        assert ftl.gc_invocations >= 1

    def test_write_amplification_at_least_one(self):
        ftl = make_ftl()
        for lpn in range(8):
            ftl.write(lpn, now=0.0)
        assert ftl.write_amplification_factor >= 1.0


class TestProperties:
    @given(writes=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40))
    @settings(max_examples=30, deadline=None)
    def test_mapping_reflects_latest_write(self, writes):
        ftl = make_ftl(gc_threshold=0.1)
        time = 0.0
        for lpn in writes:
            _, _, time = ftl.write(lpn, now=time)
        # Every written logical page must resolve to a valid physical page.
        for lpn in set(writes):
            ppn = ftl.translate(lpn)
            assert ppn is not None


#: What HybridGPU's ``prepare`` of a scale-1.0 ``betw-back`` trace may hold:
#: about 4 MiB with the free-block lists as ``array('l')``, 14.6 MiB with
#: one Python int object per free block.
MAX_PREPARE_MIB = 6


class TestMemory:
    def test_a_paper_scale_prepare_stays_within_its_memory_budget(self):
        trace = build_token_trace("betw-back", TraceKnobs(scale=1.0, seed=1))
        platform = GPUSSDPlatform.build("HybridGPU", PlatformConfig())
        tracemalloc.start()
        try:
            platform.prepare(trace)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(platform.ftl._allocators) > 400
        assert held <= MAX_PREPARE_MIB * 2 ** 20
