"""Unit and property tests for the conventional page-mapped FTL firmware."""

import tracemalloc
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PlatformConfig, ZNANDConfig
from repro.platforms.base import GPUSSDPlatform
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.ftl_firmware import PageMappedFTL, PlaneAllocator
from repro.ssd.znand import ZNANDArray
from repro.workloads.registry import build_token_trace
from repro.workloads.trace import TraceKnobs


def make_ftl(gc_threshold=0.05, ftl_class=PageMappedFTL):
    config = ZNANDConfig(
        channels=2, dies_per_package=1, planes_per_die=2,
        blocks_per_plane=8, pages_per_block=4,
    )
    znand = ZNANDArray(config, network=FlashNetwork(config, "mesh"))
    return ftl_class(znand, gc_free_block_threshold=gc_threshold)


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


class EagerPoolFTL(PageMappedFTL):
    """Reference model: every plane gets its free-block pool on its first page."""

    def _allocator(self, plane_id):
        if plane_id not in self._allocators:
            self._allocators[plane_id] = PlaneAllocator(
                active_block=0,
                next_page=0,
                free_blocks=array("l", range(1, self.blocks_per_plane)),
                used_blocks=[],
            )
        return self._allocators[plane_id]


def record_switches(ftl):
    """Count each plane's block switches, GC relocations included."""
    switches = {}
    advance = ftl._advance_active_block

    def counting(plane_id, now):
        switches[plane_id] = switches.get(plane_id, 0) + 1
        return advance(plane_id, now)

    ftl._advance_active_block = counting
    return switches


def allocation_history(ftl, lpns):
    """Per write: the PPN, completion, GC count and each plane's blocks and pool.

    A plane that has not switched blocks yet reports its pool as ``None``,
    and must hold the pool both models start from: none (lazy) or every
    block but block 0 (eager).
    """
    switches = record_switches(ftl)
    history = []
    time = 0.0
    for lpn in lpns:
        _, _, time = ftl.write(lpn, now=time)
        planes = {}
        for plane, a in sorted(ftl._allocators.items()):
            if switches.get(plane):
                pool = list(a.free_blocks)
            else:
                assert a.free_blocks is None or (
                    list(a.free_blocks) == list(range(1, ftl.blocks_per_plane)))
                pool = None
            planes[plane] = (a.active_block, a.next_page, pool, list(a.used_blocks))
        history.append((ftl.translate(lpn), time, ftl.gc_invocations, planes))
    return history, switches


class TestLazyFreeBlockPool:
    """The pool built at a plane's first block switch is the eager pool."""

    def test_one_plane_through_block_switches_and_gc(self):
        # LPNs 0, 4, 8, 12 all stripe to plane 0 of the 4-plane geometry;
        # rewriting them fills a 4-page block every 4 writes.
        lpns = [4 * (i % 4) for i in range(40)]
        lazy = make_ftl(gc_threshold=0.3)
        eager = make_ftl(gc_threshold=0.3, ftl_class=EagerPoolFTL)
        destinations = {id(lazy): [], id(eager): []}
        for ftl in (lazy, eager):
            select = ftl.gc.select_destination

            def recording(plane_id, free_blocks, select=select, log=destinations[id(ftl)]):
                chosen = select(plane_id, free_blocks)
                log.append((plane_id, chosen))
                return chosen

            ftl.gc.select_destination = recording

        history, switches = allocation_history(lazy, lpns)
        assert (history, switches) == allocation_history(eager, lpns)
        assert destinations[id(lazy)] == destinations[id(eager)]
        assert list(switches) == [0] and switches[0] >= 2
        assert lazy.gc_invocations >= 1

    def test_the_pool_is_built_at_the_first_switch(self):
        ftl = make_ftl()
        for lpn in (0, 4, 8, 12):  # fill plane 0's block 0
            ftl.write(lpn, now=0.0)
        assert ftl._allocators[0].free_blocks is None
        ftl.write(16, now=0.0)
        allocator = ftl._allocators[0]
        assert (allocator.active_block, allocator.used_blocks) == (1, [0])
        assert list(allocator.free_blocks) == list(range(2, ftl.blocks_per_plane))

    @given(lpns=st.lists(st.integers(min_value=0, max_value=23), min_size=1, max_size=80),
           gc_threshold=st.sampled_from([0.05, 0.2, 0.4]))
    @settings(max_examples=40, deadline=None)
    def test_same_allocations_as_the_eager_pool(self, lpns, gc_threshold):
        lazy = make_ftl(gc_threshold=gc_threshold)
        eager = make_ftl(gc_threshold=gc_threshold, ftl_class=EagerPoolFTL)
        history, switches = allocation_history(lazy, lpns)
        assert (history, switches) == allocation_history(eager, lpns)
        for plane, allocator in lazy._allocators.items():
            assert (allocator.free_blocks is None) == (plane not in switches)


#: What HybridGPU's ``prepare`` of a scale-1.0 trace may hold.  The
#: free-block pool is built at a plane's first block switch, and no
#: paper-scale prepare fills a block: ``betw-back`` holds 0.45 MiB, against
#: 4.05 MiB with a pool as ``array('l')`` on every touched plane and 14.6 MiB
#: with one Python int object per free block; ``kv-lookup:get_ratio=0.3``
#: holds 0.26 MiB, against 2.78 MiB with the eager ``array('l')`` pools.
MAX_PREPARE_MIB = 1


class TestMemory:
    @pytest.mark.parametrize("token, touched_planes", [
        ("betw-back", 400), ("kv-lookup:get_ratio=0.3", 300)])
    def test_a_paper_scale_prepare_stays_within_its_memory_budget(
            self, token, touched_planes):
        trace = build_token_trace(token, TraceKnobs(scale=1.0, seed=1))
        platform = GPUSSDPlatform.build("HybridGPU", PlatformConfig())
        tracemalloc.start()
        try:
            platform.prepare(trace)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(platform.ftl._allocators) > touched_planes
        assert held <= MAX_PREPARE_MIB * 2 ** 20
