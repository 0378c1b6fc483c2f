"""Conventional page-mapped FTL firmware.

This is the firmware that runs on the SSD engine of a commercial SSD and of
HybridGPU: a full logical-page to physical-page mapping table kept in the
controller DRAM, per-plane write allocation with in-order programming, and
greedy garbage collection when clean blocks run low (Section II-B).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.config import ZNANDConfig
from repro.ssd.gc import GarbageCollector
from repro.ssd.znand import ZNANDArray


@dataclass
class PlaneAllocator:
    """Per-plane write allocation state.

    ``free_blocks`` stays ``None`` until the plane's first block switch,
    where :meth:`PageMappedFTL._advance_active_block` builds it as a compact
    ``array('l')`` of every block but block 0.  Nothing reads or appends to
    the pool before that switch (GC runs only from it), so it holds the
    same blocks whenever it is built.  A full-size data set touches
    hundreds of planes, each with hundreds of free blocks, and few of those
    planes ever fill a block.
    """

    active_block: int = 0
    next_page: int = 0
    free_blocks: "Optional[array[int]]" = None
    used_blocks: List[int] = field(default_factory=list)


class PageMappedFTL:
    """A page-level mapping FTL with greedy GC and wear-levelled allocation."""

    def __init__(
        self,
        array: ZNANDArray,
        gc_free_block_threshold: float = 0.05,
        usable_blocks_per_plane: Optional[int] = None,
    ) -> None:
        self.array = array
        self.geometry = array.geometry
        self.config: ZNANDConfig = array.config
        self.gc_threshold = gc_free_block_threshold
        self.gc = GarbageCollector(array)
        self.mapping: Dict[int, int] = {}
        self.reverse_mapping: Dict[int, int] = {}
        blocks = usable_blocks_per_plane or self.geometry.blocks_per_plane
        self.blocks_per_plane = min(blocks, self.geometry.blocks_per_plane)
        self._allocators: Dict[int, PlaneAllocator] = {}
        self._next_plane = 0
        # Statistics.
        self.host_writes = 0
        self.gc_invocations = 0

    # -- allocation -----------------------------------------------------------
    def _allocator(self, plane_id: int) -> PlaneAllocator:
        if plane_id not in self._allocators:
            self._allocators[plane_id] = PlaneAllocator()
        return self._allocators[plane_id]

    def _advance_active_block(self, plane_id: int, now: float) -> float:
        """Retire a full active block and open a new one, running GC if needed."""
        allocator = self._allocator(plane_id)
        if allocator.free_blocks is None:
            allocator.free_blocks = array("l", range(1, self.blocks_per_plane))
        allocator.used_blocks.append(allocator.active_block)
        time = now
        if not allocator.free_blocks or (
            len(allocator.free_blocks) / self.blocks_per_plane < self.gc_threshold
        ):
            time = self._run_gc(plane_id, time)
        if not allocator.free_blocks:
            raise RuntimeError(f"plane {plane_id} has no free blocks even after GC")
        destination = self.gc.select_destination(plane_id, allocator.free_blocks)
        allocator.free_blocks.remove(destination)
        allocator.active_block = destination
        allocator.next_page = 0
        return time

    def _allocate_ppn(self, plane_id: int, now: float) -> Tuple[int, float]:
        """Reserve the next in-order page on the plane's active block."""
        allocator = self._allocator(plane_id)
        time = now
        if allocator.next_page >= self.geometry.pages_per_block:
            time = self._advance_active_block(plane_id, time)
            allocator = self._allocator(plane_id)
        ppn = self.geometry.ppn_of(plane_id, allocator.active_block, allocator.next_page)
        allocator.next_page += 1
        return ppn, time

    def _pick_plane(self, lpn: int) -> int:
        """Stripe logical pages across planes for write parallelism."""
        return lpn % self.geometry.total_planes

    # -- garbage collection ----------------------------------------------------
    def _run_gc(self, plane_id: int, now: float) -> float:
        allocator = self._allocator(plane_id)
        if not allocator.used_blocks:
            return now
        victim = self.gc.select_victim(plane_id, allocator.used_blocks)
        if victim is None:
            return now
        allocator.used_blocks.remove(victim)
        valid_ppns = [
            ppn
            for ppn, lpn in list(self.reverse_mapping.items())
            if self.geometry.plane_of_ppn(ppn) == plane_id
            and self.geometry.decompose(ppn).block == victim
        ]

        def relocate(old_ppn: int, time: float) -> Tuple[int, float]:
            lpn = self.reverse_mapping.pop(old_ppn)
            new_ppn, time = self._allocate_ppn(plane_id, time)
            _, completion = self.array.program_page(new_ppn, time)
            self.mapping[lpn] = new_ppn
            self.reverse_mapping[new_ppn] = lpn
            return new_ppn, completion

        gc_result = self.gc.collect(plane_id, victim, valid_ppns, relocate, now)
        allocator.free_blocks.append(victim)
        self.gc_invocations += 1
        return gc_result.completion_cycle

    # -- host-facing operations -------------------------------------------------
    def translate(self, lpn: int) -> Optional[int]:
        return self.mapping.get(lpn)

    def read(
        self, lpn: int, now: float, transfer_bytes: Optional[int] = None
    ) -> Tuple[float, float, float]:
        """Read a logical page; unmapped pages read as if freshly allocated.

        Returns ``(array_cycles, transfer_cycles, completion)``.
        """
        ppn = self.mapping.get(lpn)
        if ppn is None:
            # Cold read of unwritten data: allocate a backing page lazily so the
            # access still exercises a real plane.
            ppn, now = self.write_mapping_only(lpn, now)
        geometry = self.geometry
        sensed, completion = self.array.read_page(
            geometry.plane_of_ppn(ppn), geometry.channel_of_ppn(ppn), now,
            transfer_bytes)
        return self.array.read_array_cycles, completion - sensed, completion

    def write_mapping_only(self, lpn: int, now: float) -> Tuple[int, float]:
        """Allocate a PPN for ``lpn`` without charging a program (initial load)."""
        plane_id = self._pick_plane(lpn)
        ppn, time = self._allocate_ppn(plane_id, now)
        old = self.mapping.get(lpn)
        if old is not None:
            self.array.mark_invalid(old)
            self.reverse_mapping.pop(old, None)
        self.mapping[lpn] = ppn
        self.reverse_mapping[ppn] = lpn
        self.array.mark_valid(ppn)
        return ppn, time

    def write(
        self, lpn: int, now: float, transfer_bytes: Optional[int] = None
    ) -> Tuple[float, float, float]:
        """Write a logical page out-of-place and update the mapping.

        Returns ``(array_cycles, transfer_cycles, completion)``.
        """
        self.host_writes += 1
        plane_id = self._pick_plane(lpn)
        ppn, time = self._allocate_ppn(plane_id, now)
        old = self.mapping.get(lpn)
        if old is not None:
            self.array.mark_invalid(old)
            self.reverse_mapping.pop(old, None)
        transferred, completion = self.array.program_page(ppn, time, transfer_bytes)
        self.mapping[lpn] = ppn
        self.reverse_mapping[ppn] = lpn
        return self.array.program_array_cycles, transferred - time, completion

    # -- metrics ----------------------------------------------------------------
    @property
    def write_amplification_factor(self) -> float:
        """Total flash programs / host-visible writes."""
        if self.host_writes == 0:
            return 0.0
        return self.array.page_programs / self.host_writes
