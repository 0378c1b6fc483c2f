"""Garbage collection shared by the firmware FTL and the ZnG helper thread.

GC migrates the valid pages of victim blocks into clean blocks, erases the
victims, and charges the flash-array time of every migration read/program and
erase.  Victim selection is greedy (fewest valid pages); wear levelling picks
the destination block with the lowest erase count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.ssd.znand import ZNANDArray


@dataclass
class GCResult:
    """Outcome of one garbage-collection pass."""

    blocks_erased: int
    pages_migrated: int
    completion_cycle: float


class GarbageCollector:
    """Greedy victim selection + wear-levelled reallocation."""

    def __init__(self, array: ZNANDArray) -> None:
        self.array = array
        self.total_blocks_erased = 0
        self.total_pages_migrated = 0

    def select_victim(self, plane_id: int, candidate_blocks: List[int]) -> Optional[int]:
        """Pick the candidate block with the fewest valid pages."""
        best_block: Optional[int] = None
        best_valid: Optional[int] = None
        for block in candidate_blocks:
            state = self.array.block_state(plane_id, block)
            if best_valid is None or state.valid_pages < best_valid:
                best_valid = state.valid_pages
                best_block = block
        return best_block

    def select_destination(
        self, plane_id: int, free_blocks: Sequence[int]
    ) -> Optional[int]:
        """Wear-levelling: reuse the free block with the lowest erase count."""
        if not free_blocks:
            return None
        return min(
            free_blocks,
            key=lambda block: self.array.block_state(plane_id, block).erase_count,
        )

    def collect(
        self,
        plane_id: int,
        victim_block: int,
        valid_ppns: List[int],
        relocate: Callable[[int, float], Tuple[int, float]],
        now: float,
    ) -> GCResult:
        """Migrate ``valid_ppns`` out of ``victim_block`` and erase it.

        ``relocate(ppn, time)`` is supplied by the owning FTL: it writes the
        page to its new location (charging flash time) and returns
        ``(new_ppn, completion_cycle)`` so the FTL can update its mapping.
        """
        time = now
        migrated = 0
        geometry = self.array.geometry
        for ppn in valid_ppns:
            _, time = self.array.read_page(
                geometry.plane_of_ppn(ppn), geometry.channel_of_ppn(ppn), time)
            _, time = relocate(ppn, time)
            self.array.mark_invalid(ppn)
            migrated += 1
        time = self.array.erase_block(plane_id, victim_block, time)
        self.total_blocks_erased += 1
        self.total_pages_migrated += migrated
        return GCResult(blocks_erased=1, pages_migrated=migrated, completion_cycle=time)
