"""Helper-thread garbage collection for the zero-overhead FTL (Section IV-A).

When every page of a physical log block has been consumed, a GPU helper
thread merges the log block with the data blocks of its group: the latest
copy of every written page is read (from the log block), the affected data
blocks are rewritten into freshly allocated blocks chosen by wear levelling,
the stale blocks and the log block are erased, and the DBMT / LBMT entries
are updated.  The merge charges real flash-array time, so heavy write traffic
slows the platform down exactly as it would in hardware.
"""

from __future__ import annotations

import weakref
from collections import defaultdict
from typing import Dict, List, Tuple, TYPE_CHECKING

from repro.ssd.znand import ZNANDArray

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.zero_overhead_ftl import ZeroOverheadFTL


class HelperThreadGC:
    """Log-block merge GC executed by a GPU helper thread."""

    #: GPU-side overhead of launching the helper thread and updating tables.
    LAUNCH_OVERHEAD_CYCLES = 200.0

    def __init__(self, ftl: "ZeroOverheadFTL", array: ZNANDArray) -> None:
        # The FTL owns its helper (``ftl.helper_gc``); a weak back-reference
        # keeps the pair out of a reference cycle, so a finished platform's
        # flash state is freed at once instead of at the next full collection.
        self.ftl = weakref.proxy(ftl)
        self.array = array
        self.merges = 0
        self.pages_copied = 0
        self.blocks_erased = 0

    def copy_page(self, source_ppn: int, target_ppn: int, now: float) -> float:
        """Read one page and program it at ``target_ppn``; return the
        program's completion cycle."""
        geometry = self.array.geometry
        _, read = self.array.read_page(
            geometry.plane_of_ppn(source_ppn), geometry.channel_of_ppn(source_ppn), now)
        _, completion = self.array.program_page(target_ppn, read)
        self.pages_copied += 1
        return completion

    def merge_group(self, plbn: int, now: float) -> float:
        """Merge the log block ``plbn`` with its group; return the completion cycle."""
        time = now + self.LAUNCH_OVERHEAD_CYCLES
        decoder = self.ftl.decoder_of_block(plbn)
        table = decoder.table_for(plbn)
        group = self.ftl.lbmt.group_by_plbn(plbn)
        if group is None:
            # Nothing is mapped to this log block; just reset it.
            table.reset()
            return time

        # Latest copies: (pdbn, page_index) -> log page.
        log_entries = table.valid_entries()
        touched_blocks: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for (pdbn, page_index), log_page in log_entries.items():
            touched_blocks[pdbn].append((page_index, log_page))

        for pdbn, pages in touched_blocks.items():
            # Read every modified page from the log block, the remaining valid
            # pages stay in place conceptually; the merge rewrites the whole
            # data block into a freshly allocated one.
            modified = dict(pages)
            new_pdbn = self.ftl._allocate_data_block()
            pages_per_block = self.ftl.pages_per_block()
            for page_index in range(pages_per_block):
                if page_index in modified:
                    source_ppn = self.ftl.ppn_in_block(plbn, modified[page_index])
                else:
                    source_ppn = self.ftl.ppn_in_block(pdbn, page_index)
                    # Untouched pages are copied only if they were ever valid;
                    # for sparsely used blocks we skip the copy to keep the
                    # merge proportional to real data.
                    if self.array.page_state(source_ppn) == 0:  # PageState.FREE
                        continue
                time = self.copy_page(
                    source_ppn, self.ftl.ppn_in_block(new_pdbn, page_index), time)

            # Erase the stale data block, return it to the free pool and
            # repoint the DBMT entries at the freshly merged block.
            time = self.array.erase_block(
                self.ftl.block_plane(pdbn), self.ftl.block_in_plane(pdbn), time)
            self.blocks_erased += 1
            self.ftl.release_data_block(pdbn)
            for entry in self.ftl.dbmt:
                if entry.pdbn == pdbn:
                    entry.pdbn = new_pdbn
            # Keep the group membership up to date.
            if pdbn in group.data_blocks:
                group.data_blocks.remove(pdbn)
            group.data_blocks.append(new_pdbn)

        # Erase the log block, return it to the free pool and allocate a new one.
        time = self.array.erase_block(
            self.ftl.block_plane(plbn), self.ftl.block_in_plane(plbn), time)
        self.blocks_erased += 1
        decoder.release(plbn)
        self.ftl.release_log_block(plbn)

        new_plbn = self.ftl._allocate_log_block(self.ftl.block_plane(plbn))
        self.ftl.lbmt.replace_log_block(group.group_id, new_plbn)
        for entry in self.ftl.dbmt:
            if entry.plbn == plbn:
                entry.plbn = new_plbn

        self.merges += 1
        return time
