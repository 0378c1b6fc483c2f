"""Log Page Mapping Table (LPMT) in the programmable flash row decoder.

Writes in ZnG are absorbed by *physical log blocks*.  Each log block's row
decoder is extended into a small content-addressable memory (Section IV-A,
Fig. 7b): programming a log page records ``(data block, page index)`` against
the log page's wordline, and a later read searches the CAM in two phases
(pre-charge, compare) to discover whether a page has been remapped.

Because Z-NAND only allows in-order programming, the next free page of a log
block is tracked with a simple register.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass
class LPMTEntry:
    """One CAM row: a (data block, page index) key mapped to a log page slot."""

    pdbn: int
    page_index: int
    log_page: int


class LogPageMappingTable:
    """The per-log-block CAM that remaps written pages."""

    def __init__(self, plbn: int, pages_per_block: int) -> None:
        self.plbn = plbn
        self.pages_per_block = pages_per_block
        self._entries: Dict[Tuple[int, int], LPMTEntry] = {}
        self.next_free_page = 0
        self.searches = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_full(self) -> bool:
        return self.next_free_page >= self.pages_per_block

    @property
    def free_pages(self) -> int:
        return self.pages_per_block - self.next_free_page

    def search(self, pdbn: int, page_index: int) -> Optional[int]:
        """CAM search: return the log page holding the latest copy, if any.

        Inlined in ZeroOverheadFTL.translate_read.
        """
        self.searches += 1
        entry = self._entries.get((pdbn, page_index))
        if entry is None:
            return None
        self.hits += 1
        return entry.log_page

    def program(self, pdbn: int, page_index: int) -> int:
        """Record a new write: allocate the next in-order log page.

        Returns the allocated log page index within the log block.  Re-writing
        the same page allocates a fresh log page (out-of-place update) and the
        CAM entry is repointed, matching the in-order programming rule.
        """
        if self.is_full:
            raise RuntimeError(f"log block {self.plbn} is full")
        log_page = self.next_free_page
        self.next_free_page += 1
        self._entries[(pdbn, page_index)] = LPMTEntry(
            pdbn=pdbn, page_index=page_index, log_page=log_page
        )
        return log_page

    def valid_entries(self) -> Dict[Tuple[int, int], int]:
        """Latest (data block, page index) -> log page map, for GC merges."""
        return {key: entry.log_page for key, entry in self._entries.items()}

    def reset(self, new_plbn: Optional[int] = None) -> None:
        """Erase-time reset: clear the CAM and the in-order pointer."""
        self._entries.clear()
        self.next_free_page = 0
        if new_plbn is not None:
            self.plbn = new_plbn


class ProgrammableRowDecoder:
    """The modified row decoder of one Z-NAND plane hosting LPMTs.

    The decoder adds no latency on the read path (the CAM search overlaps the
    wordline pre-charge, Fig. 7b), which is what makes the FTL "zero overhead";
    we nevertheless model the two-phase search occupancy as a constant so
    sensitivity studies can charge it if desired.
    """

    #: Cycles of the two-phase CAM search (overlapped with array access).
    SEARCH_CYCLES = 2.0
    #: Extra cycles to program the CAM cells alongside a log-page program.
    PROGRAM_CYCLES = 4.0

    def __init__(self, plane_id: int, pages_per_block: int) -> None:
        self.plane_id = plane_id
        self.pages_per_block = pages_per_block
        self._tables: Dict[int, LogPageMappingTable] = {}

    def table_for(self, plbn: int) -> LogPageMappingTable:
        table = self._tables.get(plbn)
        if table is None:
            table = self._tables[plbn] = LogPageMappingTable(plbn, self.pages_per_block)
        return table

    def search(self, plbn: int, pdbn: int, page_index: int) -> Optional[int]:
        return self.table_for(plbn).search(pdbn, page_index)

    def program(self, plbn: int, pdbn: int, page_index: int) -> int:
        return self.table_for(plbn).program(pdbn, page_index)

    def release(self, plbn: int) -> None:
        self._tables.pop(plbn, None)

    @property
    def tables(self) -> Dict[int, LogPageMappingTable]:
        return dict(self._tables)
