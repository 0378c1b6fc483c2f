"""Data Block Mapping Table (DBMT) — the read-only half of the zero-overhead FTL.

The DBMT lives inside the GPU MMU (Section IV-A): it is a block-granular
mapping so that it fits in ~80 KB of MMU storage and can be cached by the TLB.
Each entry maps a *virtual block number* (VBN) to:

* LBN  — the logical block number (global memory address of the block),
* PDBN — the physical data block that stores the read-only pages in order,
* PLBN — the physical log block (shared by a group of data blocks) that
  absorbs writes.

Read requests index the physical data block directly with the page offset of
their virtual address; no per-page lookup is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional


@dataclass
class DBMTEntry:
    """One block-granular mapping entry (VBN -> LBN/PDBN/PLBN)."""

    vbn: int
    lbn: int
    pdbn: int
    plbn: int

    #: Bytes consumed by one entry in the MMU (four 4-byte fields, Section IV-A).
    ENTRY_BYTES = 16


class DataBlockMappingTable:
    """The block-granular, read-only mapping table stored in the MMU."""

    def __init__(self, capacity_bytes: int = 80 * 1024) -> None:
        self.capacity_bytes = capacity_bytes
        self.capacity_entries = capacity_bytes // DBMTEntry.ENTRY_BYTES
        self._entries: Dict[int, DBMTEntry] = {}
        self.lookups = 0
        self.misses = 0
        self.overflow_entries = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[DBMTEntry]:
        return iter(self._entries.values())

    @property
    def size_bytes(self) -> int:
        return len(self._entries) * DBMTEntry.ENTRY_BYTES

    def install(self, vbn: int, lbn: int, pdbn: int, plbn: int) -> DBMTEntry:
        """Install (or replace) the mapping for a virtual block.

        The MMU-resident table holds ``capacity_entries`` entries; mappings
        beyond that are still tracked (they live in the in-memory page table
        and are cached on demand) but counted as overflow so the design
        constraint can be checked with :meth:`fits_in_mmu`.
        """
        if vbn not in self._entries and len(self._entries) >= self.capacity_entries:
            self.overflow_entries += 1
        entry = DBMTEntry(vbn=vbn, lbn=lbn, pdbn=pdbn, plbn=plbn)
        self._entries[vbn] = entry
        return entry

    def lookup(self, vbn: int) -> Optional[DBMTEntry]:
        """Inlined in ZeroOverheadFTL.translate_read."""
        self.lookups += 1
        entry = self._entries.get(vbn)
        if entry is None:
            self.misses += 1
        return entry

    def fits_in_mmu(self) -> bool:
        """The paper's design constraint: the table must fit in ~80 KB."""
        return self.overflow_entries == 0 and self.size_bytes <= self.capacity_bytes
