"""GPU memory-management unit (Section II-A).

The MMU is a shared resource for all SMs.  It contains a highly-threaded page
table walker (32 walk threads), a page-walk cache, and a page-fault handler
that raises an interrupt to the host CPU when a page is not resident in GPU
memory.  The ZnG zero-overhead FTL replaces the page table payload with DBMT
entries; the MMU mechanics (TLB miss -> walk cache -> page walk) are shared.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.config import GPUConfig
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.tlb import TLB
from repro.sim.engine import Resource


class PageTable:
    """A two-level page table mapping virtual pages to physical frames.

    The payload stored per page is an opaque integer frame number; platforms
    interpret it (DRAM frame, flash data-block number, ...).  Pages that are
    not mapped trigger the page-fault path.
    """

    def __init__(self, page_size_bytes: int = 4096) -> None:
        self.page_size_bytes = page_size_bytes
        self._mapping: Dict[int, int] = {}
        self._next_frame = 0

    def map_page(self, virtual_page: int, frame: Optional[int] = None) -> int:
        if frame is None:
            frame = self._next_frame
            self._next_frame += 1
        self._mapping[virtual_page] = frame
        return frame

    def lookup(self, virtual_page: int) -> Optional[int]:
        return self._mapping.get(virtual_page)

    def __len__(self) -> int:
        return len(self._mapping)


class MMU:
    """Shared MMU with TLB, page-walk cache, threaded walker and fault handler."""

    def __init__(
        self,
        config: GPUConfig,
        page_table: Optional[PageTable] = None,
        fault_handler: Optional[Callable[[int, float], Tuple[int, float]]] = None,
    ) -> None:
        self.config = config
        self.page_size_bytes = config.page_size_bytes
        self.page_table = page_table or PageTable(config.page_size_bytes)
        self.tlb = TLB(config.tlb_entries, config.page_size_bytes)
        self.walk_cache = SetAssociativeCache(
            name="page_walk_cache",
            size_bytes=config.page_walk_cache_entries * 8,
            assoc=4,
            line_bytes=8,
        )
        # The page-table walker has a fixed number of concurrent walk threads.
        self.walker = Resource("page_table_walker", ports=config.page_walk_threads)
        self._fault_handler = fault_handler
        # Statistics.  Every translation probes the TLB once, so
        # ``translations`` is computed from its hits and misses.
        self.page_walks = 0
        self.page_faults = 0

    def set_fault_handler(
        self, handler: Callable[[int, float], Tuple[int, float]]
    ) -> None:
        """Install the platform's page-fault service routine.

        The handler receives ``(virtual_page, now)`` and returns
        ``(frame, completion_cycle)``.
        """
        self._fault_handler = handler

    @property
    def translations(self) -> int:
        return self.tlb.hits + self.tlb.misses

    def _physical_address(self, frame: int, virtual_address: int) -> int:
        page_size = self.page_size_bytes
        return frame * page_size + virtual_address % page_size

    def translate(self, virtual_address: int, now: float) -> Tuple[int, float, bool]:
        """Translate a virtual address, charging TLB/walk/fault latency.

        Returns ``(physical_address, latency_cycles, tlb_hit)``; walk-cache
        hits and page faults are counted in ``walk_cache`` and ``page_faults``.
        """
        page_size = self.page_size_bytes
        vpn = virtual_address // page_size

        # The TLB probe: a hit makes the page most recently used.
        tlb = self.tlb
        tlb_entries = tlb._entries
        cached_frame = tlb_entries.get(vpn)
        if cached_frame is not None:
            tlb_entries.move_to_end(vpn)
            tlb.hits += 1
            return cached_frame * page_size + virtual_address % page_size, 1.0, True
        tlb.misses += 1

        # TLB miss: a walk thread is allocated (Section II-A).
        walk_cache_hit = self.walk_cache.lookup(vpn * 8)
        walk_latency = (
            self.config.page_walk_cache_latency_cycles
            if walk_cache_hit
            else self.config.page_walk_latency_cycles
        )
        start = self.walker.acquire(now, walk_latency)
        completion = start + walk_latency
        self.page_walks += 1
        if not walk_cache_hit:
            self.walk_cache.insert(vpn * 8)

        frame = self.page_table.lookup(vpn)
        if frame is None:
            self.page_faults += 1
            if self._fault_handler is None:
                # Demand-zero mapping with no extra cost beyond the walk.
                frame = self.page_table.map_page(vpn)
            else:
                frame, fault_done = self._fault_handler(vpn, completion)
                self.page_table.map_page(vpn, frame)
                completion = max(completion, fault_done)

        tlb.insert(virtual_address, frame)
        return self._physical_address(frame, virtual_address), completion - now, False

    def preload(self, virtual_pages: Dict[int, int]) -> None:
        """Bulk-install translations (used to set up read-only DBMT mappings)."""
        for vpn, frame in virtual_pages.items():
            self.page_table.map_page(vpn, frame)

    def reset_statistics(self) -> None:
        self.page_walks = 0
        self.page_faults = 0
        self.tlb.reset_statistics()
        self.walk_cache.reset_statistics()
