"""Translation lookaside buffer shared by the SMs (Section II-A).

In ZnG the TLB caches entries of the data-block mapping table (DBMT) so that
most requests obtain their flash physical address without a page walk.
"""

from __future__ import annotations

from collections import OrderedDict


class TLB:
    """A fully-associative LRU TLB keyed by virtual page number.

    :meth:`MMU.translate` probes it: a hit moves the page to the MRU end,
    and it counts the hits and misses here.
    """

    def __init__(self, entries: int, page_size_bytes: int = 4096) -> None:
        if entries <= 0:
            raise ValueError("TLB needs at least one entry")
        self.capacity = entries
        self.page_size_bytes = page_size_bytes
        self._entries: "OrderedDict[int, int]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def virtual_page(self, address: int) -> int:
        return address // self.page_size_bytes

    def insert(self, virtual_address: int, payload: int) -> None:
        vpn = self.virtual_page(virtual_address)
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
            self._entries[vpn] = payload
            return
        if len(self._entries) >= self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        self._entries[vpn] = payload

    def invalidate(self, virtual_address: int) -> bool:
        vpn = self.virtual_page(virtual_address)
        return self._entries.pop(vpn, None) is not None

    @property
    def occupancy(self) -> int:
        return len(self._entries)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def reset_statistics(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
