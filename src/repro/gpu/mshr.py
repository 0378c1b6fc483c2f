"""Miss-status holding registers (MSHRs).

Misses to the same cache line are merged onto an existing MSHR entry
(secondary misses); a full MSHR back-pressures the pipeline, which we model
by returning the time at which an entry frees up.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple


class MSHR:
    """A finite pool of outstanding-miss entries for one cache.

    Expiry is driven by a min-heap of fill times rather than a scan of every
    entry per probe: ``lookup``/``allocate`` are on the per-request hot path
    and the old linear sweep dominated MSHR cost on large traces.
    """

    def __init__(self, name: str, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError("MSHR needs at least one entry")
        self.name = name
        self.num_entries = num_entries
        # Line address -> fill cycle of each outstanding miss.
        self._entries: Dict[int, float] = {}
        # (fill_cycle, line_address) heap with exactly one tuple per live
        # entry: allocate() pushes only on the primary-miss path (the merge
        # path returns before the push, and merges never change the fill),
        # and an entry only leaves _entries when _expire pops its tuple, so
        # the heap and the dict cannot drift apart.
        self._fill_heap: List[Tuple[float, int]] = []
        self.primary_misses = 0
        self.secondary_misses = 0
        self.stalls = 0

    def _expire(self, now: float) -> None:
        """Retire entries whose fill has completed by ``now``."""
        heap = self._fill_heap
        entries = self._entries
        while heap and heap[0][0] <= now:
            _, address = heapq.heappop(heap)
            entries.pop(address, None)

    def lookup(self, line_address: int, now: float) -> Optional[float]:
        """Return the fill cycle of an in-flight miss to ``line_address``, if any."""
        heap = self._fill_heap
        if heap and heap[0][0] <= now:
            self._expire(now)
        return self._entries.get(line_address)

    def allocate(
        self, line_address: int, now: float, fill_cycle: float
    ) -> Tuple[float, bool]:
        """Allocate (or merge into) an entry for a miss.

        Returns ``(ready_cycle, merged)``: the cycle at which the allocation
        could be made (later than ``now`` if the MSHR was full) and whether
        the miss was merged into an existing entry.
        """
        heap = self._fill_heap
        if heap and heap[0][0] <= now:
            self._expire(now)
        if line_address in self._entries:
            self.secondary_misses += 1
            return now, True

        stall_until = now
        if len(self._entries) >= self.num_entries:
            # Structural hazard: wait until the earliest fill returns.
            stall_until = heap[0][0]
            self.stalls += 1
            self._expire(stall_until)
        fill = max(fill_cycle, stall_until)
        self._entries[line_address] = fill
        heapq.heappush(heap, (fill, line_address))
        self.primary_misses += 1
        return stall_until, False

    @property
    def outstanding(self) -> int:
        return len(self._entries)

    def reset(self) -> None:
        self._entries.clear()
        self._fill_heap.clear()
        self.primary_misses = 0
        self.secondary_misses = 0
        self.stalls = 0
