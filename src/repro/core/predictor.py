"""PC-indexed spatial-locality predictor (Section IV-B, Fig. 8a).

The predictor lives next to the L2 cache.  It is indexed by the program
counter of the load instruction; each entry tracks the logical page most
recently accessed by a handful of representative warps and a small saturating
counter.  Requests from the same PC that keep hitting the recorded page raise
the counter; once it passes the cutoff threshold, an L2 miss from that PC
triggers a read prefetch of the surrounding data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.config import PrefetchConfig


@dataclass(slots=True)
class PredictorEntry:
    """One predictor-table entry for a PC address."""

    pc: int
    #: Logical page most recently accessed, tracked per representative warp.
    warp_pages: Dict[int, int] = field(default_factory=dict)
    counter: int = 0


class PredictorTable:
    """A 512-entry, PC-indexed table with 4-bit saturating counters."""

    def __init__(self, config: Optional[PrefetchConfig] = None) -> None:
        self.config = config or PrefetchConfig()
        self.entries: Dict[int, PredictorEntry] = {}
        self.max_counter = (1 << self.config.counter_bits) - 1
        self._num_entries = self.config.predictor_entries
        self._warps_tracked = self.config.warps_tracked_per_entry
        self.updates = 0
        self.evictions = 0

    def _entry_index(self, pc: int) -> int:
        # Multiplicative (Fibonacci) hash using the *high* bits of the product:
        # instruction addresses are word-aligned and highly structured, so a
        # plain modulo would alias hot loads onto the same entry and keep
        # resetting each other's counters.
        hashed = ((pc >> 2) * 2654435761) & 0xFFFFFFFF
        return (hashed * self.config.predictor_entries) >> 32

    def update(self, pc: int, warp_id: int, logical_page: int) -> int:
        """Record an access and return the entry's counter after the update.

        If the warp touches the page already recorded for it, the counter is
        incremented; otherwise the counter is decremented and the new page is
        recorded (Section IV-B).
        """
        self.updates += 1
        # The entry lookup, with _entry_index() inlined: one update per L2 read.
        index = (((pc >> 2) * 2654435761) & 0xFFFFFFFF) * self._num_entries >> 32
        entry = self.entries.get(index)
        if entry is None or entry.pc != pc:
            if entry is not None:
                self.evictions += 1
            entry = self.entries[index] = PredictorEntry(pc)
        tracked = entry.warp_pages
        previous_page = tracked.get(warp_id)
        if previous_page is None:
            if len(tracked) < self._warps_tracked:
                tracked[warp_id] = logical_page
            # Only five *representative* warps are tracked per entry
            # (Section IV-B); accesses from other warps train nothing but
            # still benefit from the entry's counter at prefetch time.
            return entry.counter
        # The paper rewards a PC that keeps accessing *continuous data blocks*:
        # the counter rises both when the same page is re-accessed and when the
        # access continues to the next sequential page; unpredictable jumps
        # lower it.  This captures the streaming/CSR-scan locality the prefetch
        # is meant to exploit.
        if logical_page == previous_page or logical_page == previous_page + 1:
            if entry.counter < self.max_counter:
                entry.counter += 1
        elif entry.counter > 0:
            entry.counter -= 1
        tracked[warp_id] = logical_page
        return entry.counter

    def counter(self, pc: int) -> int:
        entry = self.entries.get(self._entry_index(pc))
        if entry is None or entry.pc != pc:
            return 0
        return entry.counter

    def should_prefetch(self, pc: int) -> bool:
        """The cutoff test performed on an L2 miss (threshold 12 by default)."""
        return self.counter(pc) >= self.config.prefetch_threshold

    @property
    def occupancy(self) -> int:
        return len(self.entries)

    def reset(self) -> None:
        self.entries.clear()
        self.updates = 0
        self.evictions = 0
