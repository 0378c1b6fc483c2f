"""Miss-status holding registers (MSHRs).

Misses to the same cache line are merged onto an existing MSHR entry
(secondary misses); a full MSHR back-pressures the pipeline, which we model
by returning the time at which an entry frees up.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple


class MSHR:
    """A finite pool of outstanding-miss entries for one cache.

    Entries expire lazily: an entry is live while its fill is later than
    ``now``, and dead entries stay in the table until the pool looks full or
    a stall retires them.  The per-request ``lookup``/``allocate`` therefore
    do no expiry work at all.

    Precondition: ``now`` never decreases across calls to one MSHR.  (Each SM
    owns its MSHR and probes it at its issue cycles, which only grow.)  A
    stall may retire entries whose fill is later than the next call's
    ``now``, so those are deleted outright rather than left to the lazy test.
    """

    def __init__(self, name: str, num_entries: int) -> None:
        if num_entries <= 0:
            raise ValueError("MSHR needs at least one entry")
        self.name = name
        self.num_entries = num_entries
        # Line address -> fill cycle of each miss, live or dead.
        self._entries: Dict[int, float] = {}
        # The latest ``now`` seen, which decides liveness for ``outstanding``,
        # and whether the latest call allocated an entry filled at that
        # ``now``: such an entry is outstanding until the next call.
        self._now = 0.0
        self._filled_at_now = False
        self.primary_misses = 0
        self.secondary_misses = 0
        self.stalls = 0

    def lookup(self, line_address: int, now: float) -> Optional[float]:
        """Return the fill cycle of an in-flight miss to ``line_address``, if any.

        Finding the line merges the miss into its entry: it counts as a
        secondary miss, and the caller needs no :meth:`allocate`.
        """
        self._now = now
        self._filled_at_now = False
        fill = self._entries.get(line_address)
        if fill is not None and fill > now:
            self.secondary_misses += 1
            return fill
        return None

    def allocate(
        self, line_address: int, now: float, fill_cycle: float
    ) -> Tuple[float, bool]:
        """Allocate (or merge into) an entry for a miss.

        Returns ``(ready_cycle, merged)``: the cycle at which the allocation
        could be made (later than ``now`` if the MSHR was full) and whether
        the miss was merged into an existing entry.
        """
        self._now = now
        entries = self._entries
        fill = entries.get(line_address)
        if fill is not None and fill > now:
            self._filled_at_now = False
            self.secondary_misses += 1
            return now, True

        stall_until = now
        if len(entries) >= self.num_entries:
            # The pool looks full: drop the dead entries, then check again.
            for address in [address for address, fill in entries.items() if fill <= now]:
                del entries[address]
            if len(entries) >= self.num_entries:
                # Structural hazard: wait until the earliest fill returns,
                # which retires every entry filled by then.
                stall_until = min(entries.values())
                self.stalls += 1
                for address in [address for address, fill in entries.items()
                                if fill <= stall_until]:
                    del entries[address]
        fill = entries[line_address] = max(fill_cycle, stall_until)
        self._filled_at_now = fill == now
        self.primary_misses += 1
        return stall_until, False

    @property
    def outstanding(self) -> int:
        """Entries still in flight at the latest ``now`` seen."""
        now = self._now
        live = sum(1 for fill in self._entries.values() if fill > now)
        return live + 1 if self._filled_at_now else live

    def reset(self) -> None:
        self._entries.clear()
        self._now = 0.0
        self._filled_at_now = False
        self.primary_misses = 0
        self.secondary_misses = 0
        self.stalls = 0
