"""Dynamic read prefetcher: predictor + cutoff test + access monitor (Fig. 8a).

On every L2 read access the predictor is trained with (PC, warp, logical
page).  On an L2 miss the cutoff test consults the predictor; if the counter
passes the threshold the prefetcher asks for ``granularity`` bytes of the
faulting flash page to be brought into the L2 instead of a single 128 B
block.  ``on_miss`` returns that fetch size in bytes; a size above one line
is a prefetch.  Evictions reported by the L2 feed the access monitor, which
tunes the granularity between 128 B and the full 4 KB page.
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

from repro.config import PrefetchConfig
from repro.core.access_monitor import AccessMonitor
from repro.core.predictor import PredictorTable


class DynamicReadPrefetcher:
    """The ZnG read-path optimisation attached to the shared L2."""

    def __init__(
        self,
        config: Optional[PrefetchConfig] = None,
        page_size_bytes: int = 4096,
        line_bytes: int = 128,
    ) -> None:
        self.config = config or PrefetchConfig()
        self.page_size_bytes = page_size_bytes
        self.line_bytes = line_bytes
        self.predictor = PredictorTable(self.config)
        self.monitor = AccessMonitor(self.config)
        self.prefetches_issued = 0
        self.demand_fetches = 0

    # -- training -------------------------------------------------------------
    def train(self, pc: int, warp_id: int, address: int) -> None:
        """Train the predictor with a read request seen at the L2."""
        self.predictor.update(pc, warp_id, address // self.page_size_bytes)

    # -- miss handling ----------------------------------------------------------
    def on_miss(self, pc: int) -> int:
        """Bytes to pull from the flash page for a missing read."""
        if self.predictor.should_prefetch(pc):
            self.prefetches_issued += 1
            return max(self.line_bytes, min(self.monitor.granularity_bytes, self.page_size_bytes))
        self.demand_fetches += 1
        return self.line_bytes

    # -- eviction feedback --------------------------------------------------------
    def observe_evictions(self, evictions: Iterable[Tuple[int, int]]) -> None:
        """Feed ``(line_address, state_bits)`` L2 evictions to the monitor."""
        observe = self.monitor.observe_eviction
        for _, state in evictions:
            observe(state)

    # -- reporting ----------------------------------------------------------------
    @property
    def current_granularity(self) -> int:
        return self.monitor.granularity_bytes

    @property
    def prefetch_rate(self) -> float:
        total = self.prefetches_issued + self.demand_fetches
        return self.prefetches_issued / total if total else 0.0
