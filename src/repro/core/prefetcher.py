"""Dynamic read prefetcher: predictor + cutoff test + access monitor (Fig. 8a).

On every L2 read access the predictor is trained with (PC, warp, logical
page).  On an L2 miss the cutoff test consults the predictor; if the counter
passes the threshold the prefetcher asks for ``granularity`` bytes of the
faulting flash page to be brought into the L2 instead of a single 128 B
block.  Evictions reported by the L2 feed the access monitor, which tunes the
granularity between 128 B and the full 4 KB page.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.config import PrefetchConfig
from repro.core.access_monitor import AccessMonitor
from repro.core.predictor import PredictorTable
from repro.gpu.cache import EvictionRecord
from repro.sim.request import MemoryRequest


@dataclass(frozen=True, slots=True)
class PrefetchDecision:
    """What to fetch from flash for one missing read."""

    prefetch: bool
    fetch_bytes: int
    reason: str = ""


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
        # Decisions are immutable; the two that fetch one line are shared.
        self._write_decision = PrefetchDecision(False, line_bytes, "write")
        self._demand_decision = PrefetchDecision(False, line_bytes, "cutoff_fail")

    # -- training -------------------------------------------------------------
    def train(self, request: MemoryRequest) -> None:
        """Train the predictor with a read request seen at the L2."""
        if request.is_read:
            self.predictor.update(
                request.pc, request.warp_id, request.address // self.page_size_bytes)

    # -- miss handling ----------------------------------------------------------
    def on_miss(self, request: MemoryRequest) -> PrefetchDecision:
        """Decide how many bytes to pull from the flash page for a missing read."""
        if not request.is_read:
            return self._write_decision
        if self.predictor.should_prefetch(request.pc):
            fetch = max(self.line_bytes, min(self.monitor.granularity_bytes, self.page_size_bytes))
            self.prefetches_issued += 1
            return PrefetchDecision(True, fetch, "cutoff_pass")
        self.demand_fetches += 1
        return self._demand_decision

    # -- eviction feedback --------------------------------------------------------
    def observe_evictions(self, records: Iterable[EvictionRecord]) -> None:
        for record in records:
            self.monitor.observe_eviction(record)

    # -- reporting ----------------------------------------------------------------
    @property
    def current_granularity(self) -> int:
        return self.monitor.granularity_bytes

    @property
    def prefetch_rate(self) -> float:
        total = self.prefetches_issued + self.demand_fetches
        return self.prefetches_issued / total if total else 0.0

    def reset(self) -> None:
        self.predictor.reset()
        self.monitor.reset()
        self.prefetches_issued = 0
        self.demand_fetches = 0
