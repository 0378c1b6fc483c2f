"""Access monitor for dynamic prefetch-granularity adjustment (Section IV-B).

Every evicted L2 line carries two ZnG tag bits: *prefetched* and *accessed*.
The monitor counts evictions of prefetched-but-never-accessed lines and
computes a waste ratio over a window; if the ratio exceeds the high threshold
the prefetch granularity is halved, and if it drops below the low threshold
the granularity grows by 1 KB.  The paper's sweep found (high, low) =
(0.3, 0.05) to perform best — the same sweep is reproduced in
``benchmarks/test_sweep_prefetch_thresholds.py``.
"""

from __future__ import annotations

from typing import Optional

from repro.config import PrefetchConfig
from repro.gpu.cache import ACCESSED, PREFETCHED


class AccessMonitor:
    """Tracks prefetch waste and adapts the prefetch granularity."""

    def __init__(self, config: Optional[PrefetchConfig] = None) -> None:
        self.config = config or PrefetchConfig()
        self.granularity_bytes = self.config.initial_prefetch_bytes
        self.evict_counter = 0
        self.unused_counter = 0
        self.total_evictions = 0
        self.total_unused = 0

    def observe_eviction(self, state: int) -> None:
        """Account one L2 eviction of a line with tag ``state`` bits.

        The last eviction of each window adjusts the prefetch granularity.
        """
        self.evict_counter += 1
        self.total_evictions += 1
        if state & (PREFETCHED | ACCESSED) == PREFETCHED:
            self.unused_counter += 1
            self.total_unused += 1
        if self.evict_counter >= self.config.monitor_window_evictions:
            self._adjust()

    def _adjust(self) -> None:
        waste_ratio = self.unused_counter / self.evict_counter
        if waste_ratio > self.config.high_waste_threshold:
            self.granularity_bytes = max(
                self.config.min_prefetch_bytes, self.granularity_bytes // 2
            )
        elif waste_ratio < self.config.low_waste_threshold:
            self.granularity_bytes = min(
                self.config.max_prefetch_bytes,
                self.granularity_bytes + self.config.granularity_step_bytes,
            )
        self.evict_counter = 0
        self.unused_counter = 0

    @property
    def overall_waste_ratio(self) -> float:
        if self.total_evictions == 0:
            return 0.0
        return self.total_unused / self.total_evictions
