"""Alternative prefetch policies used as comparison baselines.

ZnG's dynamic read prefetcher (``repro.core.prefetcher``) adapts its fetch
granularity from observed waste.  To show that adaptivity matters, this module
provides simpler fixed policies with the same interface as the dynamic one's
``on_miss``/``train`` methods, so a platform can be parameterised with any of
them and an ablation can compare:

* ``NoPrefetch``       — always fetch a single 128 B line (the ZnG-base policy),
* ``NextLinePrefetch`` — always fetch a fixed window around the miss,
* ``StridePrefetch``   — detect a constant per-PC stride and fetch ahead,
* the dynamic prefetcher — adaptive granularity (the ZnG policy).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.config import PrefetchConfig
from repro.core.prefetcher import PrefetchDecision
from repro.gpu.cache import EvictionRecord


class NoPrefetch:
    """Never prefetch; always fetch the demand line only."""

    name = "none"

    def __init__(self, line_bytes: int = 128, **_: object) -> None:
        self.line_bytes = line_bytes
        self.current_granularity = line_bytes

    def train(self, pc: int, warp_id: int, address: int) -> None:  # noqa: D401 - no-op
        return None

    def on_miss(self, pc: int) -> PrefetchDecision:
        return PrefetchDecision(prefetch=False, fetch_bytes=self.line_bytes, reason="disabled")

    def observe_evictions(self, records: Iterable[EvictionRecord]) -> None:
        return None

    @property
    def prefetch_rate(self) -> float:
        return 0.0

    def reset(self) -> None:
        return None


class NextLinePrefetch:
    """Always fetch a fixed window (default 1 KB) around the miss."""

    name = "next_line"

    def __init__(self, line_bytes: int = 128, window_bytes: int = 1024, page_size_bytes: int = 4096, **_: object) -> None:
        self.line_bytes = line_bytes
        self.window_bytes = window_bytes
        self.page_size_bytes = page_size_bytes
        self.current_granularity = window_bytes
        self.prefetches = 0

    def train(self, pc: int, warp_id: int, address: int) -> None:
        return None

    def on_miss(self, pc: int) -> PrefetchDecision:
        self.prefetches += 1
        fetch = min(self.window_bytes, self.page_size_bytes)
        return PrefetchDecision(prefetch=True, fetch_bytes=fetch, reason="fixed_window")

    def observe_evictions(self, records: Iterable[EvictionRecord]) -> None:
        return None

    @property
    def prefetch_rate(self) -> float:
        # Every miss prefetches.
        return 1.0 if self.prefetches else 0.0

    def reset(self) -> None:
        self.prefetches = 0


@dataclass
class _StrideEntry:
    last_page: int
    stride: int
    confidence: int


class StridePrefetch:
    """Per-PC constant-stride prefetcher.

    Tracks the last page accessed by each PC and the observed stride; once the
    stride is confirmed it prefetches the predicted next page.
    """

    name = "stride"

    def __init__(self, line_bytes: int = 128, page_size_bytes: int = 4096,
                 confidence_threshold: int = 2, **_: object) -> None:
        self.line_bytes = line_bytes
        self.page_size_bytes = page_size_bytes
        self.confidence_threshold = confidence_threshold
        self._table: Dict[int, _StrideEntry] = {}
        self.current_granularity = page_size_bytes
        self.prefetches = 0
        self.demands = 0

    def train(self, pc: int, warp_id: int, address: int) -> None:
        page = address // self.page_size_bytes
        entry = self._table.get(pc)
        if entry is None:
            self._table[pc] = _StrideEntry(last_page=page, stride=0, confidence=0)
            return
        stride = page - entry.last_page
        if stride == entry.stride and stride != 0:
            entry.confidence = min(self.confidence_threshold + 1, entry.confidence + 1)
        else:
            entry.stride = stride
            entry.confidence = 0
        entry.last_page = page

    def on_miss(self, pc: int) -> PrefetchDecision:
        entry = self._table.get(pc)
        if entry is not None and entry.confidence >= self.confidence_threshold and entry.stride != 0:
            self.prefetches += 1
            return PrefetchDecision(prefetch=True, fetch_bytes=self.page_size_bytes,
                                    reason="stride_confirmed")
        self.demands += 1
        return PrefetchDecision(prefetch=False, fetch_bytes=self.line_bytes, reason="no_stride")

    def observe_evictions(self, records: Iterable[EvictionRecord]) -> None:
        return None

    @property
    def prefetch_rate(self) -> float:
        total = self.prefetches + self.demands
        return self.prefetches / total if total else 0.0

    def reset(self) -> None:
        self._table.clear()
        self.prefetches = 0
        self.demands = 0


def build_prefetcher(name: str, config: Optional[PrefetchConfig] = None,
                     page_size_bytes: int = 4096, line_bytes: int = 128):
    """Construct a prefetcher baseline (or the dynamic one) by name."""
    config = config or PrefetchConfig()
    if name == "none":
        return NoPrefetch(line_bytes=line_bytes)
    if name == "next_line":
        return NextLinePrefetch(line_bytes=line_bytes, page_size_bytes=page_size_bytes)
    if name == "stride":
        return StridePrefetch(line_bytes=line_bytes, page_size_bytes=page_size_bytes)
    if name == "dynamic":
        from repro.core.prefetcher import DynamicReadPrefetcher

        return DynamicReadPrefetcher(config, page_size_bytes=page_size_bytes, line_bytes=line_bytes)
    raise ValueError(f"unknown prefetcher {name!r}")
