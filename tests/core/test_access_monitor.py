"""Unit tests for the prefetch access monitor."""

import pytest

from repro.config import PrefetchConfig
from repro.core.access_monitor import AccessMonitor
from repro.gpu.cache import ACCESSED, DIRTY, PINNED, PREFETCHED


def wasted_record():
    """Tag bits of a line that was prefetched and never accessed."""
    return PREFETCHED


def useful_record():
    return PREFETCHED | ACCESSED


class TestAccessMonitor:
    def test_high_waste_shrinks_granularity(self):
        config = PrefetchConfig(monitor_window_evictions=10, high_waste_threshold=0.3)
        monitor = AccessMonitor(config)
        start = monitor.granularity_bytes
        for _ in range(10):
            monitor.observe_eviction(wasted_record())
        assert monitor.granularity_bytes < start

    def test_low_waste_grows_granularity(self):
        config = PrefetchConfig(
            monitor_window_evictions=10, low_waste_threshold=0.05,
            initial_prefetch_bytes=1024, max_prefetch_bytes=4096,
        )
        monitor = AccessMonitor(config)
        start = monitor.granularity_bytes
        for _ in range(10):
            monitor.observe_eviction(useful_record())
        assert monitor.granularity_bytes > start

    def test_granularity_floor(self):
        config = PrefetchConfig(
            monitor_window_evictions=4, high_waste_threshold=0.1,
            initial_prefetch_bytes=256, min_prefetch_bytes=128,
        )
        monitor = AccessMonitor(config)
        for _ in range(40):
            monitor.observe_eviction(wasted_record())
        assert monitor.granularity_bytes >= config.min_prefetch_bytes

    def test_granularity_ceiling(self):
        config = PrefetchConfig(
            monitor_window_evictions=4, low_waste_threshold=0.9,
            initial_prefetch_bytes=4096, max_prefetch_bytes=4096,
        )
        monitor = AccessMonitor(config)
        for _ in range(40):
            monitor.observe_eviction(useful_record())
        assert monitor.granularity_bytes <= config.max_prefetch_bytes

    def test_no_adjustment_before_window(self):
        config = PrefetchConfig(monitor_window_evictions=10)
        monitor = AccessMonitor(config)
        for _ in range(9):
            monitor.observe_eviction(wasted_record())
            assert monitor.granularity_bytes == config.initial_prefetch_bytes

    def test_granularity_moves_at_the_windows_last_eviction(self):
        config = PrefetchConfig(monitor_window_evictions=4, high_waste_threshold=0.3)
        monitor = AccessMonitor(config)
        granularities = []
        for _ in range(8):
            monitor.observe_eviction(wasted_record())
            granularities.append(monitor.granularity_bytes)
        start = config.initial_prefetch_bytes
        assert granularities == [start] * 3 + [start // 2] * 4 + [start // 4]

    def test_overall_waste_ratio(self):
        monitor = AccessMonitor(PrefetchConfig(monitor_window_evictions=1000))
        monitor.observe_eviction(wasted_record())
        monitor.observe_eviction(useful_record())
        assert monitor.overall_waste_ratio == pytest.approx(0.5)

    def test_non_prefetched_eviction_not_wasteful(self):
        monitor = AccessMonitor(PrefetchConfig(monitor_window_evictions=1000))
        monitor.observe_eviction(0)
        assert monitor.overall_waste_ratio == 0.0

    def test_dirty_and_pinned_bits_do_not_change_waste(self):
        monitor = AccessMonitor(PrefetchConfig(monitor_window_evictions=1000))
        monitor.observe_eviction(PREFETCHED | DIRTY | PINNED)
        monitor.observe_eviction(PREFETCHED | ACCESSED | DIRTY)
        monitor.observe_eviction(DIRTY | PINNED)
        assert monitor.total_unused == 1
