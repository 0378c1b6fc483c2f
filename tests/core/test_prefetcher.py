"""Unit tests for the dynamic read prefetcher."""

import pytest

from repro.config import PrefetchConfig
from repro.core.prefetcher import DynamicReadPrefetcher
from repro.gpu.cache import PREFETCHED


def read(pc=0x1000, page=0, warp=0):
    """The ``(pc, warp_id, address)`` of a read of ``page``, as ``train`` takes them."""
    return pc, warp, page * 4096


class TestPrefetcher:
    def test_no_prefetch_before_training(self):
        prefetcher = DynamicReadPrefetcher()
        assert prefetcher.on_miss(0x1000) == prefetcher.line_bytes
        assert prefetcher.demand_fetches == 1

    def test_prefetch_after_training(self):
        config = PrefetchConfig(prefetch_threshold=3)
        prefetcher = DynamicReadPrefetcher(config)
        for _ in range(5):
            prefetcher.train(*read(page=5))
        assert prefetcher.on_miss(0x1000) > prefetcher.line_bytes
        assert prefetcher.prefetches_issued == 1

    def test_train_updates_predictor_with_page(self):
        prefetcher = DynamicReadPrefetcher()
        prefetcher.train(0x1000, 3, 5 * 4096 + 128)
        assert prefetcher.predictor.updates == 1

    def test_eviction_feedback_adjusts_granularity(self):
        config = PrefetchConfig(monitor_window_evictions=8, high_waste_threshold=0.3)
        prefetcher = DynamicReadPrefetcher(config)
        start = prefetcher.current_granularity
        wasted = [(i * 128, PREFETCHED) for i in range(8)]
        prefetcher.observe_evictions(wasted)
        assert prefetcher.current_granularity < start

    def test_prefetch_rate(self):
        config = PrefetchConfig(prefetch_threshold=1)
        prefetcher = DynamicReadPrefetcher(config)
        prefetcher.train(*read(page=1))
        prefetcher.train(*read(page=1))
        prefetcher.on_miss(0x1000)                      # prefetch
        prefetcher.on_miss(0x999)                       # demand (untrained)
        assert prefetcher.prefetch_rate == pytest.approx(0.5)

    def test_fetch_bytes_never_exceeds_page(self):
        config = PrefetchConfig(prefetch_threshold=1, initial_prefetch_bytes=8192)
        prefetcher = DynamicReadPrefetcher(config, page_size_bytes=4096)
        prefetcher.train(*read())
        prefetcher.train(*read())
        assert prefetcher.on_miss(0x1000) <= 4096
