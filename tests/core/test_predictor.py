"""Unit and property tests for the PC-indexed spatial-locality predictor."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import PrefetchConfig
from repro.core.predictor import PredictorTable


class TestPredictor:
    def test_repeated_page_raises_counter(self):
        predictor = PredictorTable()
        pc = 0x1000
        for _ in range(20):
            predictor.update(pc, warp_id=0, logical_page=5)
        assert predictor.counter(pc) >= predictor.config.prefetch_threshold

    def test_irregular_access_lowers_counter(self):
        predictor = PredictorTable()
        pc = 0x1000
        for _ in range(20):
            predictor.update(pc, warp_id=0, logical_page=5)
        # Non-sequential jumps (not same page, not next page) lower the counter.
        for page in (100, 3, 77, 12, 999, 1, 555, 8, 321, 40):
            predictor.update(pc, warp_id=0, logical_page=page)
        assert predictor.counter(pc) < predictor.config.prefetch_threshold

    def test_sequential_access_raises_counter(self):
        """Continuous (next-page) access is what the prefetcher targets."""
        predictor = PredictorTable()
        pc = 0x1000
        for page in range(20):
            predictor.update(pc, warp_id=0, logical_page=page)
        assert predictor.counter(pc) >= predictor.config.prefetch_threshold

    def test_counter_saturates(self):
        predictor = PredictorTable()
        pc = 0x2000
        for _ in range(1000):
            predictor.update(pc, warp_id=0, logical_page=5)
        assert predictor.counter(pc) == predictor.max_counter

    def test_counter_floor_is_zero(self):
        predictor = PredictorTable()
        pc = 0x2000
        # Alternating far-apart pages never form a continuous run -> floor at 0.
        for i in range(50):
            predictor.update(pc, warp_id=0, logical_page=(i * 997) % 100000)
        assert predictor.counter(pc) == 0

    def test_should_prefetch_threshold(self):
        config = PrefetchConfig(prefetch_threshold=3)
        predictor = PredictorTable(config)
        pc = 0x3000
        for _ in range(5):
            predictor.update(pc, warp_id=0, logical_page=1)
        assert predictor.should_prefetch(pc)

    def test_unknown_pc_counter_zero(self):
        predictor = PredictorTable()
        assert predictor.counter(0xdead) == 0
        assert not predictor.should_prefetch(0xdead)

    def test_limited_warp_tracking(self):
        config = PrefetchConfig(warps_tracked_per_entry=2)
        predictor = PredictorTable(config)
        pc = 0x4000
        for warp in range(5):
            predictor.update(pc, warp_id=warp, logical_page=warp)
        entry = predictor.entries[predictor._entry_index(pc)]
        assert len(entry.warp_pages) <= 2

    def test_distinct_pcs_independent(self):
        predictor = PredictorTable()
        for _ in range(20):
            predictor.update(0x1000, 0, 1)
        assert predictor.counter(0x2000) == 0

    @given(
        pages=st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=60)
    )
    @settings(max_examples=50, deadline=None)
    def test_counter_bounded(self, pages):
        predictor = PredictorTable()
        pc = 0x5000
        for page in pages:
            counter = predictor.update(pc, warp_id=0, logical_page=page)
            assert 0 <= counter <= predictor.max_counter

    def test_word_aligned_pcs_spread_across_entries(self):
        """Consecutive word-aligned PCs (the generator spaces loads by 8 bytes)
        must spread across predictor entries, not alias onto one as a plain
        modulo-by-512 would for an 8-byte stride."""
        predictor = PredictorTable(PrefetchConfig(predictor_entries=512))
        indices = {predictor._entry_index(0x1000 + 8 * i) for i in range(16)}
        assert len(indices) >= 12

    def test_hash_avoids_power_of_two_aliasing(self):
        """A stride that is a divisor of the table size would collapse a plain
        modulo to a single entry; the multiplicative hash must not."""
        predictor = PredictorTable(PrefetchConfig(predictor_entries=512))
        # 8-byte words, stride 64 -> 512-byte PC spacing == table size * 1.
        indices = {predictor._entry_index(0x1000 + 512 * i) for i in range(16)}
        assert len(indices) >= 8
