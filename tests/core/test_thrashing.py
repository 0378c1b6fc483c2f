"""Unit tests for the register-cache thrashing checker."""

from repro.config import RegisterCacheConfig
from repro.core.thrashing import ThrashingChecker


class TestThrashingChecker:
    def test_no_thrashing_below_threshold(self):
        config = RegisterCacheConfig(thrashing_window=10, thrashing_eviction_ratio=0.5)
        checker = ThrashingChecker(config)
        for _ in range(10):
            checker.observe(evicted=False)
        assert not checker.thrashing

    def test_thrashing_detected_above_threshold(self):
        config = RegisterCacheConfig(thrashing_window=10, thrashing_eviction_ratio=0.5)
        checker = ThrashingChecker(config)
        for _ in range(10):
            checker.observe(evicted=True)
        assert checker.thrashing
        assert checker.activations == 1

    def test_deactivation(self):
        config = RegisterCacheConfig(thrashing_window=4, thrashing_eviction_ratio=0.5)
        checker = ThrashingChecker(config)
        for _ in range(4):
            checker.observe(evicted=True)       # thrashing on
        for _ in range(4):
            checker.observe(evicted=False)  # thrashing off
        assert not checker.thrashing
        assert checker.deactivations == 1

    def test_eviction_ratio(self):
        """A window of 2 evictions in 4 accesses has ratio 0.5, and thrashing
        needs a ratio strictly above the threshold."""
        for threshold, thrashing in ((0.49, True), (0.5, False)):
            config = RegisterCacheConfig(thrashing_window=4, thrashing_eviction_ratio=threshold)
            checker = ThrashingChecker(config)
            checker.observe(evicted=True)
            checker.observe(evicted=False)
            checker.observe(evicted=True)
            checker.observe(evicted=False)
            assert checker.thrashing is thrashing, threshold

    def test_window_resets(self):
        config = RegisterCacheConfig(thrashing_window=2)
        checker = ThrashingChecker(config)
        checker.observe(evicted=True)
        checker.observe(evicted=True)
        # A new window begins.
        assert checker.window_accesses == 0

    def test_reset(self):
        checker = ThrashingChecker(RegisterCacheConfig(thrashing_window=2))
        checker.observe(evicted=True)
        checker.reset()
        assert checker.window_accesses == 0
        assert not checker.thrashing
