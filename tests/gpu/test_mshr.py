"""Unit tests for the miss-status holding registers."""

import pytest

from repro.gpu.mshr import MSHR


class TestMSHR:
    def test_primary_allocation(self):
        mshr = MSHR("m", 4)
        ready, merged = mshr.allocate(0x1000, now=0.0, fill_cycle=100.0)
        assert ready == 0.0
        assert not merged
        assert mshr.primary_misses == 1
        assert mshr.outstanding == 1

    def test_secondary_miss_merges(self):
        mshr = MSHR("m", 4)
        mshr.allocate(0x1000, 0.0, 100.0)
        ready, merged = mshr.allocate(0x1000, 10.0, 100.0)
        assert merged
        assert mshr.secondary_misses == 1
        assert mshr.outstanding == 1

    def test_lookup_finds_inflight(self):
        mshr = MSHR("m", 4)
        mshr.allocate(0x1000, 0.0, 100.0)
        assert mshr.lookup(0x1000, now=50.0) == 100.0

    def test_lookup_hit_counts_merge(self):
        mshr = MSHR("m", 4)
        mshr.allocate(0x1000, 0.0, 100.0)
        assert mshr.lookup(0x2000, now=10.0) is None
        assert mshr.secondary_misses == 0
        assert mshr.lookup(0x1000, now=10.0) == 100.0
        assert mshr.secondary_misses == 1
        assert mshr.primary_misses == 1
        assert mshr.outstanding == 1

    def test_entries_expire_after_fill(self):
        mshr = MSHR("m", 4)
        mshr.allocate(0x1000, 0.0, 100.0)
        assert mshr.lookup(0x1000, now=150.0) is None
        assert mshr.outstanding == 0

    def test_full_mshr_stalls(self):
        mshr = MSHR("m", 2)
        mshr.allocate(0x0, 0.0, 100.0)
        mshr.allocate(0x1000, 0.0, 200.0)
        ready, merged = mshr.allocate(0x2000, 0.0, 300.0)
        assert not merged
        assert ready == 100.0  # had to wait for the earliest fill
        assert mshr.stalls == 1

    def test_structural_limit_respected(self):
        mshr = MSHR("m", 2)
        for i in range(5):
            mshr.allocate(i * 0x1000, 0.0, 100.0 * (i + 1))
        assert mshr.outstanding <= 2

    def test_rejects_zero_entries(self):
        with pytest.raises(ValueError):
            MSHR("bad", 0)

    def test_reset(self):
        mshr = MSHR("m", 2)
        mshr.allocate(0x0, 0.0, 10.0)
        mshr.reset()
        assert mshr.outstanding == 0
        assert mshr.primary_misses == 0
