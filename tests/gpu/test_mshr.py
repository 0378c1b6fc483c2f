"""Unit tests for the miss-status holding registers."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.mshr import MSHR


class HeapMSHR:
    """Reference model: the MSHR that expires entries eagerly from a min-heap
    of fill cycles, on every call, before looking at its entries."""

    def __init__(self, num_entries):
        self.num_entries = num_entries
        self.entries = {}
        self.heap = []
        self.primary_misses = 0
        self.secondary_misses = 0
        self.stalls = 0

    def _expire(self, now):
        while self.heap and self.heap[0][0] <= now:
            _, address = heapq.heappop(self.heap)
            self.entries.pop(address, None)

    def lookup(self, line_address, now):
        self._expire(now)
        fill = self.entries.get(line_address)
        if fill is not None:
            self.secondary_misses += 1
        return fill

    def allocate(self, line_address, now, fill_cycle):
        self._expire(now)
        if line_address in self.entries:
            self.secondary_misses += 1
            return now, True
        stall_until = now
        if len(self.entries) >= self.num_entries:
            stall_until = self.heap[0][0]
            self.stalls += 1
            self._expire(stall_until)
        fill = max(fill_cycle, stall_until)
        self.entries[line_address] = fill
        heapq.heappush(self.heap, (fill, line_address))
        self.primary_misses += 1
        return stall_until, False

    @property
    def outstanding(self):
        return len(self.entries)


# One call: (allocate?, line, cycles to advance ``now`` by, fill minus ``now``).
# A few lines are reused, ``now`` repeats as well as grows, and fills land
# before, at and after ``now``.
_calls = st.tuples(st.booleans(), st.integers(0, 5), st.sampled_from([0, 0, 1, 3, 10]),
                   st.integers(-20, 60))


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


class TestLazyExpiryMatchesHeapModel:
    @given(entries=st.integers(1, 4), calls=st.lists(_calls, min_size=1, max_size=120))
    @settings(max_examples=200, deadline=None)
    def test_same_answers_as_reference(self, entries, calls):
        mshr = MSHR("lazy", entries)
        model = HeapMSHR(entries)
        now = 0.0
        for is_allocate, line, advance, fill_offset in calls:
            now += advance
            address = line * 128
            if is_allocate:
                assert (mshr.allocate(address, now, now + fill_offset)
                        == model.allocate(address, now, now + fill_offset))
            else:
                assert mshr.lookup(address, now) == model.lookup(address, now)
            assert mshr.outstanding == model.outstanding
            for counter in ("primary_misses", "secondary_misses", "stalls"):
                assert getattr(mshr, counter) == getattr(model, counter), counter

    def test_stall_retires_every_entry_tied_for_the_earliest_fill(self):
        mshr = MSHR("m", 3)
        mshr.allocate(0x0, 0.0, 100.0)
        mshr.allocate(0x1000, 0.0, 200.0)
        mshr.allocate(0x2000, 0.0, 100.0)
        assert mshr.allocate(0x3000, 0.0, 300.0) == (100.0, False)
        # Both entries that fill at 100 retire with the stall.
        assert mshr.outstanding == 2
        assert sorted(mshr._entries) == [0x1000, 0x3000]

    def test_stall_retires_entries_filled_by_the_stall(self):
        mshr = MSHR("m", 2)
        mshr.allocate(0x0, 0.0, 100.0)
        mshr.allocate(0x1000, 0.0, 200.0)
        assert mshr.allocate(0x2000, 0.0, 300.0) == (100.0, False)
        # Back at now=50 the entry that filled at 100 is gone, not merged.
        assert mshr.lookup(0x0, now=50.0) is None
        assert mshr.outstanding == 2
