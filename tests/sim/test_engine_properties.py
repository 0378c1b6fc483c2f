"""Additional property-based tests for the queueing-network engine invariants."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import BandwidthResource, Resource, ResourcePool


class TestResourceInvariants:
    @given(
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e5),
                st.floats(min_value=0.0, max_value=1e3),
            ),
            min_size=1,
            max_size=50,
        ),
        ports=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_start_never_before_arrival(self, arrivals, ports):
        resource = Resource("r", ports=ports)
        for when, duration in arrivals:
            start = resource.acquire(when, duration)
            assert start >= when - 1e-9

    @given(
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4),
                st.floats(min_value=0.1, max_value=100.0),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_single_port_no_overlap(self, arrivals):
        """With one port, service intervals never overlap."""
        resource = Resource("r", ports=1)
        intervals = []
        for when, duration in arrivals:
            start = resource.acquire(when, duration)
            intervals.append((start, start + duration))
        intervals.sort()
        for (_, end), (next_start, _) in zip(intervals, intervals[1:]):
            assert next_start >= end - 1e-6

    @given(
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4),
                st.floats(min_value=0.1, max_value=200.0),
            ),
            min_size=1,
            max_size=60,
        ),
        ports=st.integers(min_value=1, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_port_count_respected_under_interleavings(self, arrivals, ports):
        """At no instant do more than ``ports`` services overlap."""
        resource = Resource("r", ports=ports)
        intervals = []
        for when, duration in arrivals:
            start = resource.acquire(when, duration)
            intervals.append((start, start + duration))
        # Sweep the interval endpoints: concurrent services never exceed ports.
        events = sorted(
            [(start, 1) for start, _ in intervals] + [(end, -1) for _, end in intervals],
            key=lambda event: (event[0], event[1]),  # process ends before starts
        )
        active = 0
        for _, delta in events:
            active += delta
            assert active <= ports

    @given(
        arrivals=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4),
                st.floats(min_value=0.0, max_value=500.0),
            ),
            min_size=1,
            max_size=60,
        ),
        ports=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_utilization_at_completion_never_exceeds_one(self, arrivals, ports):
        """Unclamped utilisation must stay <=1 at the completion horizon.

        ``utilization()`` no longer clamps, so a double-booked port would
        push this above 1.0 and *fail* here instead of being capped away.
        (Short horizons may legitimately exceed 1: work is booked past them.)
        """
        resource = Resource("r", ports=ports)
        for when, duration in arrivals:
            resource.acquire(when, duration)
        assert resource.busy_cycles == pytest.approx(sum(d for _, d in arrivals))
        if resource.last_completion > 0:
            assert 0.0 <= resource.utilization(resource.last_completion) <= 1.0 + 1e-9
            assert resource.busy_cycles <= resource.last_completion * ports + 1e-6

    @given(ports=st.integers(min_value=1, max_value=16))
    @settings(max_examples=20, deadline=None)
    def test_parallel_arrivals_use_all_ports(self, ports):
        """``ports`` simultaneous arrivals all start at t=0."""
        resource = Resource("r", ports=ports)
        starts = [resource.acquire(0.0, 10.0) for _ in range(ports)]
        assert all(s == 0.0 for s in starts)
        # The (ports+1)-th must wait.
        assert resource.acquire(0.0, 10.0) == pytest.approx(10.0)


class HeapBookedPort:
    """Reference model: a one-port resource booked through a heap of port
    free times, as multi-port resources are."""

    def __init__(self):
        self.free_at = [0.0]
        self.busy_cycles = 0.0
        self.wait_cycles = 0.0
        self.requests_served = 0
        self.last_completion = 0.0

    def acquire(self, when, duration):
        earliest_free = heapq.heappop(self.free_at)
        start = when if when > earliest_free else earliest_free
        completion = start + duration
        heapq.heappush(self.free_at, completion)
        self.busy_cycles += duration
        self.wait_cycles += start - when
        self.requests_served += 1
        if completion > self.last_completion:
            self.last_completion = completion
        return start

    def next_free(self):
        return self.free_at[0]


_bookings = st.lists(
    st.tuples(st.floats(min_value=0.0, max_value=1e5),
              st.floats(min_value=0.0, max_value=1e3)),
    min_size=1, max_size=60)


class TestSinglePortMatchesHeapBooking:
    FIELDS = ("busy_cycles", "wait_cycles", "requests_served", "last_completion")

    def _replay(self, resource, bookings):
        model = HeapBookedPort()
        for when, duration in bookings:
            assert resource.acquire(when, duration) == model.acquire(when, duration)
            assert resource.next_free() == model.next_free()
            for field in self.FIELDS:
                assert getattr(resource, field) == getattr(model, field), field

    @given(bookings=_bookings, after_reset=_bookings)
    @settings(max_examples=100, deadline=None)
    def test_same_bookings_and_counters_before_and_after_reset(self, bookings, after_reset):
        resource = Resource("r", ports=1)
        self._replay(resource, bookings)
        resource.reset()
        assert resource.next_free() == 0.0
        for field in self.FIELDS:
            assert getattr(resource, field) == 0, field
        self._replay(resource, after_reset)

    def test_negative_duration_still_raises(self):
        resource = Resource("r", ports=1)
        resource.acquire(5.0, 2.0)
        with pytest.raises(ValueError):
            resource.acquire(10.0, -1.0)
        assert resource.requests_served == 1
        assert resource.next_free() == 7.0


class TestBandwidthInvariants:
    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=8192), min_size=1, max_size=40),
        bw=st.floats(min_value=1.0, max_value=256.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_total_bytes_conserved(self, sizes, bw):
        link = BandwidthResource("l", bytes_per_cycle=bw)
        for size in sizes:
            link.transfer(0.0, size)
        assert link.bytes_transferred == sum(sizes)

    @given(
        sizes=st.lists(st.integers(min_value=1, max_value=4096), min_size=1, max_size=30),
        bw=st.floats(min_value=1.0, max_value=64.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_serial_transfers_accumulate_time(self, sizes, bw):
        """Back-to-back transfers on one link finish no earlier than their sum."""
        link = BandwidthResource("l", bytes_per_cycle=bw)
        completion = 0.0
        for size in sizes:
            completion = link.transfer(0.0, size)
        min_time = sum(s / bw for s in sizes)
        assert completion >= min_time - 1e-6


    @given(
        transfers=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e4),
                st.integers(min_value=1, max_value=1 << 20),
            ),
            min_size=1,
            max_size=40,
        ),
        bw=st.floats(min_value=0.5, max_value=1024.0),
        fixed_latency=st.floats(min_value=0.0, max_value=500.0),
        ports=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=60, deadline=None)
    def test_transfer_completion_formula(self, transfers, bw, fixed_latency, ports):
        """Completion is exactly start + fixed_latency + bytes/bw, every time."""
        link = BandwidthResource("l", bytes_per_cycle=bw, ports=ports,
                                 fixed_latency=fixed_latency)
        shadow = Resource("shadow", ports=ports)
        for when, size in transfers:
            completion = link.transfer(when, size)
            # The same arrival against a plain resource with the computed
            # duration reproduces the start cycle the link must have used.
            start = shadow.acquire(when, link.transfer_time(size))
            assert completion == start + link.transfer_time(size)
            assert link.transfer_time(size) == fixed_latency + size / bw


class TestPoolInvariants:
    @given(
        indices=st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50),
        pool_size=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=40, deadline=None)
    def test_indexing_wraps(self, indices, pool_size):
        pool = ResourcePool([Resource(f"r{i}") for i in range(pool_size)])
        for index in indices:
            assert pool[index] is pool.resources[index % pool_size]

    @staticmethod
    def _linear_scan_least_loaded(pool):
        """The O(n) reference the lazy heap must agree with (lowest-index tie)."""
        best_index, best_time = 0, None
        for index, resource in enumerate(pool.resources):
            free = resource.next_free()
            if best_time is None or free < best_time:
                best_time, best_index = free, index
        return best_index

    @given(
        operations=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=100),  # routed resource
                st.floats(min_value=0.0, max_value=1e4),  # arrival
                st.floats(min_value=0.0, max_value=500.0),  # duration
            ),
            min_size=1,
            max_size=60,
        ),
        pool_size=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=60, deadline=None)
    def test_least_loaded_heap_matches_linear_scan(self, operations, pool_size):
        """The lazily-repaired heap stays correct under arbitrary direct
        acquires on pool members — including ones the pool never routed."""
        pool = ResourcePool([Resource(f"r{i}") for i in range(pool_size)])
        for routed, when, duration in operations:
            pool[routed].acquire(when, duration)
            assert pool.least_loaded_index() == self._linear_scan_least_loaded(pool)

    @given(
        operations=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1e3),
                st.floats(min_value=0.1, max_value=100.0),
            ),
            min_size=1,
            max_size=40,
        ),
        pool_size=st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=40, deadline=None)
    def test_acquire_least_loaded_survives_reset(self, operations, pool_size):
        pool = ResourcePool([Resource(f"r{i}") for i in range(pool_size)])
        for when, duration in operations:
            pool.acquire_least_loaded(when, duration)
        pool.reset()
        # After a reset every resource is idle again; the heap must have been
        # rebuilt (next_free moved *backwards*, which lazy repair can't see).
        assert pool.least_loaded_index() == 0
        index, start = pool.acquire_least_loaded(5.0, 1.0)
        assert index == 0 and start == 5.0
