"""Unit tests for the queueing-network primitives."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import BandwidthResource, Resource, ResourcePool


class TestResource:
    def test_single_port_serializes(self):
        resource = Resource("r", ports=1)
        start_a = resource.acquire(0.0, 10.0)
        start_b = resource.acquire(0.0, 10.0)
        assert start_a == 0.0
        assert start_b == 10.0

    def test_multi_port_runs_in_parallel(self):
        resource = Resource("r", ports=2)
        assert resource.acquire(0.0, 10.0) == 0.0
        assert resource.acquire(0.0, 10.0) == 0.0
        # Third request waits for the first port to free.
        assert resource.acquire(0.0, 10.0) == 10.0

    def test_acquire_respects_request_time(self):
        resource = Resource("r", ports=1)
        assert resource.acquire(50.0, 5.0) == 50.0

    def test_busy_cycles_accumulate(self):
        resource = Resource("r", ports=1)
        resource.acquire(0.0, 10.0)
        resource.acquire(0.0, 15.0)
        assert resource.busy_cycles == 25.0
        assert resource.requests_served == 2

    def test_utilization_is_unclamped_and_honest(self):
        resource = Resource("r", ports=1)
        resource.acquire(0.0, 100.0)
        # A horizon shorter than the booked work reports >1 honestly (the
        # old clamp reported exactly 1.0 here, hiding double-booking bugs).
        assert resource.utilization(50.0) == pytest.approx(2.0)
        assert resource.utilization(200.0) == pytest.approx(0.5)
        # At any horizon covering every completion, a correct resource is <=1.
        assert resource.utilization(resource.last_completion) <= 1.0 + 1e-9

    def test_zero_ports_rejected(self):
        with pytest.raises(ValueError):
            Resource("bad", ports=0)

    def test_negative_duration_rejected(self):
        resource = Resource("r")
        with pytest.raises(ValueError):
            resource.acquire(0.0, -1.0)

    @pytest.mark.parametrize("ports", [1, 3])
    def test_nan_duration_rejected_and_leaves_the_resource_intact(self, ports):
        resource = Resource("r", ports=ports)
        resource.acquire(0.0, 5.0)
        with pytest.raises(ValueError):
            resource.acquire(0.0, float("nan"))
        assert resource.last_completion == 5.0
        assert resource.busy_cycles == 5.0
        assert resource.requests_served == 1
        assert resource.acquire(0.0, 1.0) == (5.0 if ports == 1 else 0.0)

    def test_reset_clears_bookings(self):
        resource = Resource("r", ports=1)
        resource.acquire(0.0, 100.0)
        resource.reset()
        assert resource.acquire(0.0, 1.0) == 0.0
        assert resource.busy_cycles == 1.0

    def test_next_free_reports_earliest_port(self):
        resource = Resource("r", ports=2)
        resource.acquire(0.0, 10.0)
        resource.acquire(0.0, 20.0)
        assert resource.next_free() == 10.0

    @given(
        durations=st.lists(st.floats(min_value=0.0, max_value=1e4), min_size=1, max_size=40),
        ports=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=50, deadline=None)
    def test_total_busy_time_conserved(self, durations, ports):
        """Work conservation: total busy cycles equals the sum of durations."""
        resource = Resource("r", ports=ports)
        for duration in durations:
            resource.acquire(0.0, duration)
        assert resource.busy_cycles == pytest.approx(sum(durations))

    @given(
        durations=st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=30)
    )
    @settings(max_examples=50, deadline=None)
    def test_single_port_completion_equals_sum(self, durations):
        """With one port and all arrivals at t=0, completion is the serial sum."""
        resource = Resource("r", ports=1)
        completion = 0.0
        for duration in durations:
            start = resource.acquire(0.0, duration)
            completion = max(completion, start + duration)
        assert completion == pytest.approx(sum(durations))


class TestBandwidthResource:
    def test_transfer_time_scales_with_bytes(self):
        link = BandwidthResource("link", bytes_per_cycle=8.0)
        assert link.transfer_time(64) == pytest.approx(8.0)
        assert link.transfer_time(128) == pytest.approx(16.0)

    def test_fixed_latency_added(self):
        link = BandwidthResource("link", bytes_per_cycle=8.0, fixed_latency=5.0)
        assert link.transfer_time(8) == pytest.approx(6.0)

    def test_transfer_returns_completion(self):
        link = BandwidthResource("link", bytes_per_cycle=4.0)
        assert link.transfer(0.0, 40) == pytest.approx(10.0)
        # Second transfer queues behind the first.
        assert link.transfer(0.0, 40) == pytest.approx(20.0)

    def test_bytes_accounted(self):
        link = BandwidthResource("link", bytes_per_cycle=4.0)
        link.transfer(0.0, 100)
        link.transfer(0.0, 28)
        assert link.bytes_transferred == 128

    def test_achieved_bandwidth(self):
        link = BandwidthResource("link", bytes_per_cycle=4.0)
        link.transfer(0.0, 400)
        assert link.achieved_bandwidth(100.0) == pytest.approx(4.0)

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            BandwidthResource("bad", bytes_per_cycle=0.0)

    @pytest.mark.parametrize("bandwidth", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_bandwidth_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="finite positive bandwidth"):
            BandwidthResource("bad", bytes_per_cycle=bandwidth)

    @pytest.mark.parametrize("latency", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_fixed_latency_rejected(self, latency):
        with pytest.raises(ValueError, match="finite non-negative latency"):
            BandwidthResource("bad", bytes_per_cycle=4.0, fixed_latency=latency)

    @given(
        nbytes=st.integers(min_value=1, max_value=10_000),
        bandwidth=st.floats(min_value=0.5, max_value=512.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_transfer_never_faster_than_bandwidth(self, nbytes, bandwidth):
        link = BandwidthResource("link", bytes_per_cycle=bandwidth)
        duration = link.transfer(0.0, nbytes)
        assert duration >= nbytes / bandwidth - 1e-9


class TestResourcePool:
    def test_round_robin_indexing(self):
        pool = ResourcePool([Resource(f"r{i}") for i in range(3)])
        assert pool[0].name == "r0"
        assert pool[4].name == "r1"

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            ResourcePool([])

    def test_aggregate_statistics(self):
        pool = ResourcePool([Resource(f"r{i}") for i in range(2)])
        pool[0].acquire(0.0, 5.0)
        pool[1].acquire(0.0, 7.0)
        assert pool.busy_cycles == 12.0
        assert pool.requests_served == 2
        assert pool.last_completion == 7.0

    def test_least_loaded_index(self):
        pool = ResourcePool([Resource(f"r{i}") for i in range(3)])
        pool[0].acquire(0.0, 100.0)
        pool[1].acquire(0.0, 10.0)
        assert pool.least_loaded_index() == 2

    def test_reset(self):
        pool = ResourcePool([Resource("a"), Resource("b")])
        pool[0].acquire(0.0, 10.0)
        pool.reset()
        assert pool.busy_cycles == 0.0
