"""Unit tests for the coalescing unit."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.coalescer import CoalescingUnit


class TestCoalescing:
    def test_fully_coalesced_warp(self):
        unit = CoalescingUnit()
        addresses = [0x1000 + 4 * i for i in range(32)]  # 128 consecutive bytes
        assert unit.coalesce(addresses) == [0x1000]
        assert unit.request_bytes == 128

    def test_straddling_two_segments(self):
        unit = CoalescingUnit()
        addresses = [0x1040 + 4 * i for i in range(32)]  # crosses a 128 B boundary
        assert unit.coalesce(addresses) == [0x1000, 0x1080]

    def test_fully_scattered_warp(self):
        unit = CoalescingUnit()
        addresses = [i * 4096 for i in range(32)]
        assert len(unit.coalesce(addresses)) == 32

    def test_duplicate_addresses_merge(self):
        unit = CoalescingUnit()
        assert unit.coalesce([0x2000] * 32) == [0x2000]

    def test_empty_addresses(self):
        unit = CoalescingUnit()
        assert unit.coalesce([]) == []
        assert unit.coalesce([], segments=()) == []
        assert unit.instructions_coalesced == 0

    def test_efficiency_statistic(self):
        unit = CoalescingUnit()
        unit.coalesce([0x0, 0x80])
        unit.coalesce([0x0], segments=(0x0,))
        assert unit.instructions_coalesced == 2
        assert unit.requests_generated == 3
        assert unit.coalescing_efficiency() == pytest.approx(1.5)

    def test_requests_are_aligned(self):
        unit = CoalescingUnit()
        for segment in unit.coalesce([0x1234, 0x5678]):
            assert segment % 128 == 0

    @given(st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_coalesced_count_bounded(self, addresses):
        """Never more requests than threads, never fewer than distinct segments."""
        unit = CoalescingUnit()
        segments = unit.coalesce(addresses)
        distinct_segments = {a // 128 for a in addresses}
        assert len(segments) == len(distinct_segments)
        assert 1 <= len(segments) <= len(addresses)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 24), min_size=1, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_every_thread_address_covered(self, addresses):
        unit = CoalescingUnit()
        segments = set(unit.coalesce(addresses))
        for address in addresses:
            assert (address // 128) * 128 in segments


class TestPrecomputedSegments:
    """Trace generators may attach segments precomputed at 128 B granularity;
    the unit must honour them only when its own request size matches."""

    def _addresses(self, base=4096):
        return [base + 4 * t for t in range(32)]

    def test_matching_request_size_uses_precomputed_segments(self):
        unit = CoalescingUnit(request_bytes=128)
        precomputed = (4096,)
        assert unit.coalesce(self._addresses(), segments=precomputed) is precomputed

    def test_ablated_request_size_ignores_precomputed_segments(self):
        # gpu.memory_request_bytes=256 ablation: the 128 B-granular segments
        # baked into the trace are stale and must be recomputed live.
        unit = CoalescingUnit(request_bytes=256)
        addresses = [4096 + 4 * t for t in range(32)] + [4096 + 128 + 4 * t for t in range(32)]
        stale_segments = (4096, 4096 + 128)  # 128 B precompute
        segments = unit.coalesce(addresses, segments=stale_segments)
        assert segments == unit.coalesce_addresses(addresses) == [4096]

    def test_generated_traces_match_live_coalescing(self):
        from repro.workloads.generators import generate_workload
        from repro.workloads.suites import workload_by_name

        trace = generate_workload(
            workload_by_name("bfs1"), scale=0.1, seed=3, warps_per_sm=2,
            memory_instructions_per_warp=24,
        )
        unit = CoalescingUnit(request_bytes=128)
        for warp in trace.warps:
            for instruction in warp.instructions:
                assert instruction.segments is not None
                assert list(instruction.segments) == unit.coalesce_addresses(
                    instruction.addresses
                )
