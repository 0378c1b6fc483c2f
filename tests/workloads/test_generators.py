"""Tests for the synthetic trace generators."""

import pickle
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.generators import TraceGenerator, _Draws, generate_workload
from repro.workloads.registry import build_token_trace
from repro.workloads.suites import ALL_WORKLOADS, workload_by_name
from repro.workloads.trace import TraceKnobs


class TestGeneration:
    def test_deterministic(self):
        spec = workload_by_name("betw")
        a = generate_workload(spec, TraceKnobs(
            scale=0.1, seed=42, warps_per_sm=4))
        b = generate_workload(spec, TraceKnobs(
            scale=0.1, seed=42, warps_per_sm=4))
        assert a.total_memory_instructions == b.total_memory_instructions
        assert a.page_read_counts == b.page_read_counts

    def test_read_ratio_approximated(self):
        for name in ["betw", "bfs1", "back", "gaus"]:
            spec = workload_by_name(name)
            trace = generate_workload(spec, TraceKnobs(
                scale=0.3, seed=1, warps_per_sm=4,
                memory_instructions_per_warp=64))
            assert trace.measured_read_ratio == pytest.approx(spec.read_ratio, abs=0.08)

    def test_read_only_workload_has_no_writes(self):
        trace = generate_workload(workload_by_name("deg"), TraceKnobs(
            scale=0.2, seed=1, warps_per_sm=4))
        assert sum(trace.page_write_counts.values()) == 0

    def test_scale_increases_work(self):
        spec = workload_by_name("betw")
        small = generate_workload(spec, TraceKnobs(
            scale=0.1, seed=1, warps_per_sm=4))
        large = generate_workload(spec, TraceKnobs(
            scale=0.4, seed=1, warps_per_sm=4))
        assert large.total_memory_instructions > small.total_memory_instructions

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            TraceGenerator(workload_by_name("betw"), TraceKnobs(scale=0.0))

    def test_address_offset_applied(self):
        spec = workload_by_name("betw")
        offset_pages = 1000
        trace = generate_workload(spec, TraceKnobs(
            scale=0.1, seed=1, warps_per_sm=4,
            address_space_offset=offset_pages * 4096))
        for warp in trace.warps:
            for instr in warp.instructions:
                for address in instr.addresses:
                    assert address >= offset_pages * 4096

    def test_sm_assignment(self):
        trace = generate_workload(workload_by_name("betw"), TraceKnobs(
            scale=0.2, seed=1, num_sms=8, warps_per_sm=4))
        sm_ids = {w.sm_id for w in trace.warps}
        assert sm_ids <= set(range(8))


#: Spans of ``integers(low, low + span)``: one value (no draw), 32-bit
#: halves with a low and a high rejection threshold, exactly 2**32 values,
#: and whole 64-bit outputs past that.
SPANS = [1, 2, 3, 5, 32, 2 ** 31 + 5, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 1, 2 ** 40]


class TestDraws:
    """The block reader returns what numpy's scalar Generator calls return."""

    @staticmethod
    def assert_matches_numpy(seed, calls):
        draws = _Draws(seed)
        rng = np.random.default_rng(seed)
        for low, span in calls:
            if span is None:
                assert draws.random() == rng.random()
            else:
                assert draws.integers(low, low + span) == rng.integers(
                    low, low + span)

    @given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1),
           calls=st.lists(st.tuples(st.integers(0, 3),
                                    st.none() | st.sampled_from(SPANS)),
                          max_size=60))
    @settings(max_examples=300, deadline=None)
    def test_any_call_sequence_matches_numpy(self, seed, calls):
        self.assert_matches_numpy(seed, calls)

    def test_draws_match_across_raw_blocks(self):
        calls = [(index % 3, SPANS[index % len(SPANS)] if index % 4 else None)
                 for index in range(5000)]
        self.assert_matches_numpy(12345, calls)

    def test_an_empty_span_is_rejected(self):
        with pytest.raises(ValueError):
            _Draws(1).integers(3, 3)


#: Bytes a scale-1.0 ``betw-back`` trace may hold per thread address: about
#: 19 with packed addresses, 49 with one Python int object per address.
MAX_BYTES_PER_THREAD_ADDRESS = 28


class TestPackedAddresses:
    def test_memory_instructions_hold_32_packed_int64_addresses(self):
        trace = generate_workload(workload_by_name("betw"), TraceKnobs(
            scale=0.1, seed=1, warps_per_sm=4))
        instructions = [i for w in trace.warps for i in w.instructions]
        assert instructions and all(i.is_memory for i in instructions)
        for instr in instructions:
            assert type(instr.addresses) is array
            assert instr.addresses.typecode == "q"
            assert len(instr.addresses) == 32

    def test_a_pickled_trace_round_trips_equal(self):
        trace = build_token_trace("betw-back", TraceKnobs(
            scale=0.1, seed=1, warps_per_sm=4))
        copy = pickle.loads(pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL))
        assert copy == trace
        assert type(copy.warps[0].instructions[0].addresses) is array

    def test_a_paper_scale_trace_stays_within_its_memory_budget(self):
        knobs = TraceKnobs(scale=1.0, seed=1)
        build_token_trace("betw-back", TraceKnobs(scale=0.05, seed=1))  # warm imports
        tracemalloc.start()
        try:
            trace = build_token_trace("betw-back", knobs)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        addresses = sum(len(i.addresses) for w in trace.warps for i in w.instructions)
        assert addresses == 524_288
        assert held / addresses <= MAX_BYTES_PER_THREAD_ADDRESS


class TestStatisticsCalibration:
    @pytest.mark.parametrize("name", ["betw", "gc1", "pr"])
    def test_read_reaccess_in_reasonable_range(self, name):
        spec = workload_by_name(name)
        trace = generate_workload(spec, TraceKnobs(
            scale=0.5, seed=7, warps_per_sm=6, memory_instructions_per_warp=96))
        # Calibrated toward the Fig. 5b target; allow generous tolerance since
        # it is an emergent statistic of the synthetic generator.
        assert trace.mean_read_reaccess > 1.0

    def test_write_redundancy_positive_for_write_workloads(self):
        spec = workload_by_name("gaus")
        trace = generate_workload(spec, TraceKnobs(
            scale=0.5, seed=7, warps_per_sm=6, memory_instructions_per_warp=96))
        assert trace.mean_write_redundancy > 1.0


class TestProperties:
    @given(scale=st.floats(min_value=0.05, max_value=0.5))
    @settings(max_examples=15, deadline=None)
    def test_coalesced_addresses_in_footprint(self, scale):
        spec = workload_by_name("bfs1")
        trace = generate_workload(spec, TraceKnobs(
            scale=scale, seed=3, warps_per_sm=4))
        footprint_bytes = trace.footprint_pages * 4096
        for warp in trace.warps[:5]:
            for instr in warp.instructions:
                for address in instr.addresses:
                    assert 0 <= address < footprint_bytes

    @given(name=st.sampled_from(list(ALL_WORKLOADS)))
    @settings(max_examples=16, deadline=None)
    def test_every_workload_generates(self, name):
        trace = generate_workload(workload_by_name(name), TraceKnobs(
            scale=0.1, seed=1, warps_per_sm=4))
        assert trace.total_memory_instructions > 0
        assert len(trace.warps) > 0
