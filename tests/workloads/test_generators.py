"""Tests for the synthetic trace generators."""

import hashlib
import json
import pickle
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.coalescer import CoalescingUnit
from repro.workloads.generators import (
    _DRAW_BLOCK,
    StridedAddresses,
    TraceGenerator,
    _Draws,
    _pcg64_blocks,
    _pcg64_seed,
    generate_workload,
)
from repro.workloads.io import trace_to_dict
from repro.workloads.registry import build_token_trace
from repro.workloads.suites import ALL_WORKLOADS, GRAPH_WORKLOADS, workload_by_name
from repro.workloads.trace import TraceKnobs
from repro.workloads.tracefile import read_trace_file, record_trace


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


#: Seeds at the edges of the seed sequence's 32-bit entropy words: one word
#: (0 and its largest value), two, three and five words.  Five words take
#: the branch that mixes entropy past the 4-word pool.
EDGE_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 32 + 7, 2 ** 64 - 1, 2 ** 64 + 3,
              2 ** 70 + 3, 2 ** 128 + 5, 2 ** 160 - 1]


class TestDraws:
    """The pure-Python draws return what numpy's scalar Generator calls return."""

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

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_raw_outputs_match_numpy_across_blocks(self, seed):
        # 4,096 outputs, so the LCG state is handed from block to block at
        # least three times.
        count = 4096 // _DRAW_BLOCK
        assert count >= 4
        blocks = _pcg64_blocks(*_pcg64_seed(seed))
        ours = [output for _ in range(count) for output in next(blocks)]
        bits = np.random.default_rng(seed).bit_generator
        assert ours == bits.random_raw(count * _DRAW_BLOCK).tolist()

    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_edge_seeds_match_numpy(self, seed):
        self.assert_matches_numpy(seed, [(1, SPANS[i % len(SPANS)] if i % 3 else None)
                                         for i in range(200)])

    @pytest.mark.parametrize("seed", [-1, -(2 ** 64)])
    def test_a_negative_seed_is_rejected_as_numpy_rejects_it(self, seed):
        with pytest.raises(ValueError):
            np.random.default_rng(seed)
        with pytest.raises(ValueError):
            _Draws(seed)

    def test_an_empty_span_is_rejected(self):
        with pytest.raises(ValueError):
            _Draws(1).integers(3, 3)


#: Bytes a scale-1.0 ``betw-back`` trace may hold per thread address: about
#: 6.5 with repeated accesses sharing one instruction, 8.6 with one
#: instruction per position keeping its addresses as a (base, lines)
#: pattern, 19 with them packed in an int64 array, 49 with one Python int
#: per address.
MAX_BYTES_PER_THREAD_ADDRESS = 12

KNOBS = TraceKnobs(scale=0.1, seed=1, warps_per_sm=4)


def _expanded(base, lines):
    return [base + (t % lines) * 128 + (t // lines) * 4 for t in range(32)]


class TestStridedAddresses:
    @pytest.mark.parametrize("lines", [1, 2, 3, 4])
    def test_reads_as_the_32_thread_addresses(self, lines):
        addresses = StridedAddresses(4096, lines)
        expected = _expanded(4096, lines)
        assert len(addresses) == 32 and addresses
        assert list(addresses) == expected
        assert [addresses[t] for t in range(32)] == expected
        assert addresses[-1] == expected[-1] and addresses[3:9] == expected[3:9]
        with pytest.raises(IndexError):
            addresses[32]

    @pytest.mark.parametrize("lines", [1, 3])
    def test_equals_any_sequence_of_the_same_addresses(self, lines):
        addresses = StridedAddresses(8192, lines)
        expected = _expanded(8192, lines)
        for other in (expected, array("q", expected), StridedAddresses(8192, lines)):
            assert addresses == other and other == addresses
        for other in (expected[:-1], expected[:-1] + [0], StridedAddresses(8192, 2),
                      StridedAddresses(8320, lines), "x" * 32, None):
            assert addresses != other and other != addresses

    def test_pickles_as_base_and_lines(self):
        addresses = StridedAddresses(1 << 40, 3)
        blob = pickle.dumps(addresses, protocol=pickle.HIGHEST_PROTOCOL)
        copy = pickle.loads(blob)
        assert type(copy) is StridedAddresses
        assert (copy.base, copy.lines) == (1 << 40, 3)
        assert len(blob) < 80

    def test_is_unhashable_like_the_other_address_sequences(self):
        with pytest.raises(TypeError):
            hash(StridedAddresses(0, 1))

    @pytest.mark.parametrize("lines", [1, 2, 4])
    def test_the_coalescer_derives_its_segments(self, lines):
        coalescer = CoalescingUnit(request_bytes=128)
        segments = coalescer.coalesce(StridedAddresses(4096, lines))
        assert list(segments) == [4096 + 128 * k for k in range(lines)]


class TestGeneratedAddresses:
    def test_addresses_follow_the_pattern_and_cover_their_segments(self):
        trace = build_token_trace("betw-back", KNOBS)
        instructions = [i for w in trace.warps for i in w.instructions]
        assert instructions and all(i.is_memory for i in instructions)
        assert {len(i.segments) for i in instructions} == {1, 2, 3, 4}
        for instr in instructions:
            assert list(instr.addresses) == _expanded(
                instr.segments[0], len(instr.segments))
            assert sorted({a // 128 * 128 for a in instr.addresses}) == list(
                instr.segments)

    def test_a_pickled_trace_round_trips_equal(self):
        trace = build_token_trace("betw-back", KNOBS)
        copy = pickle.loads(pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL))
        assert copy == trace
        assert trace_to_dict(copy) == trace_to_dict(trace)

    def test_a_recorded_then_replayed_trace_equals_the_generated_one(self, tmp_path):
        path = tmp_path / "betw-back.trace.json"
        generated = record_trace("betw-back", path, KNOBS).trace
        replayed = read_trace_file(path).trace
        assert replayed.warps == generated.warps
        assert generated.warps == replayed.warps
        pairs = [(g.addresses, r.addresses)
                 for gw, rw in zip(generated.warps, replayed.warps)
                 for g, r in zip(gw.instructions, rw.instructions)]
        assert pairs and all(g == r and r == g and g == list(r) for g, r in pairs)

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


#: Knobs under which a ``kv-lookup:get_ratio=0.3`` trace repeats accesses.
SHARING_KNOBS = TraceKnobs(scale=0.25, seed=1, warps_per_sm=8)

#: The knobs of the ``kv-write`` benchmark cells (16 warps/SM, 128 memory
#: instructions per warp), whose trace held 9.6 MiB when every position
#: had its own instruction and about 1.2 MiB with repeats shared.
KV_PAPER_KNOBS = TraceKnobs(scale=1.0, seed=1, warps_per_sm=16,
                            memory_instructions_per_warp=128)
MAX_KV_PAPER_TRACE_BYTES = 4 * 2 ** 20

#: sha256 of the ``trace_to_dict`` JSON of the ``betw`` trace at
#: ``address_space_offset=64`` (see ``test_an_unaligned_trace_is_pinned``),
#: computed when every position still had its own instruction.
UNALIGNED_TRACE_DIGEST = (
    "0791f269e36f0b44c799f3ff325a07f80c3195f49ffcbb83a39898f9cc0faea5")


def _access_key(instr):
    return (instr.pc, instr.addresses.base, instr.addresses.lines, instr.access)


def _sharing(trace):
    """For each position, the first position that holds the same object."""
    first = {}
    return [first.setdefault(id(instr), position)
            for position, instr in enumerate(
                i for w in trace.warps for i in w.instructions)]


class TestSharedInstructions:
    def test_a_repeat_is_the_same_object(self):
        trace = build_token_trace("kv-lookup:get_ratio=0.3", SHARING_KNOBS)
        first = {}
        instructions = [i for w in trace.warps for i in w.instructions]
        for instr in instructions:
            assert first.setdefault(_access_key(instr), instr) is instr
        assert len({id(i) for i in instructions}) == len(first) < len(instructions)

    def test_a_pickled_trace_keeps_the_sharing(self):
        trace = build_token_trace("kv-lookup:get_ratio=0.3", SHARING_KNOBS)
        copy = pickle.loads(pickle.dumps(trace, protocol=pickle.HIGHEST_PROTOCOL))
        assert copy == trace
        assert _sharing(copy) == _sharing(trace) != list(range(len(_sharing(trace))))
        assert trace_to_dict(copy) == trace_to_dict(trace)

    def test_a_replayed_trace_shares_as_the_generated_one(self, tmp_path):
        path = tmp_path / "kv.trace.json"
        generated = record_trace("kv-lookup:get_ratio=0.3", path, SHARING_KNOBS).trace
        replayed = read_trace_file(path).trace
        assert replayed.warps == generated.warps
        sharing = _sharing(generated)
        assert _sharing(replayed) == sharing != list(range(len(sharing)))

    def test_a_shared_instruction_is_serialised_once(self):
        trace = build_token_trace("kv-lookup:get_ratio=0.3", SHARING_KNOBS)
        records = [r for w in trace_to_dict(trace)["warps"] for r in w["instructions"]]
        assert len({id(r) for r in records}) == len(set(_sharing(trace))) < len(records)

    def test_a_paper_scale_kv_trace_stays_within_its_memory_budget(self):
        build_token_trace("kv-lookup:get_ratio=0.3", KNOBS)  # warm imports
        tracemalloc.start()
        try:
            trace = build_token_trace("kv-lookup:get_ratio=0.3", KV_PAPER_KNOBS)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert trace.total_memory_instructions == 32_768
        assert held <= MAX_KV_PAPER_TRACE_BYTES

    def test_an_unaligned_trace_is_pinned(self):
        # An offset that is no multiple of 128 B leaves every instruction
        # without precomputed segments, a path no sweep reaches.
        trace = TraceGenerator(workload_by_name("betw"), TraceKnobs(
            scale=0.5, seed=7, warps_per_sm=8, address_space_offset=64)).generate()
        instructions = [i for w in trace.warps for i in w.instructions]
        assert all(i.segments is None for i in instructions)
        assert len({id(i) for i in instructions}) < len(instructions)
        payload = json.dumps(trace_to_dict(trace), sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(payload.encode()).hexdigest() == UNALIGNED_TRACE_DIGEST


class TestStatisticsCalibration:
    @pytest.mark.parametrize("name", ["betw", "gc1", "pr"])
    def test_read_reaccess_in_reasonable_range(self, name):
        spec = workload_by_name(name)
        trace = generate_workload(spec, TraceKnobs(
            scale=0.5, seed=7, warps_per_sm=6, memory_instructions_per_warp=96))
        # Calibrated toward the Fig. 5b target; allow generous tolerance since
        # it is an emergent statistic of the synthetic generator.
        assert trace.mean_read_reaccess > 1.0

    @pytest.mark.parametrize("name", list(GRAPH_WORKLOADS))
    def test_graph_traces_are_read_dominated_and_reread(self, name):
        """Table II's graph kernels: reads dominate and pages are re-read."""
        spec = workload_by_name(name)
        trace = generate_workload(spec, TraceKnobs(
            scale=0.2, seed=1, warps_per_sm=4, memory_instructions_per_warp=64))
        assert trace.measured_read_ratio > 0.75
        assert trace.measured_read_ratio == pytest.approx(spec.read_ratio, abs=0.08)
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
