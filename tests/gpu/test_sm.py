"""Unit tests for the SM and whole-GPU execution model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import GPUConfig
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.sm import GPUCore, StreamingMultiprocessor
from repro.gpu.warp import Instruction, WarpTrace
from repro.sim.request import AccessType


def constant_memory(latency=100.0):
    """A memory hook that completes every request after a fixed latency."""

    def hook(address: int, is_write: bool, warp_id: int, pc: int, now: float) -> float:
        return now + latency

    return hook


def recording_memory(calls, latency=100.0):
    """A fixed-latency memory hook that records the arguments of every call."""

    def hook(address: int, is_write: bool, warp_id: int, pc: int, now: float) -> float:
        calls.append((address, is_write, warp_id, pc, now))
        return now + latency

    return hook


class TestStreamingMultiprocessor:
    def test_compute_only_instruction(self):
        sm = StreamingMultiprocessor(0, GPUConfig())
        instr = Instruction(pc=0, compute_ops=4)
        ready = sm.execute_instruction(instr, warp_id=0, now=0.0, memory_fn=constant_memory())
        assert ready == pytest.approx(4.0)
        assert sm.stats.instructions == 4

    def test_memory_instruction_hits_hook_on_miss(self):
        sm = StreamingMultiprocessor(0, GPUConfig())
        instr = Instruction(pc=0, addresses=[0x1000], access=AccessType.READ)
        ready = sm.execute_instruction(instr, warp_id=0, now=0.0, memory_fn=constant_memory(50.0))
        assert ready >= 50.0
        assert sm.stats.memory_requests == 1

    def test_l1_hit_avoids_hook(self):
        sm = StreamingMultiprocessor(0, GPUConfig())
        calls = []

        def hook(address, is_write, warp_id, pc, now):
            calls.append(address)
            return now + 100

        instr = Instruction(pc=0, addresses=[0x1000], access=AccessType.READ)
        sm.execute_instruction(instr, 0, 0.0, hook)
        sm.execute_instruction(instr, 0, 200.0, hook)
        assert len(calls) == 1  # second access hits the L1
        assert sm.stats.l1_hits == 1

    def test_write_is_no_allocate(self):
        sm = StreamingMultiprocessor(0, GPUConfig())
        write = Instruction(pc=0, addresses=[0x1000], access=AccessType.WRITE)
        read = Instruction(pc=0, addresses=[0x1000], access=AccessType.READ)
        sm.execute_instruction(write, 0, 0.0, constant_memory())
        # A subsequent read should still miss (write did not allocate).
        sm.execute_instruction(read, 0, 100.0, constant_memory())
        assert sm.stats.l1_misses >= 1

    def test_reset(self):
        sm = StreamingMultiprocessor(0, GPUConfig())
        sm.execute_instruction(Instruction(pc=0, compute_ops=2), 0, 0.0, constant_memory())
        sm.reset()
        assert sm.stats.instructions == 0


class TestMemoryHookContract:
    """What the SM hands the platform's memory hook, segment by segment."""

    def test_one_call_per_segment_in_order(self):
        config = GPUConfig()
        sm = StreamingMultiprocessor(0, config)
        calls = []
        hook = recording_memory(calls, latency=500.0)
        l1_latency = config.l1_latency_cycles

        # Three 128 B segments, given out of order: 0x1000 (32 threads),
        # 0x3000 and 0x2080.  Issued at cycle 0, the access leaves the issue
        # port at cycle 1 and the L1 at 1 + l1_latency.
        read = Instruction(pc=0x40, addresses=[0x1000 + 4 * t for t in range(32)]
                           + [0x3000, 0x2080], access=AccessType.READ)
        sm.execute_instruction(read, 7, 0.0, hook)
        l1_ready = 1.0 + l1_latency
        assert calls == [(0x1000, False, 7, 0x40, l1_ready),
                         (0x2080, False, 7, 0x40, l1_ready),
                         (0x3000, False, 7, 0x40, l1_ready)]
        assert sm.stats.memory_requests == 3

        # An L1 hit does not reach the hook.
        calls.clear()
        sm.execute_instruction(Instruction(pc=0x44, addresses=[0x1000]), 7, 10.0, hook)
        assert calls == []
        assert sm.stats.l1_hits == 1

        # A write goes below with its own direction and invalidates the line.
        write = Instruction(pc=0x48, addresses=[0x2080 + 4 * t for t in range(32)],
                            access=AccessType.WRITE)
        sm.execute_instruction(write, 9, 20.0, hook)
        assert calls == [(0x2080, True, 9, 0x48, 21.0 + l1_latency)]
        assert not sm.l1.probe(0x2080)

        # The invalidated line's fill is still in flight: the next read of it
        # misses the L1 and merges into the MSHR entry instead of calling
        # the hook, and completes with the fill.
        calls.clear()
        merges = sm.mshr.secondary_misses
        ready = sm.execute_instruction(
            Instruction(pc=0x4c, addresses=[0x2080]), 9, 30.0, hook)
        assert calls == []
        assert sm.mshr.secondary_misses == merges + 1
        assert sm.mshr.primary_misses == 3
        assert ready == l1_ready + 500.0

    def test_metadata_propagated(self):
        """The hook receives the issuing warp's id and the instruction's PC."""
        calls = []
        core = GPUCore(GPUConfig(num_sms=4))
        trace = WarpTrace(warp_id=7, sm_id=3)
        trace.append(Instruction(pc=0xcafe, addresses=[0x100], access=AccessType.READ))
        core.run([trace], recording_memory(calls))
        assert [call[:4] for call in calls] == [(0x100, False, 7, 0xcafe)]


class TestInFlightMisses:
    """Known timing-model defects of the L1/MSHR path, pinned until fixed."""

    @pytest.mark.xfail(strict=True, reason=(
        "hit-under-miss: the SM inserts the L1 line when a primary miss "
        "issues, so a read of a line still in flight is an L1 hit at L1 "
        "latency instead of an MSHR merge that waits for the fill"))
    def test_read_of_inflight_line_waits_for_fill(self):
        sm = StreamingMultiprocessor(0, GPUConfig())
        hook = constant_memory(1000.0)
        fill = sm.execute_instruction(Instruction(pc=0, addresses=[0x1000]), 0, 0.0, hook)
        second = sm.execute_instruction(Instruction(pc=0, addresses=[0x1000]), 1, 5.0, hook)
        assert second >= fill
        assert sm.mshr.secondary_misses == 1

    @pytest.mark.xfail(strict=True, reason=(
        "MSHR stalls are ignored: MSHR.allocate returns the cycle an entry "
        "frees up when all entries are busy, and the SM drops it, so a full "
        "MSHR delays nothing"))
    def test_full_mshr_delays_next_primary_miss(self):
        sm = StreamingMultiprocessor(0, GPUConfig(l1_mshr_entries=1))
        calls = []
        hook = recording_memory(calls, latency=1000.0)
        fill = sm.execute_instruction(Instruction(pc=0, addresses=[0x1000]), 0, 0.0, hook)
        sm.execute_instruction(Instruction(pc=0, addresses=[0x5000]), 1, 5.0, hook)
        assert sm.mshr.stalls == 1
        assert calls[1][4] >= fill


class TestGPUCore:
    def test_empty_traces(self):
        core = GPUCore(GPUConfig())
        result = core.run([], constant_memory())
        assert result.ipc == 0.0

    def test_single_warp_compute(self):
        core = GPUCore(GPUConfig())
        trace = WarpTrace(warp_id=0, sm_id=0)
        for pc in range(10):
            trace.append(Instruction(pc=pc, compute_ops=1))
        result = core.run([trace], constant_memory())
        assert result.instructions == 10
        assert result.cycles >= 10.0
        assert result.ipc > 0

    def test_latency_hiding_across_warps(self):
        """Two warps on one SM should overlap memory latency."""
        config = GPUConfig()
        core = GPUCore(config)
        traces = []
        for warp_id in range(2):
            trace = WarpTrace(warp_id=warp_id, sm_id=0)
            trace.append(
                Instruction(pc=0, addresses=[0x1000 + warp_id * 4096], access=AccessType.READ)
            )
            traces.append(trace)
        result = core.run(traces, constant_memory(1000.0), max_resident_warps=2)
        # Both memory ops are in flight together, so total time is close to a
        # single latency rather than two serialised ones.
        assert result.cycles < 1900.0

    def test_residency_limit_serializes(self):
        config = GPUConfig()
        core = GPUCore(config)
        traces = []
        for warp_id in range(4):
            trace = WarpTrace(warp_id=warp_id, sm_id=0)
            trace.append(
                Instruction(pc=0, addresses=[warp_id * 4096], access=AccessType.READ)
            )
            traces.append(trace)
        limited = core.run(traces, constant_memory(1000.0), max_resident_warps=1)
        core.reset()
        parallel = core.run(traces, constant_memory(1000.0), max_resident_warps=4)
        assert limited.cycles > parallel.cycles

    def test_ipc_normalization(self):
        core = GPUCore(GPUConfig())
        trace = WarpTrace(warp_id=0, sm_id=0)
        for pc in range(5):
            trace.append(Instruction(pc=pc, compute_ops=1))
        a = core.run([trace], constant_memory())
        core.reset()
        b = core.run([trace], constant_memory())
        assert b.normalized_to(a) == pytest.approx(1.0)

    def test_warps_spread_across_sms(self):
        config = GPUConfig(num_sms=4)
        core = GPUCore(config)
        traces = [WarpTrace(warp_id=i, sm_id=i) for i in range(4)]
        for trace in traces:
            trace.append(Instruction(pc=0, compute_ops=3))
        result = core.run(traces, constant_memory())
        assert result.instructions == 12


def reference_execute(sm, instruction, warp_id, now, memory_fn):
    """``execute_instruction`` built from ``Resource.acquire`` and
    ``MSHR.lookup``/``allocate``, the helpers its inline code copies."""
    compute_ops = instruction.compute_ops
    stats = sm.stats
    if not instruction.addresses:
        if not compute_ops:
            return now
        stats.instructions += compute_ops
        return sm.issue_port.acquire(now, float(compute_ops)) + compute_ops
    start = sm.issue_port.acquire(now, compute_ops + 1.0)
    ready = start + compute_ops + 1.0
    stats.instructions += compute_ops + 1
    stats.memory_instructions += 1
    segments = sm.coalescer.coalesce(instruction.addresses, instruction.segments)
    stats.memory_requests += len(segments)
    l1_ready = ready + sm.config.l1_latency_cycles
    completion = ready
    if instruction.access is AccessType.WRITE:
        for address in segments:
            sm.l1.invalidate(address)
            completion = max(completion, memory_fn(address, True, warp_id,
                                                   instruction.pc, l1_ready))
        return completion
    for address in segments:
        if sm.l1.lookup(address):
            stats.l1_hits += 1
            finish = l1_ready
        else:
            stats.l1_misses += 1
            line_address = address // sm.l1.line_bytes * sm.l1.line_bytes
            finish = sm.mshr.lookup(line_address, ready)
            if finish is not None:
                finish = max(finish, l1_ready)
            else:
                finish = memory_fn(address, False, warp_id, instruction.pc, l1_ready)
                sm.mshr.allocate(line_address, ready, finish)
                sm.l1.insert(address)
        completion = max(completion, finish)
    return completion


def sm_state(sm):
    port, mshr, l1 = sm.issue_port, sm.mshr, sm.l1
    return (vars(sm.stats),
            (port.busy_cycles, port.wait_cycles, port.requests_served,
             port.last_completion),
            (mshr.primary_misses, mshr.secondary_misses, mshr.stalls,
             mshr.outstanding, mshr._now, mshr._filled_at_now,
             list(mshr._entries.items())),
            (l1.hits, l1.misses, l1.evictions, l1.insertions,
             {index: list(tags.items()) for index, tags in l1._sets.items()}),
            (sm.coalescer.instructions_coalesced, sm.coalescer.requests_generated))


def line_latency_memory(latencies):
    """A memory hook whose latency depends only on the requested line."""

    def hook(address, is_write, warp_id, pc, now):
        return now + latencies[address // 128 % len(latencies)]

    return hook


# One instruction: (compute ops, lines touched, write?, cycles to advance ``now``).
_instructions = st.lists(
    st.tuples(st.integers(0, 3), st.lists(st.integers(0, 11), max_size=4),
              st.booleans(), st.sampled_from([0.0, 1.0, 2.5, 40.0])),
    min_size=1, max_size=100)


class TestInlineIssueAndMSHRMatchHelpers:
    @given(instructions=_instructions, mshr_entries=st.integers(1, 4),
           latencies=st.lists(st.sampled_from([0.0, 5.0, 60.0, 400.0]),
                              min_size=1, max_size=5))
    @settings(max_examples=150, deadline=None)
    def test_same_ready_cycles_and_counters(self, instructions, mshr_entries,
                                            latencies):
        # A 4-line L1, so lines are evicted and re-missed; few MSHR entries,
        # so the table fills and the allocate fallback runs.
        config = GPUConfig(l1_size_bytes=512, l1_assoc=2, l1_mshr_entries=mshr_entries)
        inline = StreamingMultiprocessor(0, config)
        reference = StreamingMultiprocessor(0, config)
        memory = line_latency_memory(latencies)
        now = 0.0
        for pc, (compute_ops, lines, is_write, advance) in enumerate(instructions):
            now += advance
            instruction = Instruction(
                pc=pc, compute_ops=compute_ops,
                addresses=[line * 128 + 4 * thread for thread, line in enumerate(lines)],
                access=AccessType.WRITE if is_write else AccessType.READ)
            assert (inline.execute_instruction(instruction, 0, now, memory)
                    == reference_execute(reference, instruction, 0, now, memory))
            assert sm_state(inline) == sm_state(reference)

    def test_fallback_allocate_runs_when_the_table_is_full(self):
        sm = StreamingMultiprocessor(0, GPUConfig(l1_mshr_entries=1))
        hook = constant_memory(1000.0)
        sm.execute_instruction(Instruction(pc=0, addresses=[0x1000]), 0, 0.0, hook)
        sm.execute_instruction(Instruction(pc=0, addresses=[0x5000]), 1, 5.0, hook)
        assert sm.mshr.stalls == 1
        assert sm.mshr.primary_misses == 2

    @pytest.mark.parametrize("compute_ops", [-2, -5])
    def test_negative_issue_span_rejected(self, compute_ops):
        sm = StreamingMultiprocessor(0, GPUConfig())
        for instruction in (Instruction(pc=0, compute_ops=compute_ops),
                            Instruction(pc=0, compute_ops=compute_ops, addresses=[0])):
            with pytest.raises(ValueError):
                sm.execute_instruction(instruction, 0, 0.0, constant_memory())
        assert sm.issue_port.requests_served == 0


# One instruction of a segment stream: (lines touched, write?).
_segment_streams = st.lists(
    st.tuples(st.lists(st.integers(0, 23), min_size=1, max_size=4), st.booleans()),
    min_size=1, max_size=120)


def tag_state(cache):
    """A cache's counters and each set's lines, in LRU order, with their bits."""
    return ((cache.hits, cache.misses, cache.evictions, cache.dirty_evictions,
             cache.insertions),
            {index: list(tags.items()) for index, tags in cache._sets.items()})


class TestFusedL1MatchesCacheHelpers:
    """The SM's fused L1 probe, fill and invalidate against a
    ``SetAssociativeCache`` of the same geometry driven through ``lookup``,
    ``insert`` and ``invalidate``."""

    @given(stream=_segment_streams, assoc=st.sampled_from([1, 2, 4]))
    @settings(max_examples=150, deadline=None)
    def test_same_hits_evictions_and_lru_order(self, stream, assoc):
        # 24 lines over 8 or fewer lines of L1, so sets overflow and evict.
        config = GPUConfig(l1_size_bytes=1024, l1_assoc=assoc, l1_sets=8 // assoc)
        sm = StreamingMultiprocessor(0, config)
        reference = SetAssociativeCache("reference", size_bytes=1024, assoc=assoc,
                                        line_bytes=128)
        memory = constant_memory(100.0)
        for pc, (lines, is_write) in enumerate(stream):
            # Precomputed segments, unsorted, so the SM walks them in this order.
            segments = [line * 128 for line in dict.fromkeys(lines)]
            # Issue far apart, so every L1 miss is a primary miss and fills.
            sm.execute_instruction(
                Instruction(pc=pc, addresses=segments, segments=segments,
                            access=AccessType.WRITE if is_write else AccessType.READ),
                0, 10_000.0 * pc, memory)
            for address in segments:
                if is_write:
                    reference.invalidate(address)
                elif not reference.lookup(address):
                    reference.insert(address)
            assert tag_state(sm.l1) == tag_state(reference)
        assert sm.mshr.secondary_misses == 0
        assert (sm.stats.l1_hits, sm.stats.l1_misses) == (reference.hits, reference.misses)
