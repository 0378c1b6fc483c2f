"""Streaming multiprocessor and whole-GPU timing model.

The SM model is cycle-approximate: an SM issues at most one instruction per
cycle, switches among ready warps (latency hiding), coalesces memory accesses,
probes its private L1D, and forwards misses to the platform's memory subsystem
through a callback.  The GPU core interleaves all SMs' warps on one event heap
so that contention in the shared memory system (L2 banks, flash channels,
SSD engine) is observed in roughly the right time order.

This reproduces the behaviour the paper's figures depend on — latency hiding
up to ``max_warps``, the 128 B coalesced request stream, L1/L2 filtering and
the memory system as the bottleneck — without modelling the exact GTX580
pipeline.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.config import GPUConfig
from repro.gpu.cache import ACCESSED, SetAssociativeCache
from repro.gpu.coalescer import CoalescingUnit
from repro.gpu.mshr import MSHR
from repro.gpu.warp import Instruction, WarpTrace
from repro.sim.engine import Resource
from repro.sim.request import AccessType
from repro.telemetry import core as _telemetry

#: Signature of the platform memory hook: (address, is_write, warp_id, pc,
#: now) -> completion cycle, called once per coalesced 128 B segment.
MemoryAccessFn = Callable[[int, bool, int, int, float], float]

_WRITE = AccessType.WRITE


@dataclass
class SMStatistics:
    """Per-SM execution statistics."""

    instructions: int = 0
    memory_instructions: int = 0
    memory_requests: int = 0
    l1_hits: int = 0
    l1_misses: int = 0
    completion_cycle: float = 0.0


class StreamingMultiprocessor:
    """One SM: issue port, coalescer, private L1D and MSHRs."""

    def __init__(self, sm_id: int, config: GPUConfig) -> None:
        self.sm_id = sm_id
        self.config = config
        self.issue_port = Resource(f"sm{sm_id}_issue", ports=1)
        self.coalescer = CoalescingUnit(
            request_bytes=config.memory_request_bytes,
            threads_per_warp=config.threads_per_warp,
        )
        self.l1 = SetAssociativeCache(
            name=f"sm{sm_id}_l1d",
            size_bytes=config.l1_size_bytes,
            assoc=config.l1_assoc,
            line_bytes=config.l1_line_bytes,
        )
        self.mshr = MSHR(f"sm{sm_id}_mshr", config.l1_mshr_entries)
        self.stats = SMStatistics()
        self._l1_latency = float(config.l1_latency_cycles)
        self._l1_line_bytes = self.l1.line_bytes

    # ------------------------------------------------------------------
    def execute_instruction(
        self,
        instruction: Instruction,
        warp_id: int,
        now: float,
        memory_fn: MemoryAccessFn,
    ) -> float:
        """Execute one trace record for a warp; return the warp's next ready cycle."""
        compute_ops = instruction.compute_ops
        stats = self.stats
        addresses = instruction.addresses
        if addresses:
            # The arithmetic ops and the memory instruction's issue slot are
            # back to back on the issue port, so they are booked as one span.
            duration = compute_ops + 1.0
        elif compute_ops:
            # Arithmetic only: occupies the issue port for one cycle per op.
            duration = float(compute_ops)
        else:
            return now
        # Resource.acquire on the single issue port, inlined (one booking per
        # instruction); keep in lockstep with Resource.acquire.
        if not duration >= 0:
            raise ValueError(f"duration must be non-negative, got {duration!r}")
        port = self.issue_port
        last = port.last_completion
        start = now if now > last else last
        port.last_completion = start + duration
        port.busy_cycles += duration
        port.wait_cycles += start - now
        port.requests_served += 1
        if not addresses:
            stats.instructions += compute_ops
            return start + compute_ops

        # The ready cycle adds the ops and the issue slot in the order they issue.
        ready = start + compute_ops + 1.0
        stats.instructions += compute_ops + 1
        stats.memory_instructions += 1

        # Coalescing, then the cache path for each 128 B segment.  Every
        # segment of an instruction shares its direction.
        segments = self.coalescer.coalesce(addresses, instruction.segments)
        stats.memory_requests += len(segments)
        # The L1 is probed, filled and invalidated through its tag array
        # directly, with each segment's set and tag computed once; keep in
        # lockstep with SetAssociativeCache.lookup, SetAssociativeCache.insert,
        # SetAssociativeCache.invalidate and
        # SetAssociativeCache._index_and_tag.  Only this SM uses its L1, and
        # it neither pins nor dirties a line, so every line's state is
        # ACCESSED and a full set's victim is its first (LRU) line.
        l1 = self.l1
        sets = l1._sets
        num_sets = l1.num_sets
        line_bytes = self._l1_line_bytes
        pc = instruction.pc
        l1_ready = ready + self._l1_latency
        completion = ready
        if instruction.access is _WRITE:
            # Write-through, no-allocate L1 (typical for GPU L1D): the write
            # always goes below; a stale copy is invalidated.
            for address in segments:
                line_number = address // line_bytes
                cache_set = sets.get(line_number % num_sets)
                if cache_set is not None:
                    cache_set.pop(line_number // num_sets, None)
                finish = memory_fn(address, True, warp_id, pc, l1_ready)
                if finish > completion:
                    completion = finish
            return completion

        # Reads: L1 probe, MSHR merge and (on a primary miss) the platform
        # memory access and the L1 fill.  MSHR.lookup, and MSHR.allocate
        # while the table has a free entry, are inlined; keep in lockstep
        # with MSHR.lookup and MSHR.allocate.  A table that looks full goes
        # through MSHR.allocate, which purges dead entries and stalls; the
        # stall cycle it returns is not applied.
        mshr = self.mshr
        entries = mshr._entries
        num_entries = mshr.num_entries
        assoc = l1.assoc
        for address in segments:
            line_number = address // line_bytes
            set_index = line_number % num_sets
            tag = line_number // num_sets
            cache_set = sets.get(set_index)
            if cache_set:
                state = cache_set.pop(tag, None)
                if state is not None:
                    # A hit: the line moves to the MRU end.
                    cache_set[tag] = state
                    l1.hits += 1
                    stats.l1_hits += 1
                    if l1_ready > completion:
                        completion = l1_ready
                    continue
            l1.misses += 1
            stats.l1_misses += 1
            line_address = line_number * line_bytes
            mshr._now = ready
            mshr._filled_at_now = False
            fill = entries.get(line_address)
            if fill is not None and fill > ready:
                # Secondary miss: piggyback on the outstanding fill.
                mshr.secondary_misses += 1
                finish = fill if fill > l1_ready else l1_ready
            else:
                finish = memory_fn(address, False, warp_id, pc, l1_ready)
                if len(entries) >= num_entries:
                    mshr.allocate(line_address, ready, finish)
                else:
                    fill = entries[line_address] = ready if ready > finish else finish
                    mshr._filled_at_now = fill == ready
                    mshr.primary_misses += 1
                # Fill the line the probe missed, evicting the LRU line of a
                # full set.
                if cache_set is None:
                    cache_set = sets[set_index] = {}
                elif len(cache_set) >= assoc:
                    del cache_set[next(iter(cache_set))]
                    l1.evictions += 1
                cache_set[tag] = ACCESSED
                l1.insertions += 1
            if finish > completion:
                completion = finish
        return completion

    def reset(self) -> None:
        self.issue_port.reset()
        self.l1.clear()
        self.mshr.reset()
        self.coalescer.reset()
        self.stats = SMStatistics()


@dataclass
class GPUExecutionResult:
    """Outcome of running a set of warp traces on the GPU core."""

    cycles: float
    instructions: int
    memory_requests: int
    ipc: float
    per_sm: Dict[int, SMStatistics] = field(default_factory=dict)
    #: Scheduler events processed (warp wake-ups, including completions);
    #: kept in the result record and emitted as the ``engine.events``
    #: telemetry counter.
    events: int = 0

    def normalized_to(self, baseline: "GPUExecutionResult") -> float:
        """IPC of this run normalised to another run (Fig. 10 style)."""
        if baseline.ipc == 0:
            return 0.0
        return self.ipc / baseline.ipc


class GPUCore:
    """The full GPU: a set of SMs sharing one memory subsystem hook."""

    def __init__(self, config: GPUConfig) -> None:
        self.config = config
        self.sms = [StreamingMultiprocessor(i, config) for i in range(config.num_sms)]
        #: Deepest the event queue got during the last :meth:`run` (telemetry
        #: only — sampled when tracing is enabled, 0 otherwise; never enters
        #: the result record).
        self.last_max_queue_depth = 0

    def run(
        self,
        traces: Sequence[WarpTrace],
        memory_fn: MemoryAccessFn,
        max_resident_warps: Optional[int] = None,
    ) -> GPUExecutionResult:
        """Execute the warp traces to completion and report timing."""
        if not traces:
            return GPUExecutionResult(cycles=0.0, instructions=0, memory_requests=0, ipc=0.0)
        resident_limit = max_resident_warps or self.config.max_warps_per_sm

        # Warp events are (ready_cycle, sequence, warp, position) tuples on
        # one heap.  ``warp`` is built once per trace and holds everything an
        # event needs: (sm_index, sm, execute, instructions, length,
        # warp_id).  Warps beyond the residency limit of an SM start only
        # when an earlier warp on that SM finishes, which approximates
        # thread-block scheduling.
        sms = self.sms
        num_sms = len(sms)
        heap: List = []
        push, pop, replace = heapq.heappush, heapq.heappop, heapq.heapreplace
        sequence = 0
        pending: Dict[int, List[tuple]] = {}
        resident_count: Dict[int, int] = {}
        for trace in traces:
            sm_index = trace.sm_id % num_sms
            sm = sms[sm_index]
            instructions = trace.instructions
            pending.setdefault(sm_index, []).append((
                sm_index, sm, sm.execute_instruction, instructions,
                len(instructions), trace.warp_id))
        for sm_index, sm_warps in pending.items():
            resident_count[sm_index] = 0
            for warp in sm_warps[:resident_limit]:
                push(heap, (0.0, sequence, warp, 0))
                sequence += 1
                resident_count[sm_index] += 1
            del sm_warps[: resident_count[sm_index]]

        final_cycle = 0.0
        events = 0
        # Event-loop depth is sampled only when telemetry is armed: the flag
        # is hoisted out of the loop so the disabled path pays one bool test
        # per event and the numbers themselves are identical either way.
        trace_depth = _telemetry.enabled()
        max_depth = 0
        # Each event is read at the top of the heap and then replaced by its
        # successor in one heapreplace (or popped when it has none).  The
        # (ready, sequence) keys are unique, so the order events leave the
        # heap is the same as with a pop and a push.
        while heap:
            if trace_depth:
                depth = len(heap)
                if depth > max_depth:
                    max_depth = depth
            ready, _, warp, position = heap[0]
            events += 1
            sm_index, sm, execute, instructions, length, warp_id = warp
            if position >= length:
                # Warp finished: admit the next pending warp on this SM.
                waiting = pending.get(sm_index)
                if waiting:
                    replace(heap, (ready, sequence, waiting.pop(0), 0))
                    sequence += 1
                else:
                    pop(heap)
                final_cycle = max(final_cycle, ready)
                sm.stats.completion_cycle = max(sm.stats.completion_cycle, ready)
                continue
            next_ready = execute(instructions[position], warp_id, ready, memory_fn)
            replace(heap, (next_ready, sequence, warp, position + 1))
            sequence += 1

        self.last_max_queue_depth = max_depth
        total_instructions = sum(sm.stats.instructions for sm in self.sms)
        total_requests = sum(sm.stats.memory_requests for sm in self.sms)
        cycles = max(final_cycle, 1.0)
        return GPUExecutionResult(
            cycles=cycles,
            instructions=total_instructions,
            memory_requests=total_requests,
            ipc=total_instructions / cycles,
            per_sm={sm.sm_id: sm.stats for sm in self.sms},
            events=events,
        )

    def reset(self) -> None:
        for sm in self.sms:
            sm.reset()
