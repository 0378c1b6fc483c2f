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
from repro.gpu.cache import SetAssociativeCache
from repro.gpu.coalescer import CoalescingUnit
from repro.gpu.mshr import MSHR
from repro.gpu.warp import Instruction, WarpTrace
from repro.sim.request import MemoryRequest
from repro.sim.engine import Resource
from repro.telemetry import core as _telemetry

#: Signature of the platform memory hook: (request, now) -> completion cycle.
MemoryAccessFn = Callable[[MemoryRequest, float], float]


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
        if not instruction.addresses:
            # Arithmetic only: occupies the issue port for one cycle per op.
            if not compute_ops:
                return now
            stats.instructions += compute_ops
            return self.issue_port.acquire(now, float(compute_ops)) + compute_ops

        # The arithmetic ops and the memory instruction's issue slot are back
        # to back on the issue port, so they are booked as one span.  The
        # ready cycle adds them in the order they issue.
        start = self.issue_port.acquire(now, compute_ops + 1.0)
        ready = start + compute_ops + 1.0
        stats.instructions += compute_ops + 1
        stats.memory_instructions += 1

        # Coalescing, then the cache path for each 128 B request: L1 probe,
        # MSHR merge and (on a miss) the platform memory access.
        requests = self.coalescer.coalesce(
            instruction.addresses,
            instruction.access,
            warp_id,
            self.sm_id,
            instruction.pc,
            ready,
            instruction.segments,
        )
        stats.memory_requests += len(requests)
        l1 = self.l1
        mshr = self.mshr
        line_bytes = self._l1_line_bytes
        l1_ready = ready + self._l1_latency
        completion = ready
        for request in requests:
            address = request.address
            if request.is_read:
                if l1.lookup(address):
                    stats.l1_hits += 1
                    finish = l1_ready
                else:
                    stats.l1_misses += 1
                    line_address = address // line_bytes * line_bytes
                    finish = mshr.lookup(line_address, ready)
                    if finish is not None:
                        # Secondary miss: piggyback on the outstanding fill.
                        mshr.allocate(line_address, ready, finish)
                        if finish < l1_ready:
                            finish = l1_ready
                    else:
                        finish = memory_fn(request, l1_ready)
                        mshr.allocate(line_address, ready, finish)
                        l1.insert(address)
            else:
                # Write-through, no-allocate L1 (typical for GPU L1D): the
                # write always goes below; a stale copy is invalidated.
                l1.invalidate(address)
                finish = memory_fn(request, l1_ready)
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
    #: Scheduler events processed (warp wake-ups, including completions),
    #: surfaced in the perf report as ``events_processed`` /
    #: ``events_per_sec``.
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

        # Warp events are (ready_cycle, sequence, trace, position) tuples on
        # one heap.  Warps beyond the residency limit of an SM start only
        # when an earlier warp on that SM finishes, which approximates
        # thread-block scheduling.
        sms = self.sms
        num_sms = len(sms)
        heap: List = []
        push, pop = heapq.heappush, heapq.heappop
        sequence = 0
        pending: Dict[int, List[WarpTrace]] = {}
        resident_count: Dict[int, int] = {}
        for trace in traces:
            sm_index = trace.sm_id % num_sms
            pending.setdefault(sm_index, []).append(trace)
        for sm_index, sm_traces in pending.items():
            resident_count[sm_index] = 0
            for trace in sm_traces[:resident_limit]:
                push(heap, (0.0, sequence, trace, 0))
                sequence += 1
                resident_count[sm_index] += 1
            del sm_traces[: resident_count[sm_index]]

        final_cycle = 0.0
        events = 0
        # Event-loop depth is sampled only when telemetry is armed: the flag
        # is hoisted out of the loop so the disabled path pays one bool test
        # per event and the numbers themselves are identical either way.
        trace_depth = _telemetry.enabled()
        max_depth = 0
        while heap:
            if trace_depth:
                depth = len(heap)
                if depth > max_depth:
                    max_depth = depth
            ready, _, trace, position = pop(heap)
            events += 1
            sm_index = trace.sm_id % num_sms
            sm = sms[sm_index]
            instructions = trace.instructions
            if position >= len(instructions):
                # Warp finished: admit the next pending warp on this SM.
                waiting = pending.get(sm_index)
                if waiting:
                    next_trace = waiting.pop(0)
                    push(heap, (ready, sequence, next_trace, 0))
                    sequence += 1
                final_cycle = max(final_cycle, ready)
                sm.stats.completion_cycle = max(sm.stats.completion_cycle, ready)
                continue
            next_ready = sm.execute_instruction(
                instructions[position], trace.warp_id, ready, memory_fn
            )
            push(heap, (next_ready, sequence, trace, position + 1))
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
