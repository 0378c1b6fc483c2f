"""Unit tests for the SM and whole-GPU execution model."""

import pytest

from repro.config import GPUConfig
from repro.gpu.sm import GPUCore, StreamingMultiprocessor
from repro.gpu.warp import Instruction, WarpTrace
from repro.sim.request import AccessType, MemoryRequest


def constant_memory(latency=100.0):
    """A memory hook that completes every request after a fixed latency."""

    def hook(request: MemoryRequest, now: float) -> float:
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

        def hook(request, now):
            calls.append(request.address)
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
