"""Unit tests for warp trace containers."""

from array import array

import pytest

from repro.gpu.warp import (
    Instruction,
    WarpTrace,
    read_fraction,
    total_instructions,
    total_memory_instructions,
)
from repro.sim.request import AccessType
from repro.workloads.generators import StridedAddresses


class TestInstruction:
    def test_compute_only(self):
        instr = Instruction(pc=0, compute_ops=3)
        assert not instr.is_memory
        assert instr.instruction_count == 3

    def test_memory_instruction(self):
        instr = Instruction(pc=0, compute_ops=2, addresses=[0, 128])
        assert instr.is_memory
        assert instr.instruction_count == 3

    def test_a_generated_instruction_equals_its_replayed_and_hand_built_forms(self):
        expected = [4096 + (t % 2) * 128 + (t // 2) * 4 for t in range(32)]
        generated, replayed, built = (
            Instruction(pc=8, addresses=addresses, segments=(4096, 4224))
            for addresses in (StridedAddresses(4096, 2), array("q", expected), expected))
        assert generated == replayed and replayed == generated
        assert generated == built and built == generated
        assert generated.is_memory and generated.instruction_count == 1

    def test_holds_no_instance_dict(self):
        assert not hasattr(Instruction(pc=0), "__dict__")


class TestWarpTrace:
    def make_trace(self):
        trace = WarpTrace(warp_id=0, sm_id=0)
        trace.append(Instruction(pc=0, compute_ops=2))
        trace.append(Instruction(pc=1, addresses=[0], access=AccessType.READ))
        trace.append(Instruction(pc=2, addresses=[4096], access=AccessType.WRITE))
        return trace

    def test_counts(self):
        trace = self.make_trace()
        assert len(trace) == 3
        assert trace.memory_instructions == 2
        assert trace.read_instructions == 1
        assert trace.total_instructions == 2 + 1 + 1


class TestAggregates:
    def test_totals(self):
        trace = WarpTrace(warp_id=0, sm_id=0)
        trace.append(Instruction(pc=0, compute_ops=1, addresses=[0], access=AccessType.READ))
        traces = [trace, trace]
        assert total_instructions(traces) == 4
        assert total_memory_instructions(traces) == 2

    def test_read_fraction(self):
        read = WarpTrace(warp_id=0, sm_id=0)
        read.append(Instruction(pc=0, addresses=[0], access=AccessType.READ))
        write = WarpTrace(warp_id=1, sm_id=0)
        write.append(Instruction(pc=0, addresses=[0], access=AccessType.WRITE))
        assert read_fraction([read, write]) == pytest.approx(0.5)

    def test_read_fraction_no_memory(self):
        trace = WarpTrace(warp_id=0, sm_id=0)
        trace.append(Instruction(pc=0, compute_ops=1))
        assert read_fraction([trace]) == 0.0
