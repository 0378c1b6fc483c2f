"""Warp instruction traces.

A workload is expressed as, per warp, a sequence of :class:`Instruction`
records.  Each record captures a run of arithmetic instructions followed by an
optional memory instruction with the per-thread addresses it touches.  This is
the same information a MacSim trace provides at the granularity the memory
system cares about, while staying compact enough to generate synthetically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.sim.request import AccessType


@dataclass(slots=True)
class Instruction:
    """A run of ``compute_ops`` ALU instructions followed by one memory access.

    ``addresses`` holds the per-thread byte addresses of the memory access, a
    sequence of ints; an empty one means the record is compute-only.  It is
    one of three types: a generated trace keeps each instruction's pattern
    as a :class:`~repro.workloads.generators.StridedAddresses`, a replayed
    trace packs the addresses it read into one int64 ``array('q')``, and a
    hand-built trace (the microbenchmarks and the tests) passes a list.
    ``segments`` optionally carries the coalesced 128 B-aligned
    segment addresses precomputed at trace-generation time (sorted,
    unique); when present the per-SM coalescer skips re-deriving them from
    the 32 thread addresses on every execution of the instruction, which
    matters because one trace is replayed by several platforms per sweep.

    Generated and replayed traces share one record among all positions and
    warps that issue the same access, so a record taken from a trace must
    not be mutated.
    """

    pc: int
    compute_ops: int = 0
    addresses: Sequence[int] = field(default_factory=list)
    access: AccessType = AccessType.READ
    segments: Optional[Tuple[int, ...]] = None

    @property
    def is_memory(self) -> bool:
        return bool(self.addresses)

    @property
    def instruction_count(self) -> int:
        """Number of dynamic instructions represented by this record."""
        return self.compute_ops + (1 if self.is_memory else 0)


@dataclass
class WarpTrace:
    """The dynamic instruction stream of one warp."""

    warp_id: int
    sm_id: int
    instructions: List[Instruction] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def total_instructions(self) -> int:
        return sum(instr.instruction_count for instr in self.instructions)

    @property
    def memory_instructions(self) -> int:
        return sum(1 for instr in self.instructions if instr.is_memory)

    @property
    def read_instructions(self) -> int:
        return sum(
            1 for instr in self.instructions if instr.is_memory and instr.access.is_read
        )

    @property
    def write_instructions(self) -> int:
        return sum(
            1 for instr in self.instructions if instr.is_memory and instr.access.is_write
        )

    def append(self, instruction: Instruction) -> None:
        self.instructions.append(instruction)

    def touched_pages(self, page_size: int = 4096) -> set:
        pages = set()
        for instruction in self.instructions:
            for address in instruction.addresses:
                pages.add(address // page_size)
        return pages


def total_instructions(traces: Iterable[WarpTrace]) -> int:
    return sum(trace.total_instructions for trace in traces)


def total_memory_instructions(traces: Iterable[WarpTrace]) -> int:
    return sum(trace.memory_instructions for trace in traces)


def read_fraction(traces: Sequence[WarpTrace]) -> float:
    """Fraction of memory instructions that are reads (Table II read ratio)."""
    reads = sum(trace.read_instructions for trace in traces)
    memory = sum(trace.memory_instructions for trace in traces)
    return reads / memory if memory else 0.0
