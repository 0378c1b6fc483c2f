"""Flash controllers.

In ZnG each flash channel has its own controller attached directly to the GPU
interconnect network (Section III-B): it contains a request dispatcher that
receives packets from the L2 banks, decodes the flash physical address into
(die, plane, block, page), and issues the flash command sequence.  The
per-controller dispatcher removes the single HybridGPU dispatcher bottleneck.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.config import ZNANDConfig
from repro.sim.engine import Resource
from repro.ssd.geometry import FlashGeometry, FlashLocation
from repro.ssd.znand import FlashOperationResult, ZNANDArray


@dataclass
class FlashCommand:
    """A decoded flash command ready to issue to the array."""

    ppn: int
    is_program: bool
    location: FlashLocation
    transfer_bytes: Optional[int] = None


class FlashController:
    """One per-channel controller with an integrated request dispatcher."""

    #: Address decode + command generation latency per request.
    DECODE_LATENCY_CYCLES = 8.0
    #: Requests the dispatcher can accept per cycle (it is a small FSM).
    DISPATCH_OCCUPANCY_CYCLES = 2.0

    def __init__(self, channel: int, array: ZNANDArray) -> None:
        self.channel = channel
        self.array = array
        self.geometry: FlashGeometry = array.geometry
        self.dispatcher = Resource(f"flash_ctrl{channel}_dispatch", ports=1)
        self.commands_issued = 0

    def decode(self, ppn: int, is_program: bool, transfer_bytes: Optional[int] = None) -> FlashCommand:
        location = self.geometry.decompose(ppn)
        return FlashCommand(
            ppn=ppn, is_program=is_program, location=location, transfer_bytes=transfer_bytes
        )

    def submit(self, command: FlashCommand, now: float) -> FlashOperationResult:
        """Dispatch one command to the array; returns the array's timing record."""
        start = self.dispatcher.acquire(now, self.DISPATCH_OCCUPANCY_CYCLES)
        issue_time = start + self.DECODE_LATENCY_CYCLES
        self.commands_issued += 1
        if command.is_program:
            return self.array.program_page(command.ppn, issue_time, command.transfer_bytes)
        return self.array.read_page(
            command.ppn, issue_time, command.transfer_bytes, location=command.location
        )

    def read(self, ppn: int, now: float, transfer_bytes: Optional[int] = None) -> FlashOperationResult:
        return self.submit(self.decode(ppn, is_program=False, transfer_bytes=transfer_bytes), now)

    def program(self, ppn: int, now: float, transfer_bytes: Optional[int] = None) -> FlashOperationResult:
        return self.submit(self.decode(ppn, is_program=True, transfer_bytes=transfer_bytes), now)

    def reset(self) -> None:
        self.dispatcher.reset()
        self.commands_issued = 0


class FlashControllerArray:
    """The set of per-channel controllers ZnG hangs off the GPU network."""

    def __init__(self, array: ZNANDArray) -> None:
        self.array = array
        self.controllers: List[FlashController] = [
            FlashController(channel, array) for channel in range(array.config.channels)
        ]

    def __len__(self) -> int:
        return len(self.controllers)

    def controller_for_ppn(self, ppn: int) -> FlashController:
        return self.controllers[self.array.geometry.channel_of_ppn(ppn)]

    def read(self, ppn: int, now: float, transfer_bytes: Optional[int] = None) -> FlashOperationResult:
        return self.controller_for_ppn(ppn).read(ppn, now, transfer_bytes)

    def program(self, ppn: int, now: float, transfer_bytes: Optional[int] = None) -> FlashOperationResult:
        return self.controller_for_ppn(ppn).program(ppn, now, transfer_bytes)

    @property
    def commands_issued(self) -> int:
        return sum(c.commands_issued for c in self.controllers)

    def reset(self) -> None:
        for controller in self.controllers:
            controller.reset()
