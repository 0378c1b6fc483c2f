"""Flash controllers.

In ZnG each flash channel has its own controller attached directly to the GPU
interconnect network (Section III-B): it contains a request dispatcher that
receives packets from the L2 banks, decodes the flash physical address into
(die, plane, block, page), and issues the flash command sequence.  The
per-controller dispatcher removes the single HybridGPU dispatcher bottleneck.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.sim.engine import Resource
from repro.ssd.znand import ZNANDArray


class FlashController:
    """One per-channel controller with an integrated request dispatcher."""

    #: Address decode + command generation latency per request.
    DECODE_LATENCY_CYCLES = 8.0
    #: Requests the dispatcher can accept per cycle (it is a small FSM).
    DISPATCH_OCCUPANCY_CYCLES = 2.0

    def __init__(self, channel: int, array: ZNANDArray) -> None:
        self.channel = channel
        self.array = array
        self.dispatcher = Resource(f"flash_ctrl{channel}_dispatch", ports=1)
        self.commands_issued = 0

    def read(
        self, ppn: int, now: float, transfer_bytes: Optional[int] = None
    ) -> Tuple[float, float]:
        """Dispatch one page read: decode the address, then sense the page.

        Returns :meth:`ZNANDArray.read_page`'s ``(sensed, completion)``.
        """
        # Resource.acquire on the single-port dispatcher, inlined (one
        # booking per read miss); keep in lockstep with Resource.acquire.
        # The occupancy is a non-negative constant, so it is not checked.
        dispatcher = self.dispatcher
        occupancy = self.DISPATCH_OCCUPANCY_CYCLES
        last = dispatcher.last_completion
        start = now if now > last else last
        dispatcher.last_completion = start + occupancy
        dispatcher.busy_cycles += occupancy
        dispatcher.wait_cycles += start - now
        dispatcher.requests_served += 1
        self.commands_issued += 1
        return self.array.read_page(ppn, start + self.DECODE_LATENCY_CYCLES, transfer_bytes)

    def program(
        self, ppn: int, now: float, transfer_bytes: Optional[int] = None
    ) -> Tuple[float, float]:
        """Dispatch one page program; returns ``(transferred, completion)``."""
        start = self.dispatcher.acquire(now, self.DISPATCH_OCCUPANCY_CYCLES)
        self.commands_issued += 1
        return self.array.program_page(
            ppn, start + self.DECODE_LATENCY_CYCLES, transfer_bytes)

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

    # read() and program() inline controller_for_ppn(): PPNs stripe
    # channel-first, so the channel is ``ppn % channels``.
    def read(
        self, ppn: int, now: float, transfer_bytes: Optional[int] = None
    ) -> Tuple[float, float]:
        controllers = self.controllers
        return controllers[ppn % len(controllers)].read(ppn, now, transfer_bytes)

    def program(
        self, ppn: int, now: float, transfer_bytes: Optional[int] = None
    ) -> Tuple[float, float]:
        controllers = self.controllers
        return controllers[ppn % len(controllers)].program(ppn, now, transfer_bytes)

    @property
    def commands_issued(self) -> int:
        return sum(c.commands_issued for c in self.controllers)

    def reset(self) -> None:
        for controller in self.controllers:
            controller.reset()
