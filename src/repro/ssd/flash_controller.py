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
        self, plane_id: int, now: float, transfer_bytes: Optional[int] = None
    ) -> Tuple[float, float]:
        """Dispatch one page read: decode the address, then sense the page.

        ``plane_id`` is the flat plane index of the page, one of this
        controller's channel.  Returns :meth:`ZNANDArray.read_page`'s
        ``(sensed, completion)``.
        """
        start = self.dispatcher.acquire(now, self.DISPATCH_OCCUPANCY_CYCLES)
        self.commands_issued += 1
        return self.array.read_page(
            plane_id, self.channel, start + self.DECODE_LATENCY_CYCLES, transfer_bytes)

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

    # Each page goes to the controller of its channel.
    def read(
        self, plane_id: int, channel: int, now: float,
        transfer_bytes: Optional[int] = None,
    ) -> Tuple[float, float]:
        """Read a page the caller decoded into its flat plane index and its
        channel (:meth:`ZNANDArray.read_page`)."""
        return self.controllers[channel].read(plane_id, now, transfer_bytes)

    def program(
        self, ppn: int, now: float, transfer_bytes: Optional[int] = None
    ) -> Tuple[float, float]:
        controller = self.controllers[self.array.geometry.channel_of_ppn(ppn)]
        return controller.program(ppn, now, transfer_bytes)

    @property
    def commands_issued(self) -> int:
        return sum(c.commands_issued for c in self.controllers)

    def reset(self) -> None:
        for controller in self.controllers:
            controller.reset()
