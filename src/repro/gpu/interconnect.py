"""GPU interconnect network between SMs, L2 banks and memory-side controllers.

The paper models a crossbar-style network whose aggregate bandwidth far
exceeds what the flash backbone can supply; ZnG therefore attaches the flash
controllers to this network directly rather than to a single dispatcher.  We
model the network as a set of bandwidth-limited links with a fixed traversal
latency; traffic is striped across links by destination.
"""

from __future__ import annotations

from repro.config import GPUConfig
from repro.sim.engine import BandwidthResource, ResourcePool


class Interconnect:
    """Crossbar interconnect with per-destination bandwidth-limited links."""

    def __init__(
        self,
        config: GPUConfig,
        num_destinations: int,
        name: str = "gpu_noc",
    ) -> None:
        if num_destinations <= 0:
            raise ValueError("interconnect needs at least one destination")
        self.config = config
        self.name = name
        self.num_destinations = num_destinations
        per_link_bandwidth = config.noc_bytes_per_cycle / num_destinations
        self.links = ResourcePool(
            [
                BandwidthResource(
                    name=f"{name}_link{i}",
                    bytes_per_cycle=max(per_link_bandwidth, 1.0),
                    ports=1,
                    fixed_latency=config.noc_latency_cycles,
                )
                for i in range(num_destinations)
            ]
        )
        self.packets = 0
        self.bytes_moved = 0

    def route(self, destination: int) -> BandwidthResource:
        return self.links[destination % self.num_destinations]  # type: ignore[return-value]

    def send(self, destination: int, num_bytes: int, now: float) -> float:
        """Transfer ``num_bytes`` to ``destination``; return the arrival cycle."""
        # route() and BandwidthResource.transfer() inlined: one send per
        # request.  Keep the arithmetic identical to transfer().
        link = self.links.resources[destination % self.num_destinations]
        self.packets += 1
        self.bytes_moved += num_bytes
        duration = link.fixed_latency + num_bytes / link.bytes_per_cycle
        start = link.acquire(now, duration)
        link.bytes_transferred += num_bytes
        return start + duration

    def round_trip(self, destination: int, request_bytes: int, reply_bytes: int, now: float) -> float:
        """Send a request packet and account for the reply on the same link."""
        arrival = self.send(destination, request_bytes, now)
        return self.send(destination, reply_bytes, arrival)

    @property
    def total_busy_cycles(self) -> float:
        return self.links.busy_cycles

    def reset(self) -> None:
        self.links.reset()
        self.packets = 0
        self.bytes_moved = 0
