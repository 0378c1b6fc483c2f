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

    def send(self, destination: int, num_bytes: int, now: float) -> float:
        """Transfer ``num_bytes`` to ``destination``; return the arrival cycle."""
        # BandwidthResource.transfer() on the destination's single-port link,
        # inlined: one send per request.  Keep in lockstep with
        # BandwidthResource.transfer and Resource.acquire.  The link's latency
        # and bandwidth are checked when it is built; ``num_bytes`` is not.
        link = self.links.resources[destination % self.num_destinations]
        duration = link.fixed_latency + num_bytes / link.bytes_per_cycle
        if not duration >= 0:
            raise ValueError(f"duration must be non-negative, got {duration!r}")
        last = link.last_completion
        start = now if now > last else last
        link.last_completion = start + duration
        link.busy_cycles += duration
        link.wait_cycles += start - now
        link.requests_served += 1
        link.bytes_transferred += num_bytes
        return start + duration

    # Every packet books one link, so the traffic totals are the links'.
    @property
    def packets(self) -> int:
        return sum(link.requests_served for link in self.links.resources)

    @property
    def bytes_moved(self) -> int:
        return sum(link.bytes_transferred for link in self.links.resources)

    def reset(self) -> None:
        self.links.reset()
