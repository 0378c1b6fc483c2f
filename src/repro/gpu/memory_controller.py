"""Memory controllers below the shared L2.

GPUs drive their memory packages through 6-8 memory controllers (Section
II-A).  GDDR5 and Hetero put GDDR5 behind six of them, and the Optane baseline
Optane DC PMM (Section V-A); the ZnG platforms replace them with flash
controllers (``repro.ssd.flash_controller``).  One model covers both
technologies through its parameters.
"""

from __future__ import annotations

from repro.config import (GDDR5, GPU_FREQ_HZ, OptaneConfig, bandwidth_to_bytes_per_cycle,
                          ns_to_cycles)
from repro.sim.engine import BandwidthResource, ResourcePool


class MemoryControllerArray:
    """``controllers`` controllers sharing ``bandwidth_gbps``, one per
    ``interleave_bytes`` of address.  An access moves whole ``granule_bytes``
    granules and books its controller's one port for its latency plus its
    transfer time."""

    def __init__(
        self,
        name: str,
        controllers: int,
        bandwidth_gbps: float,
        read_latency_cycles: float,
        write_latency_cycles: float,
        interleave_bytes: int,
        granule_bytes: int = 1,
    ) -> None:
        if controllers <= 0:
            raise ValueError("need at least one controller")
        self.controllers = controllers
        self.read_latency_cycles = read_latency_cycles
        self.write_latency_cycles = write_latency_cycles
        self.interleave_bytes = interleave_bytes
        self.granule_bytes = granule_bytes
        per_controller = bandwidth_to_bytes_per_cycle(bandwidth_gbps * 1e9) / controllers
        self.channels = ResourcePool([
            BandwidthResource(name=f"{name}_mc{i}", bytes_per_cycle=per_controller)
            for i in range(controllers)
        ])

    def access(self, address: int, num_bytes: int, is_write: bool, now: float) -> float:
        """Serve one access; returns the completion cycle."""
        controller = self.channels.resources[
            (address // self.interleave_bytes) % self.controllers]
        granule = self.granule_bytes
        num_bytes = -(-num_bytes // granule) * granule
        latency = self.write_latency_cycles if is_write else self.read_latency_cycles
        duration = latency + num_bytes / controller.bytes_per_cycle
        start = controller.acquire(now, duration)
        controller.bytes_transferred += num_bytes
        return start + duration

    @property
    def bytes_transferred(self) -> int:
        return sum(c.bytes_transferred for c in self.channels)  # type: ignore[attr-defined]

    def achieved_bandwidth_bytes_per_s(self, horizon_cycles: float) -> float:
        if horizon_cycles <= 0:
            return 0.0
        return self.bytes_transferred / (horizon_cycles / GPU_FREQ_HZ)


def build_gddr5_controllers() -> MemoryControllerArray:
    """The GPU's own memory: 6 controllers driving 12 GDDR5 packages."""
    latency = ns_to_cycles(GDDR5.access_latency_ns)
    return MemoryControllerArray(
        "gddr5", controllers=6, bandwidth_gbps=GDDR5.peak_bandwidth_gbps,
        read_latency_cycles=latency, write_latency_cycles=latency, interleave_bytes=1)


def build_optane_controllers(config: OptaneConfig) -> MemoryControllerArray:
    """Six memory controllers in front of Optane DC PMM (the Optane baseline)."""
    return MemoryControllerArray(
        "optane", controllers=config.controllers,
        bandwidth_gbps=config.read_bandwidth_gbps_total,
        read_latency_cycles=ns_to_cycles(config.read_latency_ns),
        write_latency_cycles=ns_to_cycles(config.write_latency_ns),
        interleave_bytes=256, granule_bytes=config.access_granularity_bytes)
