"""Memory-side controllers.

GPUs employ 6-8 memory controllers, each connected to a set of DRAM packages
(Section II-A).  The Optane baseline reuses the same structure with six
controllers in front of Optane DC PMM; the ZnG platforms replace them with
flash controllers (``repro.ssd.flash_controller``).
"""

from __future__ import annotations

from typing import List

from repro.config import OptaneConfig, bandwidth_to_bytes_per_cycle, ns_to_cycles
from repro.sim.engine import BandwidthResource, ResourcePool


class MemoryControllerArray:
    """A striped array of memory controllers with per-controller bandwidth."""

    def __init__(
        self,
        name: str,
        controllers: int,
        bytes_per_cycle_per_controller: float,
        fixed_latency_cycles: float,
        write_latency_cycles: float = 0.0,
    ) -> None:
        if controllers <= 0:
            raise ValueError("need at least one controller")
        self.name = name
        self.controllers = controllers
        self.write_latency_cycles = write_latency_cycles or fixed_latency_cycles
        self.read_latency_cycles = fixed_latency_cycles
        self.channels = ResourcePool(
            [
                BandwidthResource(
                    name=f"{name}_mc{i}",
                    bytes_per_cycle=bytes_per_cycle_per_controller,
                    ports=1,
                    fixed_latency=0.0,
                )
                for i in range(controllers)
            ]
        )

    def access(self, address: int, num_bytes: int, is_write: bool, now: float) -> float:
        """Serve one access; returns the completion cycle."""
        controller = self.channels.resources[(address // 256) % self.controllers]
        latency = self.write_latency_cycles if is_write else self.read_latency_cycles
        duration = latency + controller.transfer_time(num_bytes)
        start = controller.acquire(now, duration)
        controller.bytes_transferred += num_bytes
        return start + duration

    @property
    def bytes_transferred(self) -> int:
        return sum(c.bytes_transferred for c in self.channels)  # type: ignore[attr-defined]

    def reset(self) -> None:
        self.channels.reset()


def build_optane_controllers(config: OptaneConfig) -> MemoryControllerArray:
    """Six memory controllers in front of Optane DC PMM (the Optane baseline)."""
    total_read_bw = config.read_bandwidth_gbps_total * 1e9
    per_controller = bandwidth_to_bytes_per_cycle(total_read_bw) / config.controllers
    return MemoryControllerArray(
        name="optane",
        controllers=config.controllers,
        bytes_per_cycle_per_controller=per_controller,
        fixed_latency_cycles=ns_to_cycles(config.read_latency_ns),
        write_latency_cycles=ns_to_cycles(config.write_latency_ns),
    )
