"""DRAM device and subsystem models (GDDR5 / DDR4 / LPDDR4).

The motivation figures (1b, 3, 4c) compare package-level density, power and
bandwidth; the Hetero baseline additionally needs a timing model for its
on-board GDDR5 so that warm data is fast once it has been faulted in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import (
    DRAMTechnology,
    GDDR5,
    GPU_FREQ_HZ,
    bandwidth_to_bytes_per_cycle,
    ns_to_cycles,
)
from repro.sim.engine import BandwidthResource, ResourcePool


@dataclass
class DRAMDevice:
    """A single DRAM package of a given technology."""

    technology: DRAMTechnology

    @property
    def capacity_bytes(self) -> int:
        return int(self.technology.package_capacity_gb * (1 << 30))

    @property
    def power_watts(self) -> float:
        return self.technology.power_w_per_gb * self.technology.package_capacity_gb


class DRAMSubsystem:
    """A set of memory controllers each driving a group of DRAM packages."""

    def __init__(
        self,
        technology: DRAMTechnology,
        controllers: int,
        packages: int,
        name: str = "dram",
    ) -> None:
        if controllers <= 0 or packages <= 0:
            raise ValueError("need at least one controller and one package")
        self.technology = technology
        self.controllers = controllers
        self.packages = packages
        self.devices = [DRAMDevice(technology) for _ in range(packages)]
        total_bw_bytes_per_s = technology.peak_bandwidth_gbps * 1e9
        per_controller = bandwidth_to_bytes_per_cycle(total_bw_bytes_per_s) / controllers
        self.channels = ResourcePool(
            [
                BandwidthResource(
                    name=f"{name}_ctrl{i}",
                    bytes_per_cycle=per_controller,
                    ports=1,
                    fixed_latency=ns_to_cycles(technology.access_latency_ns),
                )
                for i in range(controllers)
            ]
        )

    @property
    def capacity_bytes(self) -> int:
        return sum(device.capacity_bytes for device in self.devices)

    @property
    def peak_bandwidth_bytes_per_s(self) -> float:
        return self.technology.peak_bandwidth_gbps * 1e9

    @property
    def power_watts(self) -> float:
        return sum(device.power_watts for device in self.devices)

    def access(self, address: int, num_bytes: int, now: float) -> float:
        """Serve an access; return the completion cycle."""
        channel = self.channels.resources[address % self.controllers]
        return channel.transfer(now, num_bytes)  # type: ignore[union-attr]

    def achieved_bandwidth_bytes_per_s(self, horizon_cycles: float) -> float:
        if horizon_cycles <= 0:
            return 0.0
        moved = sum(c.bytes_transferred for c in self.channels)  # type: ignore[attr-defined]
        seconds = horizon_cycles / GPU_FREQ_HZ
        return moved / seconds if seconds > 0 else 0.0

    def reset(self) -> None:
        self.channels.reset()


def build_gddr5_subsystem() -> DRAMSubsystem:
    """The traditional GPU memory subsystem: 6 controllers, 12 GDDR5 packages."""
    return DRAMSubsystem(GDDR5, controllers=6, packages=12, name="gddr5")
