"""The interconnect between flash controllers and Z-NAND packages.

Two structures are modelled (Section III-B):

* ``"bus"`` — the conventional ONFI flash channel: one 1-byte-wide 800 MT/s
  bus per channel shared by every die on the channel.  Its bandwidth is far
  below the accumulated bandwidth of the planes behind it, which is one of the
  HybridGPU bottlenecks.
* ``"mesh"`` — ZnG's widened mesh flash network: an 8-byte link per channel
  (Table I: bus width 8 B) with an extra hop latency, sized so the network can
  carry the accumulated Z-NAND bandwidth.
"""

from __future__ import annotations

from typing import List

from repro.config import GPU_FREQ_HZ, ZNANDConfig, bandwidth_to_bytes_per_cycle
from repro.sim.engine import BandwidthResource, ResourcePool


class FlashNetwork:
    """Per-channel data links between controllers and flash packages."""

    #: Extra traversal latency (cycles) of one mesh hop.
    MESH_HOP_LATENCY_CYCLES = 4.0
    #: Average hop count for the 4x4 mesh used by ZnG's 16 channels.  XY routing
    #: averages 8/3; a strict xfail in tests/ssd/test_flash_network.py pins the gap.
    MESH_AVERAGE_HOPS = 2.0

    def __init__(self, config: ZNANDConfig, network_type: str = None) -> None:
        self.config = config
        self.network_type = network_type or config.flash_network_type
        if self.network_type not in ("bus", "mesh"):
            raise ValueError(f"unknown flash network type {self.network_type!r}")
        if self.network_type == "bus":
            bytes_per_second = config.channel_bandwidth_bytes_per_s
            fixed_latency = 0.0
        else:
            bytes_per_second = config.flash_network_bandwidth_bytes_per_s
            fixed_latency = self.MESH_HOP_LATENCY_CYCLES * self.MESH_AVERAGE_HOPS
        bytes_per_cycle = bandwidth_to_bytes_per_cycle(bytes_per_second)
        self.links = ResourcePool(
            [
                BandwidthResource(
                    name=f"flash_{self.network_type}_ch{i}",
                    bytes_per_cycle=bytes_per_cycle,
                    ports=1,
                    fixed_latency=fixed_latency,
                )
                for i in range(config.channels)
            ]
        )

    def transfer(self, channel: int, num_bytes: int, now: float) -> float:
        """Move ``num_bytes`` over the channel's link; return completion cycle."""
        resources = self.links.resources
        return resources[channel % len(resources)].transfer(now, num_bytes)

    @property
    def per_channel_bandwidth_bytes_per_s(self) -> float:
        if self.network_type == "bus":
            return self.config.channel_bandwidth_bytes_per_s
        return self.config.flash_network_bandwidth_bytes_per_s

    @property
    def total_bandwidth_bytes_per_s(self) -> float:
        return self.per_channel_bandwidth_bytes_per_s * self.config.channels

    def bytes_transferred(self) -> int:
        return sum(link.bytes_transferred for link in self.links)  # type: ignore[attr-defined]

    def achieved_bandwidth_bytes_per_s(self, horizon_cycles: float) -> float:
        if horizon_cycles <= 0:
            return 0.0
        seconds = horizon_cycles / GPU_FREQ_HZ
        return self.bytes_transferred() / seconds

    def reset(self) -> None:
        self.links.reset()
