"""Cross-checks of the simulator against closed-form analytic predictions.

These validations give confidence that the cycle-approximate model behaves as
intended: a streaming read workload should approach the relevant link's peak
bandwidth, a plane can sustain at most one page per read latency, and the SSD
engine throughput is bounded by its embedded-core service rate.  They are used
by a validation bench and make the model's assumptions explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

from repro.config import GPU_FREQ_HZ, PlatformConfig, default_config


@dataclass
class ValidationResult:
    """One analytic-vs-measured comparison."""

    name: str
    analytic: float
    measured: float

    @property
    def relative_error(self) -> float:
        """``|measured - analytic| / |analytic|``.

        A zero analytic prediction with a non-zero measurement is an
        *infinite* relative error, not a perfect match — reporting 0.0 there
        (as this used to) made exactly the broken-model case look validated.
        Only the genuinely-agreeing 0 == 0 case has zero error.
        """
        if self.analytic == 0:
            return 0.0 if self.measured == 0 else math.inf
        return abs(self.measured - self.analytic) / abs(self.analytic)

    def within(self, tolerance: float) -> bool:
        return self.relative_error <= tolerance


def analytic_plane_read_bandwidth(config: PlatformConfig = None) -> float:
    """Single-plane sustained read bandwidth (page / read latency), bytes/s."""
    cfg = config or default_config()
    return cfg.znand.plane_read_bandwidth_bytes_per_s


def analytic_accumulated_flash_bandwidth(config: PlatformConfig = None) -> float:
    """Accumulated read bandwidth of all planes, bytes/s."""
    cfg = config or default_config()
    return cfg.znand.accumulated_read_bandwidth_bytes_per_s


def analytic_ssd_engine_throughput(config: PlatformConfig = None) -> float:
    """SSD-engine request-processing bandwidth at 128 B requests, bytes/s."""
    cfg = config or default_config()
    return cfg.ssd_engine.engine_throughput_bytes_per_s


def analytic_mesh_link_bandwidth(config: PlatformConfig = None) -> float:
    """Per-channel mesh link bandwidth, bytes/s."""
    cfg = config or default_config()
    return cfg.znand.flash_network_bandwidth_bytes_per_s


def analytic_bus_link_bandwidth(config: PlatformConfig = None) -> float:
    """Per-channel conventional bus bandwidth, bytes/s."""
    cfg = config or default_config()
    return cfg.znand.channel_bandwidth_bytes_per_s


def measure_single_channel_bandwidth(network_type: str, num_transfers: int = 200) -> float:
    """Drive one flash-network channel flat-out and report achieved bytes/s."""
    from repro.config import ZNANDConfig
    from repro.ssd.flash_network import FlashNetwork

    config = ZNANDConfig()
    network = FlashNetwork(config, network_type)
    bytes_each = config.page_size_bytes
    completion = 0.0
    for _ in range(num_transfers):
        completion = network.transfer(0, bytes_each, 0.0)
    seconds = completion / GPU_FREQ_HZ
    return (num_transfers * bytes_each) / seconds if seconds else 0.0


def measure_single_plane_bandwidth(num_reads: int = 100) -> float:
    """Read one plane back-to-back and report achieved bytes/s."""
    from repro.config import ZNANDConfig
    from repro.ssd.flash_network import FlashNetwork
    from repro.ssd.znand import ZNANDArray

    config = ZNANDConfig()
    array = ZNANDArray(config, network=FlashNetwork(config, "mesh"))
    geom = array.geometry
    completion = 0.0
    for page in range(num_reads):
        ppn = geom.ppn_of(0, 0, page % geom.pages_per_block)
        completion = max(completion, array.read_page(ppn, now=0.0)[1])
    seconds = completion / GPU_FREQ_HZ
    return (num_reads * config.page_size_bytes) / seconds if seconds else 0.0


def validate_all(config: PlatformConfig = None) -> Dict[str, ValidationResult]:
    """Run every analytic-vs-measured validation."""
    results: Dict[str, ValidationResult] = {}
    results["mesh_channel_bw"] = ValidationResult(
        "mesh channel bandwidth",
        analytic_mesh_link_bandwidth(config),
        measure_single_channel_bandwidth("mesh"),
    )
    results["bus_channel_bw"] = ValidationResult(
        "bus channel bandwidth",
        analytic_bus_link_bandwidth(config),
        measure_single_channel_bandwidth("bus"),
    )
    results["plane_read_bw"] = ValidationResult(
        "plane read bandwidth",
        analytic_plane_read_bandwidth(config),
        measure_single_plane_bandwidth(),
    )
    return results
