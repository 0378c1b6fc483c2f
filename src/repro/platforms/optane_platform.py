"""The Optane baseline: GPU DRAM replaced by Optane DC PMM behind six controllers.

Optane DC PMM is byte-addressable (256 B internal granularity) so it does not
suffer the Z-NAND page-granularity mismatch, but its aggregate bandwidth tops
out around 39 GB/s for reads — well below GDDR5 and below what ZnG extracts
from the accumulated flash arrays (Section V-B).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import PlatformConfig
from repro.platforms.base import GPUSSDPlatform, PlatformResult
from repro.sim.request import MemoryRequest
from repro.ssd.optane import OptaneMemory
from repro.workloads.trace import WorkloadTrace


class OptanePlatform(GPUSSDPlatform):
    """GPU whose memory is Optane DC PMM on six memory controllers."""

    name = "Optane"

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        super().__init__(config)
        self.optane = OptaneMemory(self.config.optane)

    def prepare(self, workload: WorkloadTrace) -> None:
        self.mmu.preload({vpn: vpn for vpn in self.resident_pages(workload)})

    def _service_l2_miss(
        self, request: MemoryRequest, now: float, breakdown: Dict[str, float]
    ) -> float:
        address = request.physical_address or request.address
        completion = self.optane.access(address, request.size, is_write=False, now=now)
        if completion > now:
            breakdown["optane"] += completion - now
        self.l2.fill(request.address, completion)
        return completion

    def _service_write(
        self, request: MemoryRequest, now: float, breakdown: Dict[str, float]
    ) -> float:
        address = request.physical_address or request.address
        completion = self.optane.access(address, request.size, is_write=True, now=now)
        if completion > now:
            breakdown["optane"] += completion - now
        self.l2.fill(request.address, completion, dirty=True)
        return completion

    def _annotate_result(self, result: PlatformResult) -> None:
        cycles = result.execution.cycles
        result.extra["optane_bandwidth_gbps"] = (
            self.optane.achieved_bandwidth_bytes_per_s(cycles) / 1e9 if cycles else 0.0
        )
