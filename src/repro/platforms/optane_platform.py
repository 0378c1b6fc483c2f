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
        self,
        address: int,
        physical_address: int,
        pc: int,
        now: float,
        breakdown: Dict[str, float],
    ) -> float:
        # Physical address 0 falls back to the virtual address.  That only
        # differs for a touched page missing from ``resident_pages``, which
        # demand-zero mapping puts in frame 0: a known model defect, kept
        # until a model change fixes it together with the pinned digests.
        completion = self.optane.access(
            physical_address or address, self.request_bytes, is_write=False, now=now)
        if completion > now:
            breakdown["optane"] += completion - now
        self.l2.fill(address, completion)
        return completion

    def _service_write(
        self, address: int, physical_address: int, now: float, breakdown: Dict[str, float]
    ) -> float:
        completion = self.optane.access(
            physical_address or address, self.request_bytes, is_write=True, now=now)
        if completion > now:
            breakdown["optane"] += completion - now
        self.l2.fill(address, completion, dirty=True)
        return completion

    def _annotate_result(self, result: PlatformResult) -> None:
        cycles = result.execution.cycles
        result.extra["optane_bandwidth_gbps"] = (
            self.optane.achieved_bandwidth_bytes_per_s(cycles) / 1e9 if cycles else 0.0
        )
