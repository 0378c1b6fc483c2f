"""The traditional GPU memory subsystem: 6 memory controllers, 12 GDDR5 packages.

This is the reference point of the motivation figures: Fig. 4c/4d compare it
against HybridGPU, and Fig. 5a reports the degradation of replacing it with
raw Z-NAND.  Data is assumed resident in GDDR5 (no page faults).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import GPU_FREQ_HZ, PlatformConfig
from repro.gpu.dram import DRAMSubsystem, build_gddr5_subsystem
from repro.platforms.base import GPUSSDPlatform, PlatformResult
from repro.workloads.trace import WorkloadTrace


class GDDR5Platform(GPUSSDPlatform):
    """GPU with its conventional GDDR5 memory; the data set is resident."""

    name = "GDDR5"

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        super().__init__(config)
        self.dram: DRAMSubsystem = build_gddr5_subsystem()

    def prepare(self, workload: WorkloadTrace) -> None:
        """Pre-map the touched pages so no page faults occur (data is resident)."""
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
        completion = self.dram.access(physical_address or address, self.request_bytes, now)
        if completion > now:
            breakdown["dram"] += completion - now
        # Fill the missing line into the L2 for future reuse.
        self.l2.fill(address, completion)
        return completion

    def _service_write(
        self, address: int, physical_address: int, now: float, breakdown: Dict[str, float]
    ) -> float:
        completion = self.dram.access(physical_address or address, self.request_bytes, now)
        if completion > now:
            breakdown["dram"] += completion - now
        self.l2.fill(address, completion, dirty=True)
        return completion

    def _annotate_result(self, result: PlatformResult) -> None:
        cycles = result.execution.cycles
        result.extra["dram_bandwidth_gbps"] = (
            self.dram.achieved_bandwidth_bytes_per_s(cycles) / 1e9 if cycles else 0.0
        )
