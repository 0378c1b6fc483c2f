"""GPUs whose memory below the L2 is six memory controllers.

``ControllerMemoryPlatform`` is the one service path of GDDR5, Hetero and
Optane.  ``GDDR5Platform`` is the traditional GPU memory subsystem (6
controllers, 12 GDDR5 packages) with the data set resident: the reference of
Figs 4c/4d and of Fig. 5a's degradation with raw Z-NAND.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import PlatformConfig
from repro.gpu.memory_controller import MemoryControllerArray, build_gddr5_controllers
from repro.platforms.base import GPUSSDPlatform, PlatformResult
from repro.workloads.trace import WorkloadTrace


class ControllerMemoryPlatform(GPUSSDPlatform):
    """Serves every L2 miss and every write from a :class:`MemoryControllerArray`.

    A subclass builds the array as ``memory`` in its ``__init__``, and also
    names it after its technology (``dram``, ``optane``).
    ``component`` names the latency-breakdown key the controllers charge and
    the ``<component>_bandwidth_gbps`` extra of the result.
    """

    component: str
    memory: MemoryControllerArray

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
        completion = self.memory.access(
            physical_address or address, self.request_bytes, False, now)
        if completion > now:
            breakdown[self.component] += completion - now
        # Fill the missing line into the L2 for future reuse.
        self.l2.fill(address, completion)
        return completion

    def _service_write(
        self, address: int, physical_address: int, now: float, breakdown: Dict[str, float]
    ) -> float:
        completion = self.memory.access(
            physical_address or address, self.request_bytes, True, now)
        if completion > now:
            breakdown[self.component] += completion - now
        self.l2.fill(address, completion, dirty=True)
        return completion

    def _annotate_result(self, result: PlatformResult) -> None:
        cycles = result.execution.cycles
        result.extra[f"{self.component}_bandwidth_gbps"] = (
            self.memory.achieved_bandwidth_bytes_per_s(cycles) / 1e9 if cycles else 0.0
        )


class GDDR5Platform(ControllerMemoryPlatform):
    """GPU with its conventional GDDR5 memory; the data set is resident."""

    name = "GDDR5"
    component = "dram"

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        super().__init__(config)
        self.dram = self.memory = build_gddr5_controllers()
