"""HybridGPU (prior work [11]): Z-NAND integrated into the GPU behind an SSD controller.

GPU L2 misses travel through a single request dispatcher to the SSD engine
(2-5 embedded cores executing the page-mapped FTL) and its single-package
DRAM buffer on a 32-bit bus; buffer misses read whole 4 KB pages from the
Z-NAND arrays over conventional 1-byte ONFI channels (Fig. 1a).  The engine
and the narrow channels are the bottlenecks Fig. 4d attributes ~67 % and a
large network share of the latency to.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import GPU_FREQ_HZ, PlatformConfig
from repro.platforms.base import GPUSSDPlatform, PlatformResult
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.ftl_firmware import PageMappedFTL
from repro.ssd.ssd_engine import SSDEngine
from repro.ssd.znand import ZNANDArray
from repro.workloads.trace import WorkloadTrace


class HybridGPUPlatform(GPUSSDPlatform):
    """The prior-work integrated GPU-SSD with an on-board SSD controller."""

    name = "HybridGPU"

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        super().__init__(config)
        znand = self.config.znand
        # HybridGPU keeps the conventional bus-structured flash channels.
        self.flash_network = FlashNetwork(znand, network_type="bus")
        self.array = ZNANDArray(znand, network=self.flash_network)
        self.ftl = PageMappedFTL(self.array, self.config.ftl.gc_free_block_threshold)
        self.engine = SSDEngine(self.config.ssd_engine, self.array, self.ftl)

    def prepare(self, workload: WorkloadTrace) -> None:
        """The data set resides in the integrated SSD; map it up front."""
        resident = self.resident_pages(workload)
        self.mmu.preload({vpn: vpn for vpn in resident})
        time = 0.0
        for vpn in sorted(resident):
            _, time = self.ftl.write_mapping_only(vpn, time)
        # Loading happens before the measured region; clear timing state.
        self.array.reset_statistics()
        self.engine.reset_statistics()

    # ------------------------------------------------------------------
    def _service_l2_miss(
        self,
        address: int,
        physical_address: int,
        pc: int,
        now: float,
        breakdown: Dict[str, float],
    ) -> float:
        completion = self.engine.service(address, self.request_bytes, False, now, breakdown)
        self.l2.fill(address, completion)
        return completion

    def _service_write(
        self, address: int, physical_address: int, now: float, breakdown: Dict[str, float]
    ) -> float:
        completion = self.engine.service(address, self.request_bytes, True, now, breakdown)
        self.l2.fill(address, completion, dirty=True)
        return completion

    # ------------------------------------------------------------------
    def _flash_read_bandwidth_gbps(self, cycles: float) -> float:
        return self.array.array_read_bandwidth_bytes_per_s(cycles) / 1e9 if cycles else 0.0

    def _flash_total_bandwidth_gbps(self, cycles: float) -> float:
        return self.array.array_total_bandwidth_bytes_per_s(cycles) / 1e9 if cycles else 0.0

    def _annotate_result(self, result: PlatformResult) -> None:
        result.extra["dram_buffer_hit_rate"] = self.engine.buffer_hit_rate
        result.extra["gc_invocations"] = float(self.ftl.gc_invocations)
        result.extra["write_amplification"] = self.ftl.write_amplification_factor
        cycles = result.execution.cycles
        if cycles:
            result.extra["flash_channel_bandwidth_gbps"] = (
                self.flash_network.achieved_bandwidth_bytes_per_s(cycles) / 1e9
            )
