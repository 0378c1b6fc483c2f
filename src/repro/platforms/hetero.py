"""The Hetero platform: discrete GPU and NVMe SSD attached to the host over PCIe.

Data initially resides in the SSD (Section V-B).  A GPU access to a
non-resident page raises a page fault; the MMU's fault handler interrupts the
host CPU, which reads the page from the NVMe SSD into host DRAM, copies it
(user/kernel redundant copy) and DMAs it over PCIe into the GPU's GDDR5.
Once faulted in, accesses are served by GDDR5 at full speed, through the
GDDR5 platform's memory controllers — the cost of this platform is the fault
path, not steady-state bandwidth.
"""

from __future__ import annotations

import weakref
from typing import Optional, Tuple

from repro.config import (
    HostConfig,
    PlatformConfig,
    bandwidth_to_bytes_per_cycle,
    us_to_cycles,
)
from repro.platforms.base import PlatformResult
from repro.platforms.gddr5 import GDDR5Platform
from repro.sim.engine import BandwidthResource, Resource
from repro.workloads.trace import WorkloadTrace


class HeteroPlatform(GDDR5Platform):
    """Discrete GPU + SSD: page faults serviced by the host CPU over PCIe."""

    name = "Hetero"

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        super().__init__(config)
        self.host: HostConfig = self.config.host
        # Host-side resources shared by every page fault.
        self.pcie = BandwidthResource(
            name="pcie",
            bytes_per_cycle=bandwidth_to_bytes_per_cycle(self.host.pcie_bandwidth_gbps * 1e9),
            ports=1,
            fixed_latency=us_to_cycles(self.host.pcie_latency_us),
        )
        self.nvme = BandwidthResource(
            name="nvme_ssd",
            bytes_per_cycle=bandwidth_to_bytes_per_cycle(self.host.nvme_bandwidth_gbps * 1e9),
            ports=4,
            fixed_latency=us_to_cycles(self.host.nvme_read_latency_us),
        )
        self.host_copy = BandwidthResource(
            name="host_copy",
            bytes_per_cycle=bandwidth_to_bytes_per_cycle(self.host.host_copy_bandwidth_gbps * 1e9),
            ports=2,
        )
        self.host_cpu = Resource("host_fault_handler", ports=1)
        self.page_faults_serviced = 0
        # The MMU holds the fault handler; calling it through a weak method
        # keeps the platform out of a reference cycle with its own MMU, so a
        # finished platform is freed at once instead of at the next full
        # collection.
        service_page_fault = weakref.WeakMethod(self._service_page_fault)
        self.mmu.set_fault_handler(lambda vpn, now: service_page_fault()(vpn, now))

    def prepare(self, workload: WorkloadTrace) -> None:
        """Nothing is resident: every first touch will fault."""
        # Intentionally no preloading — that is the point of this baseline.

    # ------------------------------------------------------------------
    def _service_page_fault(self, virtual_page: int, now: float) -> Tuple[int, float]:
        """Host services the fault: NVMe read -> host copy -> PCIe DMA to GDDR5."""
        self.page_faults_serviced += 1
        page_bytes = self.page_size
        # Interrupt + driver + user/privilege-mode switches on the host CPU.
        handling = us_to_cycles(self.host.page_fault_handling_us)
        start = self.host_cpu.acquire(now, handling)
        time = start + handling
        # Read the page from the NVMe SSD into host memory.
        time = self.nvme.transfer(time, page_bytes)
        # Redundant data copy in the host (user <-> kernel buffers).
        time = self.host_copy.transfer(time, page_bytes)
        # DMA the page over PCIe into GPU memory.
        time = self.pcie.transfer(time, page_bytes)
        self.stats.add("page_fault_cycles", time - now)
        # Each page lands in the frame of its own number, so the shared
        # service path reaches GDDR5 at the virtual address.
        return virtual_page, time

    def _annotate_result(self, result: PlatformResult) -> None:
        """The fault counters; Hetero's record has no ``dram_bandwidth_gbps``."""
        result.extra["page_faults"] = float(self.page_faults_serviced)
        result.extra["mean_fault_cycles"] = (
            self.stats.get("page_fault_cycles") / self.page_faults_serviced
            if self.page_faults_serviced
            else 0.0
        )
