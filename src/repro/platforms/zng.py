"""The ZnG platform and its ablated variants (Section V-A).

* ``ZnG-base``  — Section III-B only: the SSD controller, dispatcher and DRAM
  buffer are gone; per-channel flash controllers hang off the GPU network, the
  flash network is a widened mesh, and the zero-overhead FTL translates
  addresses in the MMU / row decoders.  Reads sense whole 4 KB pages to serve
  128 B blocks and every write programs a log page immediately.
* ``ZnG-rdopt`` — adds the 24 MB read-only STT-MRAM L2 and the dynamic read
  prefetcher (predictor + access monitor).
* ``ZnG-wropt`` — adds the fully-associative flash-register write cache with
  the NiF interconnect and the thrashing checker.
* ``ZnG``       — both optimisations together.
"""

from __future__ import annotations

from dataclasses import replace
from enum import Enum
from typing import Dict, List, Optional, Type

from repro.config import PlatformConfig
from repro.core.helper_gc import HelperThreadGC
from repro.core.register_cache import FlashRegisterCache
from repro.core.register_network import build_register_network
from repro.core.zero_overhead_ftl import ZeroOverheadFTL
from repro.gpu.cache import EvictionRecord
from repro.gpu.l2cache import SharedL2Cache
from repro.platforms.base import GPUSSDPlatform, PlatformResult
from repro.ssd.endurance import EnduranceModel
from repro.ssd.flash_controller import FlashControllerArray
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.znand import ZNANDArray
from repro.workloads.trace import WorkloadTrace


class ZnGVariant(Enum):
    """The four ZnG configurations of the evaluation."""

    BASE = "ZnG-base"
    RDOPT = "ZnG-rdopt"
    WROPT = "ZnG-wropt"
    FULL = "ZnG"

    @property
    def has_read_optimization(self) -> bool:
        return self in (ZnGVariant.RDOPT, ZnGVariant.FULL)

    @property
    def has_write_optimization(self) -> bool:
        return self in (ZnGVariant.WROPT, ZnGVariant.FULL)


class ZnGPlatform(GPUSSDPlatform):
    """GPU whose entire memory is Z-NAND reached through per-channel controllers."""

    def __init__(
        self,
        variant: ZnGVariant = ZnGVariant.FULL,
        config: Optional[PlatformConfig] = None,
    ) -> None:
        self.variant = variant
        self.name = variant.value
        # The variant's config deltas — the mesh flash network (Section
        # III-B) and, for write-optimised variants, the enlarged register
        # pool — live as a declarative pinned layer in
        # ``repro.configspace.PLATFORM_LAYERS``; the base constructor
        # resolves it over ``config`` by platform name.
        super().__init__(config)

        znand = self.config.znand
        self.flash_network = FlashNetwork(znand, network_type="mesh")
        self.array = ZNANDArray(znand, network=self.flash_network)
        self.controllers = FlashControllerArray(self.array)
        self.ftl = ZeroOverheadFTL(self.array, self.config.ftl)
        self.helper_gc = HelperThreadGC(self.ftl, self.array)
        self.ftl.helper_gc = self.helper_gc
        self.endurance = EnduranceModel(self.array, znand)

        self.prefetcher = None
        if variant.has_read_optimization:
            from repro.core.prefetch_policies import build_prefetcher

            self.prefetcher = build_prefetcher(
                self.config.prefetch.policy,
                self.config.prefetch,
                page_size_bytes=znand.page_size_bytes,
                line_bytes=self.config.gpu.l2_line_bytes,
            )

        # Every Z-NAND program goes through a plane register, so even the base
        # design buffers writes in the plane's own (2) registers.  The write
        # optimisation turns them into a larger, package-wide fully-associative
        # cache reached over the NiF/FCnet/SWnet interconnect.
        if variant.has_write_optimization:
            register_config = self.config.register_cache
            network = build_register_network(self.array, register_config)
            self.register_cache = FlashRegisterCache(
                self.array, register_config, network=network, scope="package"
            )
        else:
            register_config = replace(
                self.config.register_cache,
                registers_per_plane=self.config.znand.registers_per_plane,
                interconnect="swnet",
            )
            network = build_register_network(self.array, register_config)
            self.register_cache = FlashRegisterCache(
                self.array, register_config, network=network, scope="plane"
            )

        self.page_size_flash = znand.page_size_bytes
        self.line_bytes = self.config.gpu.l2_line_bytes
        # L2 evictions caused by thrashing spills since the last read miss.
        self._spill_evictions: List[EvictionRecord] = []

    # ------------------------------------------------------------------
    def _build_l2(self) -> SharedL2Cache:
        # The read optimisation replaces the SRAM L2 with the larger,
        # read-only STT-MRAM L2; construction happens before ``variant``-
        # dependent members, so consult the attribute set in __init__.
        if self.variant.has_read_optimization:
            return SharedL2Cache.from_stt_mram_config(self.config.stt_mram)
        return SharedL2Cache.from_gpu_config(self.config.gpu)

    def prepare(self, workload: WorkloadTrace) -> None:
        """Install the data set: DBMT entries for the touched blocks, identity MMU map."""
        resident = self.resident_pages(workload)
        pages_per_block = self.ftl.pages_per_block()
        for vbn in sorted({vpn // pages_per_block for vpn in resident}):
            self.ftl.map_virtual_block(vbn)
        self.mmu.preload({vpn: vpn for vpn in resident})

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _observe_read(self, address: int, warp_id: int, pc: int) -> None:
        """Train the read predictor on the full read stream (Section IV-B)."""
        if self.prefetcher is not None:
            self.prefetcher.train(pc, warp_id, address)

    def _service_l2_miss(
        self,
        address: int,
        physical_address: int,
        pc: int,
        now: float,
        breakdown: Dict[str, float],
    ) -> float:
        virtual_page = address // self.page_size
        ppn = self.ftl.translate_read(virtual_page).ppn
        geometry = self.array.geometry
        plane = geometry.plane_of_ppn(ppn)
        register_cache = self.register_cache
        time = now

        # If the latest copy of the page is still dirty in a flash register,
        # serve it from the register over the flash network.
        if register_cache.holds(register_cache.group_of_plane(plane), virtual_page):
            channel = geometry.channel_of_ppn(ppn)
            completion = self.flash_network.transfer(channel, self.request_bytes, time)
            if completion > time:
                breakdown["flash_register"] += completion - time
            self.stats.add("register_read_hits")
            return completion

        # Plane-private registers (base/rdopt) must be drained before the plane
        # can sense a read; the package-wide write cache does not block reads.
        drained = register_cache.prepare_plane_for_read(
            plane, time, self._program_log_page
        )
        if drained > time:
            breakdown["register_flush"] += drained - time
            self.stats.add("forced_register_flushes")
            time = drained

        # Decide how much of the flash page to pull into the L2.  (Training
        # happens on every read via _observe_read, not only on misses.)
        prefetcher = self.prefetcher
        fetch_bytes = self.request_bytes
        prefetched = False
        if prefetcher is not None:
            decision = prefetcher.on_miss(pc)
            fetch_bytes = decision.fetch_bytes
            prefetched = decision.prefetch

        operation = self.controllers.read(ppn, time, transfer_bytes=fetch_bytes)
        array_cycles = operation.array_cycles
        transfer_cycles = operation.transfer_cycles
        completion = operation.completion_cycle
        if array_cycles > 0:
            breakdown["flash_array"] += array_cycles
        if transfer_cycles > 0:
            breakdown["flash_network"] += transfer_cycles
        controller_cycles = (completion - time) - array_cycles - transfer_cycles
        if controller_cycles > 0:
            breakdown["flash_controller"] += controller_cycles
        self.stats.add("flash_page_reads")

        # Fill the L2: the demand line plus (for prefetches) the neighbouring
        # lines of the page up to the chosen granularity.
        l2 = self.l2
        if prefetched and fetch_bytes > self.line_bytes:
            page_size = self.page_size_flash
            page_base = (address // page_size) * page_size
            start = page_base + ((address - page_base) // fetch_bytes) * fetch_bytes
            evictions = l2.fill_page(
                start, page_size, completion,
                prefetched=True, limit_bytes=fetch_bytes,
            )
        else:
            evictions = []
        evicted = l2.fill(address, completion, prefetched=False)
        if prefetcher is not None:
            # The access monitor sees every L2 eviction in the order it
            # happened: those of earlier thrashing spills, then this fill's.
            if self._spill_evictions:
                evictions = self._spill_evictions + evictions
                self._spill_evictions = []
            if evicted is not None:
                evictions.append(evicted)
            prefetcher.observe_evictions(evictions)
        return completion

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _program_log_page(self, virtual_page: int, now: float, transfer_bytes: Optional[int] = None) -> float:
        """Allocate a log page for the virtual page and program it."""
        allocation = self.ftl.allocate_write(virtual_page, now)
        if allocation.gc_performed:
            self.stats.add("helper_gc_merges")
        operation = self.controllers.program(
            allocation.ppn, allocation.ready_cycle, transfer_bytes=transfer_bytes
        )
        return operation.completion_cycle

    def _spill_to_l2(self, virtual_page: int, now: float) -> float:
        """Thrashing escape hatch: pin the dirty page's lines in the L2."""
        page_base = virtual_page * self.page_size_flash
        addresses = [
            page_base + offset
            for offset in range(0, self.page_size_flash, self.line_bytes)
        ]
        evictions = self.l2.pin_lines(
            addresses[: self.config.register_cache.l2_pinned_lines], now)
        # Spills happen only on read-optimised variants, whose access monitor
        # learns of these evictions at the next L2 read miss.
        self._spill_evictions.extend(evictions)
        self.stats.add("l2_spills")
        return now + self.l2.write_latency_cycles * len(addresses)

    def _service_write(
        self, address: int, physical_address: int, now: float, breakdown: Dict[str, float]
    ) -> float:
        virtual_page = address // self.page_size
        self.endurance.record_host_writes(1)

        # Writes are absorbed by flash registers: the plane's own registers in
        # ZnG-base/rdopt, the package-wide fully-associative cache in
        # ZnG-wropt/ZnG.  Register evictions program a log page.
        ftl = self.ftl
        target_plane = ftl.block_plane(ftl.entry_for_page(virtual_page).plbn)
        outcome = self.register_cache.write(
            virtual_page,
            target_plane,
            self.request_bytes,
            now,
            self._program_log_page,
            self._spill_to_l2 if self.variant.has_read_optimization else None,
        )
        ready = outcome.ready_cycle
        if ready > now:
            breakdown["flash_register"] += ready - now
        stats = self.stats
        if outcome.register_hit:
            stats.add("register_write_hits")
        else:
            stats.add("register_write_misses")
        if outcome.evicted_page is not None:
            stats.add("register_evictions")
        return ready

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def _flash_read_bandwidth_gbps(self, cycles: float) -> float:
        return self.array.array_read_bandwidth_bytes_per_s(cycles) / 1e9 if cycles else 0.0

    def _flash_total_bandwidth_gbps(self, cycles: float) -> float:
        return self.array.array_total_bandwidth_bytes_per_s(cycles) / 1e9 if cycles else 0.0

    def _annotate_result(self, result: PlatformResult) -> None:
        result.extra["log_read_fraction"] = self.ftl.log_read_fraction
        result.extra["gc_merges"] = float(self.helper_gc.merges)
        result.extra["dbmt_bytes"] = float(self.ftl.dbmt_size_bytes)
        cycles = result.execution.cycles
        if cycles:
            result.extra["flash_network_bandwidth_gbps"] = (
                self.flash_network.achieved_bandwidth_bytes_per_s(cycles) / 1e9
            )
        if self.prefetcher is not None:
            result.extra["prefetch_rate"] = self.prefetcher.prefetch_rate
            result.extra["prefetch_granularity_bytes"] = float(
                getattr(self.prefetcher, "current_granularity", 0)
            )
            monitor = getattr(self.prefetcher, "monitor", None)
            if monitor is not None:
                result.extra["prefetch_waste_ratio"] = monitor.overall_waste_ratio
        if self.register_cache is not None:
            result.extra["register_hit_rate"] = self.register_cache.hit_rate
            result.extra["register_evictions"] = float(self.register_cache.evictions)
            result.extra["register_l2_spills"] = float(self.register_cache.l2_spills)
        endurance = self.endurance.report()
        result.extra["write_amplification"] = endurance.write_amplification
        result.extra["max_erase_count"] = float(endurance.max_erase_count)


# ---------------------------------------------------------------------------
# Factory used by the analysis layer and the benches
# ---------------------------------------------------------------------------

#: The seven platforms of Fig. 10 plus the GDDR5 reference.
PLATFORM_NAMES = [
    "Hetero",
    "HybridGPU",
    "Optane",
    "ZnG-base",
    "ZnG-rdopt",
    "ZnG-wropt",
    "ZnG",
]


def build_platform(name: str, config: Optional[PlatformConfig] = None) -> GPUSSDPlatform:
    """Instantiate a platform by its evaluation name."""
    from repro.platforms.gddr5 import GDDR5Platform
    from repro.platforms.hetero import HeteroPlatform
    from repro.platforms.hybrid_gpu import HybridGPUPlatform
    from repro.platforms.optane_platform import OptanePlatform

    simple: Dict[str, Type[GPUSSDPlatform]] = {
        "GDDR5": GDDR5Platform,
        "Hetero": HeteroPlatform,
        "HybridGPU": HybridGPUPlatform,
        "Optane": OptanePlatform,
    }
    if name in simple:
        return simple[name](config)
    for variant in ZnGVariant:
        if variant.value == name:
            return ZnGPlatform(variant, config)
    raise ValueError(f"unknown platform {name!r}; known: {['GDDR5'] + PLATFORM_NAMES}")
