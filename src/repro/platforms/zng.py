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
from typing import Callable, Dict, List, Optional, Tuple, Type

from repro.config import PlatformConfig
from repro.configspace.presets import EVAL_PLATFORMS
from repro.core.helper_gc import HelperThreadGC
from repro.core.register_cache import FlashRegisterCache
from repro.core.register_network import build_register_network
from repro.core.zero_overhead_ftl import ZeroOverheadFTL
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


#: The ZnG variants by evaluation name.
_VARIANTS = {variant.value: variant for variant in ZnGVariant}


def platform_config(name: str, config: PlatformConfig) -> PlatformConfig:
    """The config platform ``name`` runs with, given the caller's ``config``.

    The ZnG variants replace the flash bus with the mesh network (Section
    III-B).  The write-optimised ones also size each plane's registers by the
    write-cache knob (Section IV); the others buffer writes in the plane's own
    registers over SWnet, so their register cache takes the plane's register
    count and ``swnet``.  These deltas win over a direct override of the
    fields they set.  Every other platform runs ``config`` as is.
    """
    variant = _VARIANTS.get(name)
    if variant is None:
        return config
    znand = replace(config.znand, flash_network_type="mesh")
    register_cache = config.register_cache
    if variant.has_write_optimization:
        znand = replace(znand, registers_per_plane=register_cache.registers_per_plane)
    else:
        register_cache = replace(
            register_cache,
            registers_per_plane=znand.registers_per_plane,
            interconnect="swnet",
        )
    return replace(config, znand=znand, register_cache=register_cache)


class ZnGPlatform(GPUSSDPlatform):
    """GPU whose entire memory is Z-NAND reached through per-channel controllers."""

    def __init__(
        self,
        variant: ZnGVariant = ZnGVariant.FULL,
        config: Optional[PlatformConfig] = None,
    ) -> None:
        self.variant = variant
        self.name = variant.value
        # The base constructor applies the variant's config deltas (the
        # mesh flash network and the register pool, see platform_config).
        super().__init__(config)

        znand = self.config.znand
        self.flash_network = FlashNetwork(znand)
        self.array = ZNANDArray(znand, network=self.flash_network)
        self.controllers = FlashControllerArray(self.array)
        self.ftl = ZeroOverheadFTL(self.array, self.config.ftl)
        self.helper_gc = HelperThreadGC(self.ftl, self.array)
        self.ftl.helper_gc = self.helper_gc
        self.endurance = EnduranceModel(self.array, znand)

        if variant.has_read_optimization:
            from repro.core.prefetch_policies import build_prefetcher

            self.prefetcher = build_prefetcher(
                self.config.prefetch.policy,
                self.config.prefetch,
                page_size_bytes=znand.page_size_bytes,
                line_bytes=self.config.gpu.l2_line_bytes,
            )

        # Every Z-NAND program goes through a plane register, so even the base
        # design buffers writes in the plane's own (2) registers over SWnet.
        # The write optimisation turns them into a larger, package-wide
        # fully-associative cache reached over the NiF/FCnet/SWnet
        # interconnect.  platform_config sizes and wires both.
        register_config = self.config.register_cache
        self.register_cache = FlashRegisterCache(
            self.array,
            register_config,
            network=build_register_network(self.array, register_config),
            scope="package" if variant.has_write_optimization else "plane",
        )

        self.page_size_flash = znand.page_size_bytes
        self.line_bytes = self.config.gpu.l2_line_bytes
        # L2 evictions caused by thrashing spills since the last read miss.
        self._spill_evictions: List[Tuple[int, int]] = []
        # Only read-optimised variants spill thrashing registers into the L2.
        self._spill_fn = self._l2_spiller() if variant.has_read_optimization else None

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
    # Read path (the base request path trains the predictor, Section IV-B)
    # ------------------------------------------------------------------
    def _service_l2_miss(
        self,
        address: int,
        physical_address: int,
        pc: int,
        now: float,
        breakdown: Dict[str, float],
    ) -> float:
        virtual_page = address // self.page_size
        ppn = self.ftl.translate_read(virtual_page)
        array = self.array
        geometry = array.geometry
        plane = geometry.plane_of_ppn(ppn)
        register_cache = self.register_cache
        time = now

        # If the latest copy of the page is still dirty in a flash register,
        # serve it from the register over the flash network.  The register
        # group is read directly; keep in lockstep with
        # FlashRegisterCache.group_of_plane and FlashRegisterCache.holds.
        if register_cache.scope == "package":
            registers = register_cache._packages.get(plane // register_cache.planes_per_package)
        else:
            registers = register_cache._packages.get(plane)
        if registers is not None and virtual_page in registers:
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

        # Decide how much of the flash page to pull into the L2.
        prefetcher = self.prefetcher
        if prefetcher is None:
            fetch_bytes = self.request_bytes
        else:
            fetch_bytes = prefetcher.on_miss(pc)

        sensed, completion = self.controllers.read(ppn, time, transfer_bytes=fetch_bytes)
        array_cycles = array.read_array_cycles
        transfer_cycles = completion - sensed
        if array_cycles > 0:
            breakdown["flash_array"] += array_cycles
        if transfer_cycles > 0:
            breakdown["flash_network"] += transfer_cycles
        controller_cycles = (completion - time) - array_cycles - transfer_cycles
        if controller_cycles > 0:
            breakdown["flash_controller"] += controller_cycles
        self.stats.add("flash_page_reads")

        # Fill the L2: the demand line plus (for prefetches, which fetch more
        # than a line) the neighbouring lines of the page up to the chosen
        # granularity.
        l2 = self.l2
        if prefetcher is None:
            l2.fill(address, completion, prefetched=False)
            return completion
        if fetch_bytes > self.line_bytes:
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
        # The access monitor sees every L2 eviction in the order it happened:
        # those of earlier thrashing spills, then this fill's.
        spilled = self._spill_evictions
        if spilled:
            evictions = spilled + evictions
            spilled.clear()
        if evicted is not None:
            evictions.append(evicted)
        prefetcher.observe_evictions(evictions)
        return completion

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def _program_log_page(self, virtual_page: int, now: float, transfer_bytes: Optional[int] = None) -> float:
        """Allocate a log page for the virtual page and program it."""
        ppn, ready, gc_performed = self.ftl.allocate_write(virtual_page, now)
        if gc_performed:
            self.stats.add("helper_gc_merges")
        _, completion = self.controllers.program(ppn, ready, transfer_bytes=transfer_bytes)
        return completion

    def _l2_spiller(self) -> Callable[[int, float], float]:
        """The thrashing escape hatch: pin a dirty page's lines in the L2.

        A closure over what it needs rather than a bound method: the platform
        keeps it, and a bound method would put the platform in a reference
        cycle, so it would outlive its last use until a full collection.
        """
        l2 = self.l2
        stats = self.stats
        page_size = self.page_size_flash
        line_bytes = self.line_bytes
        pinned_lines = self.config.register_cache.l2_pinned_lines
        # The access monitor learns of these evictions at the next L2 read miss.
        spill_evictions = self._spill_evictions

        def spill_to_l2(virtual_page: int, now: float) -> float:
            page_base = virtual_page * page_size
            addresses = [page_base + offset for offset in range(0, page_size, line_bytes)]
            spill_evictions.extend(l2.pin_lines(addresses[:pinned_lines], now))
            stats.add("l2_spills")
            return now + l2.write_latency_cycles * len(addresses)

        return spill_to_l2

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
        ready, register_hit, evicted_page = self.register_cache.write(
            virtual_page,
            target_plane,
            self.request_bytes,
            now,
            self._program_log_page,
            self._spill_fn,
        )
        if ready > now:
            breakdown["flash_register"] += ready - now
        stats = self.stats
        if register_hit:
            stats.add("register_write_hits")
        else:
            stats.add("register_write_misses")
        if evicted_page is not None:
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

#: The seven platforms of Fig. 10 (GDDR5, the reference, is not one of them).
#: A list, not the presets' tuple, because callers concatenate it.
PLATFORM_NAMES = list(EVAL_PLATFORMS)


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
    if name in _VARIANTS:
        return ZnGPlatform(_VARIANTS[name], config)
    raise ValueError(f"unknown platform {name!r}; known: {['GDDR5'] + PLATFORM_NAMES}")
