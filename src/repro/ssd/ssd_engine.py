"""The SSD engine: request dispatcher, embedded cores and internal DRAM buffer.

This models the controller of a commercial SSD and of HybridGPU (Fig. 1a):

* a *request dispatcher* between the GPU network and the controller,
* 2-5 low-power embedded cores that run the FTL — their limited request rate
  is what makes the engine account for ~67 % of HybridGPU's memory latency
  (Fig. 4d),
* a single-package internal DRAM buffer on a 32-bit bus used as a read/write
  cache in front of the Z-NAND arrays.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.config import SSDEngineConfig, ZNANDConfig, bandwidth_to_bytes_per_cycle, ns_to_cycles
from repro.gpu.cache import SetAssociativeCache
from repro.sim.engine import BandwidthResource, Resource
from repro.ssd.ftl_firmware import PageMappedFTL
from repro.ssd.znand import ZNANDArray


class SSDEngine:
    """Dispatcher + embedded-core FTL execution + DRAM buffer in front of flash."""

    def __init__(
        self,
        config: SSDEngineConfig,
        array: ZNANDArray,
        ftl: Optional[PageMappedFTL] = None,
        buffer_line_bytes: int = 4096,
    ) -> None:
        self.config = config
        self.array = array
        self.ftl = ftl or PageMappedFTL(array)
        self.page_size = array.config.page_size_bytes

        self.dispatcher = Resource("ssd_dispatcher", ports=1)
        self.engine_cores = Resource("ssd_engine_cores", ports=config.embedded_cores)
        self.dram_buffer = SetAssociativeCache(
            name="ssd_dram_buffer",
            size_bytes=config.dram_buffer_bytes,
            assoc=16,
            line_bytes=buffer_line_bytes,
        )
        self.dram_bus = BandwidthResource(
            name="ssd_dram_bus",
            bytes_per_cycle=bandwidth_to_bytes_per_cycle(
                config.dram_buffer_bandwidth_bytes_per_s
            ),
            ports=1,
            fixed_latency=ns_to_cycles(config.dram_buffer_latency_ns),
        )
        self.requests_serviced = 0
        self.buffer_hits = 0
        # The component latencies below are fixed by the config; service()
        # runs once per HybridGPU request, so it reads them precomputed.
        self._dispatcher_cycles = self.dispatcher_service_cycles
        self._engine_cycles = self.engine_service_cycles
        self._ftl_lookup_cycles = self.ftl_lookup_cycles

    # -- component latencies ----------------------------------------------------
    @property
    def dispatcher_service_cycles(self) -> float:
        return ns_to_cycles(1e3 / self.config.dispatcher_requests_per_us)

    @property
    def engine_service_cycles(self) -> float:
        """Core occupancy per request (throughput limit)."""
        return ns_to_cycles(self.config.engine_service_ns)

    @property
    def ftl_lookup_cycles(self) -> float:
        """Pipelined FTL lookup latency added to every request."""
        return ns_to_cycles(self.config.ftl_lookup_latency_ns)

    # -- request service ----------------------------------------------------------
    def service(
        self,
        byte_address: int,
        size: int,
        is_write: bool,
        now: float,
        breakdown: Dict[str, float],
    ) -> float:
        """Run one memory request through dispatcher -> engine -> buffer -> flash.

        Returns the completion cycle.  Each positive component latency is
        added to ``breakdown`` (a ``defaultdict(float)``), in path order.
        """
        self.requests_serviced += 1

        # 1. Request dispatcher (single queue between GPU network and SSD).
        dispatcher_cycles = self._dispatcher_cycles
        time = self.dispatcher.acquire(now, dispatcher_cycles) + dispatcher_cycles
        if time > now:
            breakdown["ssd_dispatcher"] += time - now

        # 2. Embedded cores execute the FTL for this request: the core is
        # occupied for the throughput-limiting service time and the (pipelined)
        # mapping-table lookup adds latency on top.
        engine_cycles = self._engine_cycles
        engine_done = (self.engine_cores.acquire(time, engine_cycles) + engine_cycles
                       + self._ftl_lookup_cycles)
        if engine_done > time:
            breakdown["ssd_engine"] += engine_done - time
        time = engine_done

        lpn = byte_address // self.page_size
        page_address = lpn * self.page_size

        # 3. DRAM buffer lookup.
        if self.dram_buffer.lookup(page_address):
            self.buffer_hits += 1
            if is_write:
                self.dram_buffer.mark_dirty(page_address)
        else:
            # 4. Flash access through the firmware FTL (whole 4 KB page).
            if is_write:
                result = self.ftl.write(lpn, time)
            else:
                result = self.ftl.read(lpn, time)
            if result.array_cycles > 0:
                breakdown["flash_array"] += result.array_cycles
            if result.transfer_cycles > 0:
                breakdown["flash_channel"] += result.transfer_cycles
            time = result.completion_cycle
            # Fill the DRAM buffer with the page, evicting dirty pages to flash.
            evicted = self.dram_buffer.insert(page_address, dirty=is_write)
            if evicted is not None and evicted.dirty:
                # The eviction happens in the background; it occupies the
                # flash backbone but does not delay this request's completion.
                self.ftl.write(evicted.address // self.page_size, time)
        done = self.dram_bus.transfer(time, size)
        if done > time:
            breakdown["dram_buffer"] += done - time
        return done

    @property
    def buffer_hit_rate(self) -> float:
        if self.requests_serviced == 0:
            return 0.0
        return self.buffer_hits / self.requests_serviced

    def reset_statistics(self) -> None:
        self.dispatcher.reset()
        self.engine_cores.reset()
        self.dram_bus.reset()
        self.dram_buffer.clear()
        self.requests_serviced = 0
        self.buffer_hits = 0
