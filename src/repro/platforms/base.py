"""Common platform machinery: GPU core, MMU, shared L2 and the request path.

Every evaluated platform shares the GPU-side path (Fig. 2): SM -> coalescer ->
L1D -> TLB/MMU -> interconnect -> shared L2 -> *memory side*.  Subclasses
implement :meth:`_service_l2_miss` and :meth:`_service_write` to describe
their memory side: memory controllers in front of GDDR5 or Optane
(``platforms.gddr5.ControllerMemoryPlatform``, shared by GDDR5, Hetero and
Optane), HybridGPU's embedded SSD, or ZnG's flash controllers.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import asdict, dataclass, field
from typing import Dict, Mapping, Optional

from repro.config import GPU_FREQ_HZ, PlatformConfig, default_config
from repro.gpu.interconnect import Interconnect
from repro.gpu.l2cache import SharedL2Cache
from repro.gpu.mmu import MMU
from repro.gpu.sm import GPUCore, GPUExecutionResult, SMStatistics
from repro.sim.stats import StatsCollector
from repro.workloads.trace import WorkloadTrace


@dataclass
class PlatformResult:
    """Everything a bench needs from one platform x workload run."""

    platform: str
    workload: str
    execution: GPUExecutionResult
    stats: StatsCollector
    latency_breakdown: Dict[str, float] = field(default_factory=dict)
    flash_array_read_bandwidth_gbps: float = 0.0
    flash_array_total_bandwidth_gbps: float = 0.0
    memory_bandwidth_gbps: float = 0.0
    l2_hit_rate: float = 0.0
    extra: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.execution.ipc

    @property
    def cycles(self) -> float:
        return self.execution.cycles

    def breakdown_fractions(self) -> Dict[str, float]:
        total = sum(self.latency_breakdown.values())
        if total <= 0:
            return {}
        return {k: v / total for k, v in self.latency_breakdown.items()}

    # -- serialisation and aggregation ---------------------------------------
    #
    # Sweep workers ship results across process boundaries and the on-disk
    # result cache stores them as JSON; both need a lossless plain-data form.

    def to_record(self) -> Dict[str, object]:
        """A JSON-serialisable record that :meth:`from_record` restores."""
        return {
            "platform": self.platform,
            "workload": self.workload,
            "execution": {
                "cycles": self.execution.cycles,
                "instructions": self.execution.instructions,
                "memory_requests": self.execution.memory_requests,
                "ipc": self.execution.ipc,
                "events": self.execution.events,
                "per_sm": {str(k): asdict(v) for k, v in self.execution.per_sm.items()},
            },
            "stats": self.stats.to_dict(),
            "latency_breakdown": dict(self.latency_breakdown),
            "flash_array_read_bandwidth_gbps": self.flash_array_read_bandwidth_gbps,
            "flash_array_total_bandwidth_gbps": self.flash_array_total_bandwidth_gbps,
            "memory_bandwidth_gbps": self.memory_bandwidth_gbps,
            "l2_hit_rate": self.l2_hit_rate,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_record(cls, record: Mapping[str, object]) -> "PlatformResult":
        """Rebuild a result from a :meth:`to_record` payload.

        Every field is required: a missing one raises ``KeyError``, which the
        result cache treats as a corrupt entry to drop and recompute.
        """
        execution = dict(record["execution"])
        per_sm = {
            int(sm_id): SMStatistics(**fields)
            for sm_id, fields in dict(execution["per_sm"]).items()
        }
        return cls(
            platform=str(record["platform"]),
            workload=str(record["workload"]),
            execution=GPUExecutionResult(
                cycles=float(execution["cycles"]),
                instructions=int(execution["instructions"]),
                memory_requests=int(execution["memory_requests"]),
                ipc=float(execution["ipc"]),
                events=int(execution["events"]),
                per_sm=per_sm,
            ),
            stats=StatsCollector.from_dict(dict(record["stats"])),
            latency_breakdown=dict(record["latency_breakdown"]),
            flash_array_read_bandwidth_gbps=float(
                record["flash_array_read_bandwidth_gbps"]),
            flash_array_total_bandwidth_gbps=float(
                record["flash_array_total_bandwidth_gbps"]),
            memory_bandwidth_gbps=float(record["memory_bandwidth_gbps"]),
            l2_hit_rate=float(record["l2_hit_rate"]),
            extra=dict(record["extra"]),
        )


class GPUSSDPlatform(ABC):
    """Base class wiring the GPU front end to a platform-specific memory side."""

    name = "abstract"

    # ------------------------------------------------------------------
    # Uniform build -> run -> result entry point
    # ------------------------------------------------------------------
    @staticmethod
    def build(name: str, config: Optional[PlatformConfig] = None) -> "GPUSSDPlatform":
        """Instantiate any evaluation platform by name (``GDDR5``, ``ZnG``...)."""
        from repro.platforms.zng import build_platform

        return build_platform(name, config)

    @classmethod
    def execute(
        cls,
        name: str,
        workload: WorkloadTrace,
        config: Optional[PlatformConfig] = None,
    ) -> PlatformResult:
        """Build a fresh platform, run one workload, return the result record.

        This is the single entry point the sweep runner (and anything else
        that fans out platform x workload cells) goes through; a fresh
        platform per call keeps runs independent and deterministic.
        """
        return cls.build(name, config).run(workload)

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        # The ZnG variants run with their config deltas applied.
        from repro.platforms.zng import platform_config

        self.config = platform_config(
            self.name, config if config is not None else default_config()
        )
        self.gpu = GPUCore(self.config.gpu)
        self.mmu = MMU(self.config.gpu)
        self.l2 = self._build_l2()
        self.noc = Interconnect(self.config.gpu, num_destinations=self.l2.banks)
        self.stats = StatsCollector()
        self.page_size = self.config.gpu.page_size_bytes
        # Every coalesced access moves one request of the coalescer's size.
        self.request_bytes = self.config.gpu.memory_request_bytes
        # The request path runs once per coalesced access; bind its counters
        # and the latency histogram once instead of a dict lookup per event.
        # Every request is a read or a write, and every write is served
        # below the L2, so ``requests`` and ``writes_below_l2`` are computed
        # from the read and write counts when read.  ``requests`` is declared
        # first to keep its place in the record.
        stats = self.stats
        stats.counter("requests")
        self._ctr_reads = stats.counter("read_requests")
        self._ctr_writes = stats.counter("write_requests")
        self._ctr_l2_hits = stats.counter("l2_hits")
        self._ctr_l2_misses = stats.counter("l2_misses")
        stats.derived("requests", (self._ctr_reads, self._ctr_writes))
        stats.derived("writes_below_l2", (self._ctr_writes,))
        self._hist_latency = stats.histogram("request_latency")
        # The read predictor trained on every L2 read, if the platform has one.
        self.prefetcher = None

    # ------------------------------------------------------------------
    # Hooks for subclasses
    # ------------------------------------------------------------------
    def _build_l2(self) -> SharedL2Cache:
        """Default L2: the conventional 6 MB SRAM cache."""
        return SharedL2Cache.from_gpu_config(self.config.gpu)

    @abstractmethod
    def _service_l2_miss(
        self,
        address: int,
        physical_address: int,
        pc: int,
        now: float,
        breakdown: Dict[str, float],
    ) -> float:
        """Serve a read that missed the shared L2; return its completion cycle.

        ``address`` is the request's virtual address and ``physical_address``
        the MMU's translation of it.  ``breakdown`` is the cell's running
        latency breakdown (a ``defaultdict(float)``).  Implementations add
        each positive per-component latency to it and are responsible for
        filling the L2 if their fill policy says so.
        """

    @abstractmethod
    def _service_write(
        self,
        address: int,
        physical_address: int,
        now: float,
        breakdown: Dict[str, float],
    ) -> float:
        """Serve a write below the L2; return its completion cycle."""

    def prepare(self, workload: WorkloadTrace) -> None:
        """Load the data set / set up mappings before execution (optional)."""

    @staticmethod
    def resident_pages(workload: WorkloadTrace) -> set:
        """Virtual pages the workload touches (what needs to be resident)."""
        return set(workload.page_read_counts) | set(workload.page_write_counts)

    # ------------------------------------------------------------------
    # The shared request path
    # ------------------------------------------------------------------
    def memory_access(
        self, address: int, is_write: bool, warp_id: int, pc: int, now: float
    ) -> float:
        """The callback handed to the GPU core for every coalesced request.

        ``address`` is the virtual address of one ``request_bytes`` segment
        issued by warp ``warp_id`` at instruction ``pc``.  Returns the
        request's completion cycle.  Each step charges its positive latency
        straight into the cell's breakdown totals.
        """
        breakdown = self.stats.breakdown
        if is_write:
            self._ctr_writes.value += 1
        else:
            self._ctr_reads.value += 1

        # 1. Virtual-address translation through the shared TLB/MMU.
        physical_address, latency, tlb_hit = self.mmu.translate(address, now)
        if latency > 0:
            breakdown["tlb" if tlb_hit else "mmu"] += latency
        time = now + latency

        # 2. Interconnect hop from the SM to the target L2 bank.
        l2 = self.l2
        request_bytes = self.request_bytes
        arrival = self.noc.send((address // l2.line_bytes) % l2.banks, request_bytes, time)
        latency = arrival - time
        if latency > 0:
            breakdown["l1_l2_net"] += latency
        time = arrival

        # 3. Shared L2 access.
        hit, ready = l2.access(address, is_write, time)
        latency = ready - time
        if latency > 0:
            breakdown["l2_cache"] += latency
        time = ready

        if is_write:
            completion = self._service_write(address, physical_address, time, breakdown)
        else:
            # A prefetch predictor trains on the full read stream, L2 hits
            # and misses alike.
            prefetcher = self.prefetcher
            if prefetcher is not None:
                prefetcher.train(pc, warp_id, address)
            if hit:
                self._ctr_l2_hits.value += 1
                completion = time
            else:
                self._ctr_l2_misses.value += 1
                completion = self._service_l2_miss(
                    address, physical_address, pc, time, breakdown)

        if completion < time:
            completion = time
        self._hist_latency.add(completion - now)
        return completion

    # ------------------------------------------------------------------
    # Execution driver
    # ------------------------------------------------------------------
    def run(self, workload: WorkloadTrace) -> PlatformResult:
        """Run a workload trace to completion and collect the result record."""
        self.prepare(workload)
        execution = self.gpu.run(workload.warps, self.memory_access)
        return self._build_result(workload.name, execution)

    def _build_result(self, workload_name: str, execution: GPUExecutionResult) -> PlatformResult:
        seconds = execution.cycles / GPU_FREQ_HZ if execution.cycles else 0.0
        # Every request moves ``request_bytes``.
        bytes_served = int(self.stats.get("requests")) * self.request_bytes
        memory_bw = (bytes_served / seconds / 1e9) if seconds else 0.0
        sms = self.gpu.sms
        mshrs = [sm.mshr for sm in sms]
        l2 = self.l2
        # Component counters the rest of the record cannot derive.  The L2's
        # hits and misses count every access, writes included; ``stats``
        # counts reads only.
        extra = {
            "mshr.secondary_misses": float(sum(m.secondary_misses for m in mshrs)),
            "mshr.stalls": float(sum(m.stalls for m in mshrs)),
            "l2.hits": float(l2.hits),
            "l2.misses": float(l2.misses),
            "l2.prefetch_insertions": float(l2.prefetch_insertions),
            "wait.noc_links_cycles": float(self.noc.links.wait_cycles),
            "wait.sm_issue_cycles": float(sum(sm.issue_port.wait_cycles for sm in sms)),
            "wait.l2_ports_cycles": float(sum(port.wait_cycles for port in l2._bank_ports)),
        }
        result = PlatformResult(
            platform=self.name,
            workload=workload_name,
            execution=execution,
            stats=self.stats,
            latency_breakdown=dict(self.stats.breakdown),
            memory_bandwidth_gbps=memory_bw,
            l2_hit_rate=l2.hit_rate,
            flash_array_read_bandwidth_gbps=self._flash_read_bandwidth_gbps(execution.cycles),
            flash_array_total_bandwidth_gbps=self._flash_total_bandwidth_gbps(execution.cycles),
            extra=extra,
        )
        self._annotate_result(result)
        return result

    def _flash_read_bandwidth_gbps(self, cycles: float) -> float:
        """Achieved Z-NAND array read bandwidth; platforms without flash return 0."""
        return 0.0

    def _flash_total_bandwidth_gbps(self, cycles: float) -> float:
        return 0.0

    def _annotate_result(self, result: PlatformResult) -> None:
        """Subclasses add platform-specific extras (buffer hit rates, GC counts...)."""

    # ------------------------------------------------------------------
    def describe(self) -> Dict[str, object]:
        """A dictionary describing the platform configuration (for reports)."""
        return {
            "name": self.name,
            "l2_size_bytes": self.l2.size_bytes,
            "l2_read_only": self.l2.read_only,
            "num_sms": self.config.gpu.num_sms,
        }
