"""Configuration objects for the ZnG reproduction.

Every constant in this module is taken from Table I of the paper (or from the
text surrounding it) and expressed in the units used throughout the simulator:

* time is measured in **GPU core cycles** at ``GPU_FREQ_HZ`` (1.2 GHz),
* data sizes are in bytes,
* bandwidths are in bytes per second (converted to bytes/cycle when needed).

The configuration dataclasses are intentionally plain: they carry numbers, not
behaviour.  Components receive a config object and derive their timing from it
so that sensitivity studies (larger L2, more registers, wider flash network)
only need to change a config value.

Every field is declared through :func:`table_field`, which attaches schema
metadata — the unit, the Table I / section provenance, optional value bounds
and choices, and (for the paper's sensitivity axes) the canonical ablation
values.  :mod:`repro.configspace` derives the typed override schema, the
``python -m repro config`` CLI and the sweep presets from this metadata, so a
field added here without metadata fails the schema-drift gate in
``tests/configspace``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Sequence

# ---------------------------------------------------------------------------
# Global clock
# ---------------------------------------------------------------------------

#: GPU core frequency (Table I: SM/freq. 16 / 1.2 GHz).
GPU_FREQ_HZ: float = 1.2e9

#: Convenience: one nanosecond expressed in GPU cycles.
CYCLES_PER_NS: float = GPU_FREQ_HZ / 1e9


def ns_to_cycles(nanoseconds: float) -> float:
    """Convert a latency in nanoseconds to GPU core cycles."""
    return nanoseconds * CYCLES_PER_NS


def us_to_cycles(microseconds: float) -> float:
    """Convert a latency in microseconds to GPU core cycles."""
    return ns_to_cycles(microseconds * 1e3)


def bandwidth_to_bytes_per_cycle(bytes_per_second: float) -> float:
    """Convert a bandwidth in bytes/second to bytes per GPU cycle."""
    return bytes_per_second / GPU_FREQ_HZ


# ---------------------------------------------------------------------------
# Schema-carrying field constructor
# ---------------------------------------------------------------------------


def table_field(
    default,
    unit: str,
    doc: str,
    *,
    choices: Optional[Sequence[object]] = None,
    minimum: Optional[float] = None,
    maximum: Optional[float] = None,
    ablation: Optional[Sequence[object]] = None,
):
    """A dataclass field carrying the config-schema metadata.

    ``unit`` names the physical unit ("bytes", "cycles", "ns", "count",
    "ratio", "enum", ...), ``doc`` records where the default comes from
    (Table I, a section, or modelling rationale).  ``choices`` restricts
    string enums, ``minimum``/``maximum`` bound numeric overrides, and
    ``ablation`` lists the canonical sensitivity-axis values swept by the
    paper's evaluation (surfaced by ``repro.configspace.ablation_axes``).
    """
    metadata = {"unit": unit, "doc": doc}
    if choices is not None:
        metadata["choices"] = tuple(choices)
    if minimum is not None:
        metadata["minimum"] = minimum
    if maximum is not None:
        metadata["maximum"] = maximum
    if ablation is not None:
        metadata["ablation"] = tuple(ablation)
    return field(default=default, metadata=metadata)


# ---------------------------------------------------------------------------
# GPU configuration (Table I, left column)
# ---------------------------------------------------------------------------


@dataclass
class GPUConfig:
    """GTX580-like GPU used by the paper (MacSim configuration)."""

    num_sms: int = table_field(
        16, "count", "Table I: 16 SMs at 1.2 GHz.", minimum=1)
    frequency_hz: float = table_field(
        GPU_FREQ_HZ, "Hz", "Table I: GPU core clock (1.2 GHz).", minimum=1.0)
    max_warps_per_sm: int = table_field(
        80, "count", "Table I: up to 80 resident warps per SM.", minimum=1)
    threads_per_warp: int = table_field(
        32, "count", "Table I: 32 threads per warp (SIMT width).", minimum=1)

    # L1 data cache: 1-cycle, 64-set, 6-way, 48KB, LRU, private.
    l1_size_bytes: int = table_field(
        48 * 1024, "bytes", "Table I: 48 KB private L1D per SM.", minimum=1)
    l1_assoc: int = table_field(
        6, "count", "Table I: 6-way set-associative L1D.", minimum=1)
    l1_sets: int = table_field(
        64, "count", "Table I: 64 L1D sets (sets x assoc x line == size).",
        minimum=1)
    l1_line_bytes: int = table_field(
        128, "bytes", "Table I: 128 B cache lines throughout the hierarchy.",
        minimum=1)
    l1_latency_cycles: int = table_field(
        1, "cycles", "Table I: 1-cycle L1D access.", minimum=0)
    l1_mshr_entries: int = table_field(
        32, "count", "MSHRs per L1D (outstanding-miss limit).", minimum=1)

    # Shared L2 cache: 1-cycle, 6 banks, 1024-set, 8-way, 6MB, LRU.
    l2_size_bytes: int = table_field(
        6 * 1024 * 1024, "bytes", "Table I: 6 MB shared SRAM L2.", minimum=1)
    l2_assoc: int = table_field(
        8, "count", "Table I: 8-way set-associative L2.", minimum=1)
    l2_banks: int = table_field(
        6, "count", "Table I: 6 L2 banks (one per memory controller).",
        minimum=1)
    l2_line_bytes: int = table_field(
        128, "bytes", "Table I: 128 B L2 lines.", minimum=1)
    l2_read_latency_cycles: int = table_field(
        1, "cycles", "Table I: 1-cycle SRAM L2 read.", minimum=0)
    l2_write_latency_cycles: int = table_field(
        1, "cycles", "Table I: 1-cycle SRAM L2 write.", minimum=0)

    # Interconnect between SMs and L2 banks.
    noc_latency_cycles: int = table_field(
        20, "cycles", "SM-to-L2 crossbar hop latency.", minimum=0)
    noc_bytes_per_cycle: float = table_field(
        384.0, "bytes/cycle",
        "NoC throughput: 384-bit bus per direction, generous.", minimum=0.0)

    # Memory-side request size (the paper: "memory access size in GPU is 128B").
    memory_request_bytes: int = table_field(
        128, "bytes",
        "Section II: memory access size in the GPU is 128 B.", minimum=1)

    # TLB / MMU.
    tlb_entries: int = table_field(
        512, "count", "Shared TLB entries in front of the MMU.", minimum=1)
    page_size_bytes: int = table_field(
        4096, "bytes", "Virtual-memory page size (matches the flash page).",
        minimum=1)
    page_walk_threads: int = table_field(
        32, "count", "Concurrent page-walk threads in the MMU.", minimum=1)
    page_walk_latency_cycles: int = table_field(
        400, "cycles",
        "Section II: a page-table walk costs hundreds of cycles.", minimum=0)
    page_walk_cache_entries: int = table_field(
        256, "count", "Page-walk cache entries.", minimum=1)
    page_walk_cache_latency_cycles: int = table_field(
        4, "cycles", "Page-walk cache hit latency.", minimum=0)

    @property
    def total_max_warps(self) -> int:
        return self.num_sms * self.max_warps_per_sm


# ---------------------------------------------------------------------------
# DRAM technology models (Figures 1b / 3 / 4c)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DRAMTechnology:
    """Per-technology constants used in the motivation figures."""

    name: str
    package_capacity_gb: float
    power_w_per_gb: float
    peak_bandwidth_gbps: float  # accumulated bandwidth of the configuration
    access_latency_ns: float


#: GPU DRAM: 12 packages on a 384-bit bus through 6 memory controllers.
GDDR5 = DRAMTechnology(
    name="GDDR5",
    package_capacity_gb=1.0,
    power_w_per_gb=5.00,
    peak_bandwidth_gbps=341.3,
    access_latency_ns=100.0,
)

DDR4 = DRAMTechnology(
    name="DDR4",
    package_capacity_gb=2.0,
    power_w_per_gb=0.38,
    peak_bandwidth_gbps=25.6,
    access_latency_ns=80.0,
)

LPDDR4 = DRAMTechnology(
    name="LPDDR4",
    package_capacity_gb=4.0,
    power_w_per_gb=0.20,
    peak_bandwidth_gbps=11.2,
    access_latency_ns=120.0,
)

#: Z-NAND package constants used in the density/power comparison (Fig. 3).
ZNAND_TECH = DRAMTechnology(
    name="Z-NAND",
    package_capacity_gb=64.0,
    power_w_per_gb=0.02,
    peak_bandwidth_gbps=3.2,
    access_latency_ns=3000.0,
)

DRAM_TECHNOLOGIES: Dict[str, DRAMTechnology] = {
    t.name: t for t in (GDDR5, DDR4, LPDDR4, ZNAND_TECH)
}


# ---------------------------------------------------------------------------
# Z-NAND / SSD configuration (Table I, middle column)
# ---------------------------------------------------------------------------


@dataclass
class ZNANDConfig:
    """Z-NAND flash backbone of the 800GB ZSSD-like device."""

    channels: int = table_field(
        16, "count", "Table I: 16 flash channels.", minimum=1,
        ablation=(8, 16, 32))
    packages_per_channel: int = table_field(
        1, "count", "Table I: one package per channel.", minimum=1)
    dies_per_package: int = table_field(
        8, "count", "Table I: 8 dies per package.", minimum=1)
    planes_per_die: int = table_field(
        8, "count", "Table I: 8 planes per die.", minimum=1)
    blocks_per_plane: int = table_field(
        1024, "count", "Table I: 1024 blocks per plane.", minimum=1)
    pages_per_block: int = table_field(
        384, "count", "Table I: 384 pages per block.", minimum=1)
    page_size_bytes: int = table_field(
        4096, "bytes", "Table I: 4 KB flash page.", minimum=1)
    cell_type: str = table_field(
        "SLC", "enum", "Section II-B: Z-NAND stores one bit per cell (SLC).",
        choices=("SLC", "MLC", "TLC"))

    # Z-NAND timing (Section II-B): read 3us, program 100us; erase is a block
    # operation in the low hundreds of microseconds for SLC.
    read_latency_us: float = table_field(
        3.0, "us", "Section II-B: 3 us Z-NAND page read.", minimum=0.0)
    program_latency_us: float = table_field(
        100.0, "us", "Section II-B: 100 us Z-NAND page program.", minimum=0.0)
    erase_latency_us: float = table_field(
        500.0, "us",
        "SLC block erase in the low hundreds of microseconds.", minimum=0.0)

    # Flash interface: ONFI 800 MT/s, 1 byte wide for a conventional channel.
    interface_mt_per_s: float = table_field(
        800.0, "MT/s", "ONFI NV-DDR2 interface speed.", minimum=1.0)
    channel_bus_bytes: int = table_field(
        1, "bytes", "Conventional ONFI channel: 1-byte data bus.", minimum=1)

    # Cache/data registers per plane (Table I: register 2/8 per plane; the
    # baseline Z-NAND exposes 2, ZnG raises it to 8).
    registers_per_plane: int = table_field(
        2, "count",
        "Table I: 2 cache/data registers per plane in baseline Z-NAND "
        "(ZnG raises the write-cache pool to 8 via register_cache).",
        minimum=1)

    # I/O ports per package and the width of the NiF / mesh flash network.
    io_ports_per_package: int = table_field(
        2, "count", "I/O ports per flash package.", minimum=1)
    flash_network_bus_bytes: int = table_field(
        8, "bytes",
        "Section III-B: widened (8-byte) link of ZnG's mesh flash network.",
        minimum=1, ablation=(1, 4, 8, 16))
    flash_network_type: str = table_field(
        "bus", "enum",
        "Flash-network structure: conventional shared bus, or ZnG's mesh "
        "(Section III-B).  ZnG platform presets pin this to 'mesh'.",
        choices=("bus", "mesh"))

    # Over-provisioning used for log blocks by the zero-overhead FTL.
    overprovisioning_ratio: float = table_field(
        0.07, "ratio",
        "Section IV-A: ~7% over-provisioned blocks back the log area.",
        minimum=0.0, maximum=1.0)

    # Endurance (Section II-B): Z-NAND sustains 100k P/E cycles.
    pe_cycle_limit: int = table_field(
        100_000, "count", "Section II-B: 100k P/E-cycle SLC endurance.",
        minimum=1)

    @property
    def planes_per_channel(self) -> int:
        return self.packages_per_channel * self.dies_per_package * self.planes_per_die

    @property
    def total_planes(self) -> int:
        return self.channels * self.planes_per_channel

    @property
    def plane_capacity_bytes(self) -> int:
        return self.blocks_per_plane * self.pages_per_block * self.page_size_bytes

    @property
    def total_capacity_bytes(self) -> int:
        return self.total_planes * self.plane_capacity_bytes

    @property
    def read_latency_cycles(self) -> float:
        return us_to_cycles(self.read_latency_us)

    @property
    def program_latency_cycles(self) -> float:
        return us_to_cycles(self.program_latency_us)

    @property
    def erase_latency_cycles(self) -> float:
        return us_to_cycles(self.erase_latency_us)

    @property
    def channel_bandwidth_bytes_per_s(self) -> float:
        """Bandwidth of one conventional ONFI channel."""
        return self.interface_mt_per_s * 1e6 * self.channel_bus_bytes

    @property
    def flash_network_bandwidth_bytes_per_s(self) -> float:
        """Bandwidth of one link of the widened ZnG flash network."""
        return self.interface_mt_per_s * 1e6 * self.flash_network_bus_bytes

    @property
    def plane_read_bandwidth_bytes_per_s(self) -> float:
        """Sustained read bandwidth of a single plane (page / read latency)."""
        return self.page_size_bytes / (self.read_latency_us * 1e-6)

    @property
    def accumulated_read_bandwidth_bytes_per_s(self) -> float:
        """Accumulated flash-array read bandwidth across all planes."""
        return self.plane_read_bandwidth_bytes_per_s * self.total_planes


# ---------------------------------------------------------------------------
# SSD engine (HybridGPU / Hetero) configuration
# ---------------------------------------------------------------------------


@dataclass
class SSDEngineConfig:
    """Embedded SSD controller used by conventional SSDs and HybridGPU.

    The paper attributes ~67% of HybridGPU's access latency to the SSD engine:
    2-5 low-power embedded cores performing FTL at a limited request rate, and
    a single-package DRAM buffer on a 32-bit bus.
    """

    embedded_cores: int = table_field(
        4, "count", "Section II: 2-5 low-power embedded FTL cores.", minimum=1)
    ftl_lookup_latency_ns: float = table_field(
        500.0, "ns", "Firmware FTL lookup latency per request.", minimum=0.0)
    requests_per_core_per_us: float = table_field(
        10.0, "1/us",
        "Limited embedded-core compute for address translation.", minimum=0.001)

    dram_buffer_bytes: int = table_field(
        1 * 1024 * 1024 * 1024, "bytes",
        "Single-package internal DRAM buffer (1 GB).", minimum=1)
    dram_buffer_bus_bytes: int = table_field(
        4, "bytes", "Section II: 32-bit internal DRAM data bus.", minimum=1)
    dram_buffer_mt_per_s: float = table_field(
        2400.0, "MT/s", "Internal DRAM transfer rate.", minimum=1.0)
    dram_buffer_latency_ns: float = table_field(
        60.0, "ns", "Internal DRAM access latency.", minimum=0.0)

    # Request dispatcher between the GPU network and the SSD controller.
    dispatcher_latency_ns: float = table_field(
        100.0, "ns", "Request-dispatcher forwarding latency.", minimum=0.0)
    dispatcher_requests_per_us: float = table_field(
        64.0, "1/us", "Request-dispatcher throughput limit.", minimum=0.001)

    @property
    def dram_buffer_bandwidth_bytes_per_s(self) -> float:
        return self.dram_buffer_mt_per_s * 1e6 * self.dram_buffer_bus_bytes

    @property
    def engine_service_ns(self) -> float:
        """Per-request core occupancy (throughput limit of one embedded core)."""
        return 1e3 / self.requests_per_core_per_us

    @property
    def engine_throughput_bytes_per_s(self) -> float:
        """Peak request-processing bandwidth of the engine at 128 B requests."""
        requests_per_s = self.embedded_cores * self.requests_per_core_per_us * 1e6
        return requests_per_s * 128


# ---------------------------------------------------------------------------
# STT-MRAM L2 (ZnG read optimisation) configuration
# ---------------------------------------------------------------------------


@dataclass
class STTMRAMConfig:
    """ZnG's enlarged, read-optimised shared L2 cache (Table I, right column)."""

    size_bytes: int = table_field(
        24 * 1024 * 1024, "bytes",
        "Table I: 24 MB STT-MRAM L2 (4x the SRAM L2 in the same area).",
        minimum=1,
        ablation=(6 * 1024 * 1024, 12 * 1024 * 1024,
                  24 * 1024 * 1024, 48 * 1024 * 1024))
    read_latency_cycles: int = table_field(
        1, "cycles", "Table I: STT-MRAM reads are SRAM-fast (1 cycle).",
        minimum=0)
    write_latency_cycles: int = table_field(
        5, "cycles", "Table I: STT-MRAM writes are slower (5 cycles).",
        minimum=0)
    banks: int = table_field(
        6, "count", "Same 6-bank organisation as the SRAM L2.", minimum=1)
    assoc: int = table_field(
        8, "count", "8-way set-associative, as the SRAM L2.", minimum=1)
    line_bytes: int = table_field(
        128, "bytes", "128 B lines, as the SRAM L2.", minimum=1)


# ---------------------------------------------------------------------------
# Optane DC PMM configuration (the Optane baseline platform)
# ---------------------------------------------------------------------------


@dataclass
class OptaneConfig:
    """Optane DC PMM latency model (Table I: tRCD/tCL 190/8.9ns, tRP 763ns)."""

    controllers: int = table_field(
        6, "count", "Six memory controllers, as the GDDR5 subsystem.",
        minimum=1)
    t_rcd_ns: float = table_field(
        190.0, "ns", "Table I: Optane tRCD 190 ns.", minimum=0.0)
    t_cl_ns: float = table_field(
        8.9, "ns", "Table I: Optane tCL 8.9 ns.", minimum=0.0)
    t_rp_ns: float = table_field(
        763.0, "ns", "Table I: Optane tRP 763 ns.", minimum=0.0)
    read_bandwidth_gbps_total: float = table_field(
        39.0, "GB/s", "Aggregate Optane read bandwidth (~39 GB/s).",
        minimum=0.0)
    write_bandwidth_gbps_total: float = table_field(
        13.0, "GB/s", "Aggregate Optane write bandwidth (~13 GB/s).",
        minimum=0.0)
    access_granularity_bytes: int = table_field(
        256, "bytes", "Optane internal 256 B access granularity.", minimum=1)

    @property
    def read_latency_ns(self) -> float:
        return self.t_rcd_ns + self.t_cl_ns

    @property
    def write_latency_ns(self) -> float:
        return self.t_rp_ns


# ---------------------------------------------------------------------------
# Host / PCIe configuration (Hetero and GPU-SSD baselines)
# ---------------------------------------------------------------------------


@dataclass
class HostConfig:
    """Host-side path used when page faults are serviced by the CPU."""

    pcie_bandwidth_gbps: float = table_field(
        15.75, "GB/s", "PCIe 3.0 x16 effective bandwidth.", minimum=0.001)
    pcie_latency_us: float = table_field(
        1.0, "us", "PCIe round-trip latency.", minimum=0.0)
    nvme_read_latency_us: float = table_field(
        10.0, "us", "NVMe SSD read latency.", minimum=0.0)
    nvme_bandwidth_gbps: float = table_field(
        3.2, "GB/s", "NVMe SSD sequential bandwidth.", minimum=0.001)
    page_fault_handling_us: float = table_field(
        20.0, "us",
        "Host fault cost: interrupt + driver + user/kernel copies.",
        minimum=0.0)
    host_copy_bandwidth_gbps: float = table_field(
        12.0, "GB/s", "Host user<->kernel copy bandwidth.", minimum=0.001)


# ---------------------------------------------------------------------------
# ZnG mechanism configuration (Section IV)
# ---------------------------------------------------------------------------


@dataclass
class PrefetchConfig:
    """Dynamic read prefetcher (Section IV-B)."""

    predictor_entries: int = table_field(
        512, "count", "Section IV-B: 512-entry prefetch predictor.", minimum=1)
    warps_tracked_per_entry: int = table_field(
        5, "count", "Section IV-B: 5 warps tracked per predictor entry.",
        minimum=1)
    counter_bits: int = table_field(
        4, "count", "Section IV-B: 4-bit saturating confidence counters.",
        minimum=1)
    prefetch_threshold: int = table_field(
        12, "count",
        "Section IV-B: counter value that triggers a prefetch "
        "(must stay below the counter ceiling 2^counter_bits).",
        minimum=1, ablation=(1, 4, 8, 12, 15))
    initial_prefetch_bytes: int = table_field(
        4096, "bytes", "Initial prefetch granularity (one flash page).",
        minimum=1)
    min_prefetch_bytes: int = table_field(
        128, "bytes", "Lower bound of the adaptive granularity (one line).",
        minimum=1)
    max_prefetch_bytes: int = table_field(
        4096, "bytes", "Upper bound of the adaptive granularity (one page).",
        minimum=1)
    granularity_step_bytes: int = table_field(
        1024, "bytes", "Adaptive granularity adjustment step.", minimum=1)
    high_waste_threshold: float = table_field(
        0.3, "ratio",
        "Shrink the granularity above this evicted-unused fraction.",
        minimum=0.0, maximum=1.0)
    low_waste_threshold: float = table_field(
        0.05, "ratio",
        "Grow the granularity below this evicted-unused fraction.",
        minimum=0.0, maximum=1.0)
    monitor_window_evictions: int = table_field(
        64, "count", "Access-monitor window (evictions per decision).",
        minimum=1)
    policy: str = table_field(
        "dynamic", "enum",
        "Read-prefetch policy of the read optimisation: 'dynamic' (ZnG), "
        "'next_line', 'stride' or 'none' (Section IV-B).",
        choices=("dynamic", "next_line", "stride", "none"),
        ablation=("none", "next_line", "stride", "dynamic"))


@dataclass
class RegisterCacheConfig:
    """Fully-associative flash-register write cache (Section IV-C)."""

    registers_per_plane: int = table_field(
        8, "count",
        "Table I: 8 registers per plane back ZnG's write cache "
        "(pinned into znand.registers_per_plane by the ZnG-wropt/ZnG presets).",
        minimum=1, ablation=(2, 4, 8, 16, 32))
    register_bytes: int = table_field(
        4096, "bytes", "One register holds one 4 KB flash page.", minimum=1)
    interconnect: str = table_field(
        "nif", "enum",
        "Register network: 'nif' (Section IV-C), 'fcnet' or 'swnet'.",
        choices=("nif", "fcnet", "swnet"),
        ablation=("swnet", "fcnet", "nif"))
    thrashing_window: int = table_field(
        256, "count", "Thrashing-checker observation window (writes).",
        minimum=1)
    thrashing_eviction_ratio: float = table_field(
        0.5, "ratio",
        "Eviction fraction within the window that flags thrashing.",
        minimum=0.0, maximum=1.0)
    l2_pinned_lines: int = table_field(
        2048, "count",
        "L2 lines pinned for dirty pages when thrashing is detected.",
        minimum=0)
    local_network_bytes_per_cycle: float = table_field(
        8.0, "bytes/cycle", "Local register-network link throughput.",
        minimum=0.001)


@dataclass
class FTLConfig:
    """Zero-overhead FTL structure sizes (Section IV-A)."""

    dbmt_size_bytes: int = table_field(
        80 * 1024, "bytes", "Section IV-A: 80 KB data-block mapping table.",
        minimum=1)
    data_blocks_per_log_block: int = table_field(
        8, "count", "Section IV-A: 8 data blocks share one log block.",
        minimum=1)
    gc_free_block_threshold: float = table_field(
        0.05, "ratio",
        "Helper-GC trigger: free-block fraction below which merges start.",
        minimum=0.0, maximum=1.0)
    wear_leveling: bool = table_field(
        True, "flag", "Enable wear-leveled log-block allocation.")


# ---------------------------------------------------------------------------
# Top-level platform configuration
# ---------------------------------------------------------------------------


@dataclass
class PlatformConfig:
    """Everything a GPU-SSD platform needs, bundled."""

    gpu: GPUConfig = field(default_factory=GPUConfig)
    znand: ZNANDConfig = field(default_factory=ZNANDConfig)
    ssd_engine: SSDEngineConfig = field(default_factory=SSDEngineConfig)
    stt_mram: STTMRAMConfig = field(default_factory=STTMRAMConfig)
    optane: OptaneConfig = field(default_factory=OptaneConfig)
    host: HostConfig = field(default_factory=HostConfig)
    prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    register_cache: RegisterCacheConfig = field(default_factory=RegisterCacheConfig)
    ftl: FTLConfig = field(default_factory=FTLConfig)

    def copy(self, **overrides) -> "PlatformConfig":
        """Return a shallow copy with selected sub-configs replaced."""
        return replace(self, **overrides)


def default_config() -> PlatformConfig:
    """The Table I configuration used across the evaluation."""
    return PlatformConfig()


def zng_config() -> PlatformConfig:
    """The full ZnG configuration: mesh flash network, 8 registers/plane."""
    cfg = PlatformConfig()
    cfg.znand = replace(
        cfg.znand,
        registers_per_plane=8,
        flash_network_type="mesh",
    )
    return cfg
