"""Workload specifications and generated-trace containers.

The paper characterises its workloads (Table II, Figs 5b-d) by a handful of
statistics — read ratio, kernel count, per-page read re-access count, per-page
write redundancy, and access locality — and that characterisation is what the
evaluation results depend on.  :class:`WorkloadSpec` captures exactly those
knobs; the generators synthesise warp traces that hit the published numbers.
:class:`TraceKnobs` declares what sizes, seeds and places a generated trace;
the workload registry, the generators, the sweep specs and the experiment
presets all take it from here.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List, Mapping, Optional

from repro.gpu.warp import WarpTrace, total_instructions, total_memory_instructions


def _check_int(name: str, value: object, minimum: Optional[int] = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} expects an int, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class TraceKnobs:
    """The trace knobs: what sizes, seeds and places every generated trace.

    The one declaration of these knobs and of their defaults, checked on
    construction: ``scale`` a finite number > 0, the SM, warp and
    memory-instruction counts ints >= 1, ``seed`` an int (or ``None``: seed
    from the workload name), ``address_space_offset`` an int >= 0.

    A :class:`~repro.runner.spec.SweepSpec` carries one whose ``seed`` is the
    sweep seed; each of its cells carries one whose ``seed`` is the cell's
    trace seed, ``cell_seed(sweep_seed, workload)``.  A trace file records
    the knobs its trace was generated with.

    :mod:`repro.workloads.registry` exports it; it is declared here because
    the experiment presets carry one, and the registry imports the config
    package that holds the presets.
    """

    scale: float = 0.2
    seed: Optional[int] = 1
    num_sms: int = 16
    warps_per_sm: int = 8
    memory_instructions_per_warp: int = 64
    address_space_offset: int = 0

    def __post_init__(self) -> None:
        scale = self.scale
        if isinstance(scale, bool) or not (
                isinstance(scale, (int, float)) and 0 < scale < math.inf):
            raise ValueError(f"scale must be a finite number > 0, got {scale!r}")
        if self.seed is not None:
            _check_int("seed", self.seed)
        for name in ("num_sms", "warps_per_sm", "memory_instructions_per_warp"):
            _check_int(name, getattr(self, name), minimum=1)
        _check_int("address_space_offset", self.address_space_offset, minimum=0)

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "TraceKnobs":
        """The knobs a recorded ``knobs`` mapping holds; unknown names raise."""
        unknown = sorted(set(payload) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(
                f"unknown trace knob {unknown[0]!r} (known: "
                f"{', '.join(f.name for f in fields(cls))})")
        return cls(**payload)

    def sweep_fields(self) -> Dict[str, object]:
        """The knobs a sweep declares, in descriptor order: every knob but
        the address offset (a sweep generates each trace at address 0)."""
        declared = asdict(self)
        del declared["address_space_offset"]
        return declared


@dataclass(frozen=True)
class WorkloadSpec:
    """The calibration statistics of one Table II workload."""

    name: str
    suite: str
    read_ratio: float
    kernels: int
    #: Average number of times a read page is re-read (Fig. 5b).
    read_reaccess: float
    #: Average number of writes hitting the same page (Fig. 5c).
    write_redundancy: float
    #: Fraction of memory accesses that stream sequentially (CSR scans etc.).
    sequential_fraction: float = 0.6
    #: Arithmetic instructions per memory instruction.
    compute_per_memory: int = 4
    #: Footprint in 4 KB pages at scale 1.0.
    footprint_pages: int = 4096
    #: Zipf skew of the page popularity distribution.
    zipf_alpha: float = 0.8

    def __post_init__(self) -> None:
        problems = []
        if not 0.0 <= self.read_ratio <= 1.0:
            problems.append(f"read_ratio must be in [0, 1], got {self.read_ratio!r}")
        if self.kernels < 1:
            problems.append(f"kernels must be >= 1, got {self.kernels!r}")
        if self.read_reaccess < 0:
            problems.append(
                f"read_reaccess must be >= 0, got {self.read_reaccess!r}")
        if self.write_redundancy < 0:
            problems.append(
                f"write_redundancy must be >= 0, got {self.write_redundancy!r}")
        if not 0.0 <= self.sequential_fraction <= 1.0:
            problems.append(
                f"sequential_fraction must be in [0, 1], "
                f"got {self.sequential_fraction!r}")
        if self.compute_per_memory < 0:
            problems.append(
                f"compute_per_memory must be >= 0, got {self.compute_per_memory!r}")
        if self.footprint_pages < 1:
            problems.append(
                f"footprint_pages must be >= 1, got {self.footprint_pages!r}")
        if not 0.0 <= self.zipf_alpha <= 4.0:
            problems.append(
                f"zipf_alpha must be in [0, 4], got {self.zipf_alpha!r}")
        if problems:
            raise ValueError(
                f"invalid WorkloadSpec {self.name!r}: " + "; ".join(problems))

    @property
    def write_ratio(self) -> float:
        return 1.0 - self.read_ratio


@dataclass
class WorkloadTrace:
    """A generated workload: warp traces plus bookkeeping for the figures."""

    spec: WorkloadSpec
    warps: List[WarpTrace] = field(default_factory=list)
    #: Virtual page -> number of read accesses (for Fig. 5b).
    page_read_counts: Dict[int, int] = field(default_factory=dict)
    #: Virtual page -> number of write accesses (for Fig. 5c).
    page_write_counts: Dict[int, int] = field(default_factory=dict)
    footprint_pages: int = 0
    #: The workload token the trace was built for (``betw-back``,
    #: ``kv-lookup:get_ratio=0.3``); empty for a trace built from a spec.
    label: str = ""

    @property
    def name(self) -> str:
        return self.label or self.spec.name

    @property
    def total_instructions(self) -> int:
        return total_instructions(self.warps)

    @property
    def total_memory_instructions(self) -> int:
        return total_memory_instructions(self.warps)

    @property
    def measured_read_ratio(self) -> float:
        reads = sum(w.read_instructions for w in self.warps)
        memory = self.total_memory_instructions
        return reads / memory if memory else 0.0

    @property
    def mean_read_reaccess(self) -> float:
        """Average reads per distinct read page (the Fig. 5b metric)."""
        if not self.page_read_counts:
            return 0.0
        return sum(self.page_read_counts.values()) / len(self.page_read_counts)

    @property
    def mean_write_redundancy(self) -> float:
        """Average writes per distinct written page (the Fig. 5c metric)."""
        if not self.page_write_counts:
            return 0.0
        return sum(self.page_write_counts.values()) / len(self.page_write_counts)

    def merge(self, other: "WorkloadTrace") -> "WorkloadTrace":
        """Concatenate another workload's warps (used for multi-app mixes)."""
        merged = WorkloadTrace(spec=self.spec)
        merged.warps = list(self.warps) + list(other.warps)
        merged.footprint_pages = self.footprint_pages + other.footprint_pages
        merged.page_read_counts = dict(self.page_read_counts)
        for page, count in other.page_read_counts.items():
            merged.page_read_counts[page] = merged.page_read_counts.get(page, 0) + count
        merged.page_write_counts = dict(self.page_write_counts)
        for page, count in other.page_write_counts.items():
            merged.page_write_counts[page] = merged.page_write_counts.get(page, 0) + count
        return merged

