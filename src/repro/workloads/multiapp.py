"""Multi-application workload construction (Section V-A).

The evaluation co-runs one read-intensive graph workload with one
write-intensive scientific workload.  The two applications occupy disjoint
virtual address ranges (they are separate processes sharing the GPU) and
their warps are interleaved across the SMs, which is what stresses the shared
memory subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.workloads.generators import PAGE_SIZE
from repro.workloads.registry import TraceKnobs, resolve_workload
from repro.workloads.suites import MULTI_APP_MIXES, mix_name
from repro.workloads.trace import WorkloadSpec, WorkloadTrace


@dataclass
class MultiAppWorkload:
    """A co-run of two applications, each with its own address range."""

    name: str
    first: WorkloadTrace
    second: WorkloadTrace
    combined: WorkloadTrace

    @property
    def specs(self) -> Tuple[WorkloadSpec, WorkloadSpec]:
        return self.first.spec, self.second.spec


def build_mix(read_app: str, write_app: str,
              knobs: TraceKnobs = TraceKnobs()) -> MultiAppWorkload:
    """Generate one co-run mix, e.g. ``build_mix("betw", "back")``.

    Each half is any registered workload family name: a Table II
    application or ``kv-lookup`` (``build_mix("kv-lookup", "gaus")``).
    The read application is generated with ``knobs``; the write application
    with the next seed, placed just above the read application's footprint.
    """
    first = resolve_workload(read_app).build(knobs)
    # The second application lives above the first one's footprint.
    offset_pages = first.footprint_pages
    second = resolve_workload(write_app).build(replace(
        knobs,
        seed=None if knobs.seed is None else knobs.seed + 1,
        address_space_offset=knobs.address_space_offset + offset_pages * PAGE_SIZE,
    ))
    # Re-key the second app's page statistics into the global address space.
    second.page_read_counts = {
        page + offset_pages: count for page, count in second.page_read_counts.items()
    }
    second.page_write_counts = {
        page + offset_pages: count for page, count in second.page_write_counts.items()
    }
    combined = first.merge(second)
    return MultiAppWorkload(
        name=mix_name(read_app, write_app), first=first, second=second, combined=combined
    )


def build_all_mixes(
    knobs: TraceKnobs = TraceKnobs(),
    mixes: Optional[List[Tuple[str, str]]] = None,
) -> Dict[str, MultiAppWorkload]:
    """Build every evaluation mix (Figs 5a / 10 / 11), keyed by mix name."""
    result: Dict[str, MultiAppWorkload] = {}
    for read_app, write_app in mixes or MULTI_APP_MIXES:
        mix = build_mix(read_app, write_app, knobs)
        result[mix.name] = mix
    return result
