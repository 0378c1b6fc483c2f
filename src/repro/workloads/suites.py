"""Table II workload catalogue and the multi-application mixes of the evaluation.

Read ratios and kernel counts are the published Table II numbers.  Per-page
read re-access and write-redundancy targets are calibrated to Figures 5b/5c
(paper averages: 42 reads/page, 65 writes/page, per-workload values read off
the bars), and the sequential fraction reflects each kernel's access pattern
(CSR scans vs frontier chasing vs dense stencils).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.workloads.trace import WorkloadSpec

# ---------------------------------------------------------------------------
# Graph-analysis suite [23]
# ---------------------------------------------------------------------------

GRAPH_WORKLOADS: Dict[str, WorkloadSpec] = {
    "betw": WorkloadSpec(
        name="betw", suite="graph", read_ratio=0.98, kernels=11,
        read_reaccess=55.0, write_redundancy=90.0, sequential_fraction=0.55,
        compute_per_memory=5, footprint_pages=393216,
    ),
    "bfs1": WorkloadSpec(
        name="bfs1", suite="graph", read_ratio=0.95, kernels=7,
        read_reaccess=35.0, write_redundancy=60.0, sequential_fraction=0.6,
        compute_per_memory=3, footprint_pages=262144,
    ),
    "bfs2": WorkloadSpec(
        name="bfs2", suite="graph", read_ratio=0.99, kernels=9,
        read_reaccess=45.0, write_redundancy=55.0, sequential_fraction=0.6,
        compute_per_memory=3, footprint_pages=262144,
    ),
    "bfs3": WorkloadSpec(
        name="bfs3", suite="graph", read_ratio=0.88, kernels=10,
        read_reaccess=30.0, write_redundancy=70.0, sequential_fraction=0.55,
        compute_per_memory=3, footprint_pages=294912,
    ),
    "bfs4": WorkloadSpec(
        name="bfs4", suite="graph", read_ratio=0.97, kernels=12,
        read_reaccess=40.0, write_redundancy=50.0, sequential_fraction=0.6,
        compute_per_memory=3, footprint_pages=262144,
    ),
    "bfs5": WorkloadSpec(
        name="bfs5", suite="graph", read_ratio=0.99, kernels=6,
        read_reaccess=50.0, write_redundancy=45.0, sequential_fraction=0.65,
        compute_per_memory=3, footprint_pages=262144,
    ),
    "bfs6": WorkloadSpec(
        name="bfs6", suite="graph", read_ratio=0.97, kernels=7,
        read_reaccess=38.0, write_redundancy=55.0, sequential_fraction=0.6,
        compute_per_memory=3, footprint_pages=262144,
    ),
    "gc1": WorkloadSpec(
        name="gc1", suite="graph", read_ratio=0.98, kernels=8,
        read_reaccess=42.0, write_redundancy=65.0, sequential_fraction=0.5,
        compute_per_memory=4, footprint_pages=294912,
    ),
    "gc2": WorkloadSpec(
        name="gc2", suite="graph", read_ratio=0.99, kernels=10,
        read_reaccess=48.0, write_redundancy=60.0, sequential_fraction=0.5,
        compute_per_memory=4, footprint_pages=294912,
    ),
    "sssp3": WorkloadSpec(
        name="sssp3", suite="graph", read_ratio=0.98, kernels=8,
        read_reaccess=44.0, write_redundancy=75.0, sequential_fraction=0.5,
        compute_per_memory=4, footprint_pages=327680,
    ),
    "deg": WorkloadSpec(
        name="deg", suite="graph", read_ratio=1.0, kernels=1,
        read_reaccess=20.0, write_redundancy=0.0, sequential_fraction=0.85,
        compute_per_memory=2, footprint_pages=262144,
    ),
    "pr": WorkloadSpec(
        name="pr", suite="graph", read_ratio=0.99, kernels=53,
        read_reaccess=70.0, write_redundancy=80.0, sequential_fraction=0.7,
        compute_per_memory=4, footprint_pages=393216,
    ),
}

# ---------------------------------------------------------------------------
# Scientific suites [24], [25] (the write-heavier co-runners)
# ---------------------------------------------------------------------------

SCIENTIFIC_WORKLOADS: Dict[str, WorkloadSpec] = {
    "back": WorkloadSpec(
        name="back", suite="scientific", read_ratio=0.57, kernels=1,
        read_reaccess=25.0, write_redundancy=120.0, sequential_fraction=0.75,
        compute_per_memory=6, footprint_pages=98304,
    ),
    "gaus": WorkloadSpec(
        name="gaus", suite="scientific", read_ratio=0.66, kernels=3,
        read_reaccess=35.0, write_redundancy=160.0, sequential_fraction=0.8,
        compute_per_memory=6, footprint_pages=98304,
    ),
    "FDT": WorkloadSpec(
        name="FDT", suite="scientific", read_ratio=0.73, kernels=1,
        read_reaccess=30.0, write_redundancy=100.0, sequential_fraction=0.85,
        compute_per_memory=8, footprint_pages=131072,
    ),
    "gram": WorkloadSpec(
        name="gram", suite="scientific", read_ratio=0.75, kernels=3,
        read_reaccess=40.0, write_redundancy=90.0, sequential_fraction=0.8,
        compute_per_memory=8, footprint_pages=98304,
    ),
}

ALL_WORKLOADS: Dict[str, WorkloadSpec] = {**GRAPH_WORKLOADS, **SCIENTIFIC_WORKLOADS}

#: The twelve multi-application mixes used in Figures 5a, 10 and 11.
MULTI_APP_MIXES: List[Tuple[str, str]] = [
    ("betw", "back"),
    ("bfs1", "gaus"),
    ("gc1", "FDT"),
    ("gc2", "FDT"),
    ("sssp3", "gram"),
    ("bfs2", "gaus"),
    ("bfs3", "FDT"),
    ("bfs4", "back"),
    ("bfs5", "back"),
    ("bfs6", "gaus"),
    ("deg", "gram"),
    ("pr", "gaus"),
]


def workload_by_name(name: str) -> WorkloadSpec:
    """Look up a Table II workload by its short name."""
    try:
        return ALL_WORKLOADS[name]
    except KeyError as error:
        from repro.workloads.registry import _did_you_mean

        raise KeyError(
            f"unknown workload {name!r}{_did_you_mean(name, ALL_WORKLOADS)}; "
            f"known: {sorted(ALL_WORKLOADS)}"
        ) from error


def mix_name(read_app: str, write_app: str) -> str:
    """The paper's naming convention for co-run mixes, e.g. ``betw-back``."""
    return f"{read_app}-{write_app}"
