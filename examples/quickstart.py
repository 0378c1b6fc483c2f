#!/usr/bin/env python
"""Quickstart: run every GPU-SSD platform on one workload and compare IPC.

This mirrors the core experiment of the paper (Figure 10): integrate Z-NAND
flash as GPU memory and measure how ZnG's three optimisations recover the
performance lost to the page-granularity mismatch and the SSD controller.

The grid is the ``quickstart`` experiment preset from ``repro.configspace``
— the same declarative experiment the CLI runs with::

    python -m repro sweep --preset quickstart

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.configspace import get_preset
from repro.runner import build_cell_trace, run_sweep


def main() -> None:
    preset = get_preset("quickstart")
    print(preset.describe())

    # A read-intensive graph workload (betweenness centrality) co-run with a
    # write-intensive scientific kernel (back-propagation), exactly the kind
    # of multi-application mix the paper stresses.
    spec = preset.spec()
    cells = spec.cells()
    trace = build_cell_trace(cells[0])
    print(f"\nWorkload {cells[0].workload}: warps={len(trace.warps)}  "
          f"memory instructions={trace.total_memory_instructions}  "
          f"touched pages={len(trace.page_read_counts.keys() | trace.page_write_counts.keys())}")

    print("\nRunning platforms...")
    sweep = run_sweep(spec)
    workload = preset.workloads[0]
    results = {name: sweep.get(name, workload) for name in preset.platforms}

    reference = results["ZnG"].ipc
    print(f"\n{'platform':12s} {'IPC':>10s} {'vs ZnG':>10s} {'flash GB/s':>12s}")
    for name, result in results.items():
        print(
            f"{name:12s} {result.ipc:>10.4f} {result.ipc / reference:>10.2f} "
            f"{result.flash_array_read_bandwidth_gbps:>12.2f}"
        )

    zng = results["ZnG"]
    hybrid = results["HybridGPU"]
    optane = results["Optane"]
    print("\nHeadline comparisons:")
    print(f"  ZnG is {zng.ipc / hybrid.ipc:.2f}x faster than HybridGPU (paper: 7.5x)")
    print(f"  ZnG is {zng.ipc / optane.ipc:.2f}x faster than the Optane baseline")
    print(
        f"  ZnG reaches {zng.flash_array_read_bandwidth_gbps:.1f} GB/s of flash-array "
        f"bandwidth vs {hybrid.flash_array_read_bandwidth_gbps:.1f} GB/s for HybridGPU"
    )


if __name__ == "__main__":
    main()
