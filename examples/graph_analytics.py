#!/usr/bin/env python
"""Domain example: large-scale graph analytics on a ZnG GPU.

Graph workloads are the paper's headline motivation: read-intensive, with
heavy page re-access (Fig. 5b) and data sets that dwarf GPU DRAM.  This example
sweeps several graph kernels co-run with a write-heavy solver, showing how the
read optimisation (STT-MRAM L2 + prefetch) and the write optimisation
(flash-register cache) each contribute.

Run with::

    python examples/graph_analytics.py
"""

from __future__ import annotations

from repro.platforms.zng import ZnGPlatform, ZnGVariant
from repro.workloads import TraceKnobs, build_mix

GRAPH_MIXES = [("betw", "back"), ("bfs1", "gaus"), ("sssp3", "gram"), ("pr", "gaus")]


def run_variant(variant: ZnGVariant, mix) -> dict:
    platform = ZnGPlatform(variant)
    result = platform.run(mix.combined)
    return {
        "ipc": result.ipc,
        "l2_hit_rate": result.l2_hit_rate,
        "flash_gbps": result.flash_array_read_bandwidth_gbps,
        "register_hit_rate": result.extra.get("register_hit_rate", 0.0),
        "prefetch_rate": result.extra.get("prefetch_rate", 0.0),
    }


def main() -> None:
    print("Graph analytics on ZnG — contribution of each optimisation\n")
    for read_app, write_app in GRAPH_MIXES:
        mix = build_mix(read_app, write_app, TraceKnobs(
            scale=0.25, seed=1, warps_per_sm=12,
            memory_instructions_per_warp=96))
        print(f"== {read_app}-{write_app} "
              f"(read ratio {mix.first.spec.read_ratio:.2f}, "
              f"re-access {mix.combined.mean_read_reaccess:.1f}) ==")
        base = run_variant(ZnGVariant.BASE, mix)
        rdopt = run_variant(ZnGVariant.RDOPT, mix)
        wropt = run_variant(ZnGVariant.WROPT, mix)
        full = run_variant(ZnGVariant.FULL, mix)
        print(f"  {'variant':10s} {'IPC':>9s} {'L2 hit':>8s} {'flash GB/s':>11s} {'reg hit':>8s}")
        for label, data in (
            ("base", base), ("rdopt", rdopt), ("wropt", wropt), ("full", full)
        ):
            print(
                f"  {label:10s} {data['ipc']:>9.4f} {data['l2_hit_rate']:>8.3f} "
                f"{data['flash_gbps']:>11.2f} {data['register_hit_rate']:>8.3f}"
            )
        print(f"  full/base speedup: {full['ipc'] / base['ipc']:.1f}x\n")


if __name__ == "__main__":
    main()
