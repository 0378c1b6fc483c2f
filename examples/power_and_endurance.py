#!/usr/bin/env python
"""Domain example: power and endurance of a ZnG GPU.

Two of the paper's motivations are power (Figure 3b) and — implicitly — flash
endurance under the heavy write redundancy of Figure 5c.  This example
quantifies both: the static-power advantage of Z-NAND over GDDR5, and how the
flash-register write cache extends device lifetime by absorbing redundant
writes before they reach the array.

Run with::

    python examples/power_and_endurance.py
"""

from __future__ import annotations

from repro.analysis.power import (
    compare_static_power_per_gb,
    dram_subsystem_power,
    gpu_dram_vs_znand_capacity,
    znand_power,
)
from repro.config import GDDR5
from repro.platforms.zng import ZnGPlatform, ZnGVariant
from repro.workloads import TraceKnobs, build_mix


def main() -> None:
    print("Static power per GB (Figure 3b):")
    for name, watts in compare_static_power_per_gb().items():
        print(f"  {name:8s} {watts:6.2f} W/GB")

    print("\nCapacity provisionable at a 100 W budget:")
    for name, gb in gpu_dram_vs_znand_capacity().items():
        print(f"  {name:8s} {gb:10.0f} GB")

    print("\nRunning betw-back on ZnG (full) and ZnG-base to compare endurance...")
    mix = build_mix("betw", "back", TraceKnobs(
        scale=0.3, seed=1, warps_per_sm=12, memory_instructions_per_warp=96))

    for variant in (ZnGVariant.BASE, ZnGVariant.FULL):
        platform = ZnGPlatform(variant)
        result = platform.run(mix.combined)
        report = platform.endurance.report()
        rc = platform.register_cache
        absorbed = rc.write_hits
        programmed = rc.programs_issued + platform.stats.get("direct_programs")
        gain = platform.endurance.endurance_gain_from_buffering(absorbed, max(1, programmed))
        print(f"\n  [{variant.value}]")
        print(f"    host writes absorbed in registers: {absorbed}")
        print(f"    flash programs issued:             {report.total_programs}")
        print(f"    write amplification:               {report.write_amplification:.2f}")
        print(f"    max block erase count:             {report.max_erase_count}")
        print(f"    endurance gain from buffering:     {gain:.1f}x")

        energy = znand_power(
            capacity_gb=platform.array.config.total_capacity_bytes / (1 << 30),
            reads=platform.array.page_reads,
            programs=platform.array.page_programs,
            erases=platform.array.block_erases,
            runtime_cycles=result.cycles,
        )
        print(f"    Z-NAND dynamic energy:             {energy.dynamic_energy_j * 1e3:.3f} mJ")

    dram = dram_subsystem_power(GDDR5, 12.0, accesses=100000, runtime_cycles=1e6)
    print(f"\n  Reference GDDR5 static power (12 GB): {dram.static_power_w:.1f} W")


if __name__ == "__main__":
    main()
