#!/usr/bin/env python
"""Domain example: power and endurance of a ZnG GPU.

Two of the paper's motivations are power (Figure 3b) and — implicitly — flash
endurance under the heavy write redundancy of Figure 5c.  This example prints
the power per GB of each memory technology, and shows how the flash-register
write cache extends device lifetime by absorbing redundant writes before they
reach the array.

Run with::

    python examples/power_and_endurance.py
"""

from __future__ import annotations

from repro.analysis.figures import figure_3
from repro.platforms.zng import ZnGPlatform, ZnGVariant
from repro.workloads import TraceKnobs, build_mix


def main() -> None:
    print("Power per GB (Figure 3b):")
    for name, row in figure_3().items():
        print(f"  {name:8s} {row['power_w_per_gb']:6.2f} W/GB")

    print("\nRunning betw-back on ZnG (full) and ZnG-base to compare endurance...")
    mix = build_mix("betw", "back", TraceKnobs(
        scale=0.3, seed=1, warps_per_sm=12, memory_instructions_per_warp=96))

    for variant in (ZnGVariant.BASE, ZnGVariant.FULL):
        platform = ZnGPlatform(variant)
        platform.run(mix.combined)
        report = platform.endurance.report()
        rc = platform.register_cache
        absorbed = rc.write_hits
        programmed = rc.programs_issued + platform.stats.get("direct_programs")
        gain = platform.endurance.endurance_gain_from_buffering(absorbed, programmed)
        # With no program issued yet every write is still buffered: no finite
        # gain has been measured.
        gain_text = (f"{gain:.1f}x" if gain != float("inf")
                     else "unbounded (nothing programmed yet)")
        print(f"\n  [{variant.value}]")
        print(f"    host writes absorbed in registers: {absorbed}")
        print(f"    flash programs issued:             {report.total_programs}")
        print(f"    write amplification:               {report.write_amplification:.2f}")
        print(f"    max block erase count:             {report.max_erase_count}")
        print(f"    endurance gain from buffering:     {gain_text}")


if __name__ == "__main__":
    main()
