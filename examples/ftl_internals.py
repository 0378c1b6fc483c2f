#!/usr/bin/env python
"""Domain example: exercising the zero-overhead FTL directly.

This example drops below the platform layer to show the ZnG FTL in action:
how a virtual page is translated through the MMU-resident block mapping table
(DBMT), how a write is redirected to a log block and remapped by the
programmable row decoder (LPMT), and how the GPU helper thread performs a
garbage-collection merge when a log block fills up.

Run with::

    python examples/ftl_internals.py
"""

from __future__ import annotations

from repro.config import FTLConfig, ZNANDConfig
from repro.core.helper_gc import HelperThreadGC
from repro.core.zero_overhead_ftl import ZeroOverheadFTL
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.znand import ZNANDArray


def build_ftl():
    config = ZNANDConfig(
        channels=4, dies_per_package=2, planes_per_die=2,
        blocks_per_plane=16, pages_per_block=8,
    )
    array = ZNANDArray(config, network=FlashNetwork(config, "mesh"))
    ftl = ZeroOverheadFTL(array, FTLConfig(data_blocks_per_log_block=4))
    ftl.helper_gc = HelperThreadGC(ftl, array)
    return ftl, array


def main() -> None:
    ftl, array = build_ftl()

    print("1. Map a virtual footprint into the DBMT (block-granular, in the MMU)")
    ftl.setup_mapping(total_virtual_pages=32)
    entry = ftl.dbmt.lookup(0)
    print(f"   VBN 0 -> data block {entry.pdbn}, log block {entry.plbn}")
    print(f"   DBMT size: {ftl.dbmt_size_bytes} bytes (budget {ftl.dbmt.capacity_bytes})")
    print(f"   fits in MMU: {ftl.dbmt.fits_in_mmu()}")

    print("\n2. Read a clean page — served from the physical data block")
    log_reads = ftl.reads_from_log
    ppn = ftl.translate_read(3)
    print(f"   virtual page 3 -> PPN {ppn}, from_log_block={ftl.reads_from_log > log_reads}")

    print("\n3. Write virtual page 3 — redirected to a log page by the row decoder")
    ppn, ready, _ = ftl.allocate_write(3, now=0.0)
    print(f"   wrote to log block {ftl.entry_for_page(3).plbn}, PPN {ppn}")
    log_reads = ftl.reads_from_log
    ppn = ftl.translate_read(3)
    print(f"   re-reading virtual page 3 -> PPN {ppn}, "
          f"from_log_block={ftl.reads_from_log > log_reads}")

    print("\n4. Fill the log block to trigger a helper-thread GC merge")
    merges_before = ftl.gc_merges
    time = ready
    for i in range(40):
        _, ready, gc_performed = ftl.allocate_write(i % 8, now=time)
        time = ready + 1
        if gc_performed:
            print(f"   GC merge triggered after write #{i}")
            break
    print(f"   total GC merges: {ftl.gc_merges} (was {merges_before})")
    print(f"   helper thread copied {ftl.helper_gc.pages_copied} pages, "
          f"erased {ftl.helper_gc.blocks_erased} blocks")

    print("\n5. FTL statistics")
    print(f"   reads translated: {ftl.reads_translated} "
          f"({ftl.log_read_fraction * 100:.1f}% from log blocks)")
    print(f"   writes allocated: {ftl.writes_allocated}")
    print(f"   flash page reads: {array.page_reads}, programs: {array.page_programs}, "
          f"erases: {array.block_erases}")


if __name__ == "__main__":
    main()
