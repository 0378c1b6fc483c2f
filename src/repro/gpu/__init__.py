"""GPU substrate: SMs, caches, MMU/TLB, interconnect and memory controllers."""

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.mshr import MSHR
from repro.gpu.coalescer import CoalescingUnit
from repro.gpu.tlb import TLB
from repro.gpu.mmu import MMU, PageTable
from repro.gpu.l2cache import SharedL2Cache
from repro.gpu.interconnect import Interconnect
from repro.gpu.memory_controller import (
    MemoryControllerArray,
    build_gddr5_controllers,
    build_optane_controllers,
)
from repro.gpu.warp import Instruction, WarpTrace
from repro.gpu.sm import StreamingMultiprocessor, GPUCore

__all__ = [
    "SetAssociativeCache",
    "MSHR",
    "CoalescingUnit",
    "TLB",
    "MMU",
    "PageTable",
    "SharedL2Cache",
    "Interconnect",
    "MemoryControllerArray",
    "build_gddr5_controllers",
    "build_optane_controllers",
    "Instruction",
    "WarpTrace",
    "StreamingMultiprocessor",
    "GPUCore",
]
