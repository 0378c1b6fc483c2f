"""GPU substrate: SMs, caches, MMU/TLB, interconnect and DRAM models."""

from repro.gpu.cache import SetAssociativeCache
from repro.gpu.mshr import MSHR
from repro.gpu.coalescer import CoalescingUnit
from repro.gpu.tlb import TLB
from repro.gpu.mmu import MMU, PageTable
from repro.gpu.l2cache import SharedL2Cache
from repro.gpu.interconnect import Interconnect
from repro.gpu.dram import DRAMDevice, build_gddr5_subsystem
from repro.gpu.memory_controller import MemoryControllerArray
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
    "DRAMDevice",
    "build_gddr5_subsystem",
    "MemoryControllerArray",
    "Instruction",
    "WarpTrace",
    "StreamingMultiprocessor",
    "GPUCore",
]
