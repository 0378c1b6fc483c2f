"""GPU-SSD platforms evaluated in the paper (Section V-A).

Seven platforms plus the pure-GDDR5 reference:

* ``GDDR5Platform``   — the traditional GPU memory subsystem (reference for Figs 4c/4d/5a)
* ``HeteroPlatform``  — discrete GPU + NVMe SSD behind the host (page-fault path)
* ``HybridGPUPlatform`` — prior work: SSD controller + DRAM buffer inside the GPU
* ``OptanePlatform``  — GPU DRAM replaced by Optane DC PMM behind 6 controllers
* ``ZnGPlatform``     — ZnG-base / ZnG-rdopt / ZnG-wropt / ZnG (full)

GDDR5, Hetero and Optane share one memory-controller service path,
``ControllerMemoryPlatform``.
"""

from repro.platforms.base import GPUSSDPlatform, PlatformResult
from repro.platforms.gddr5 import ControllerMemoryPlatform, GDDR5Platform
from repro.platforms.hetero import HeteroPlatform
from repro.platforms.hybrid_gpu import HybridGPUPlatform
from repro.platforms.optane_platform import OptanePlatform
from repro.platforms.zng import ZnGPlatform, ZnGVariant, build_platform, PLATFORM_NAMES

__all__ = [
    "GPUSSDPlatform",
    "PlatformResult",
    "ControllerMemoryPlatform",
    "GDDR5Platform",
    "HeteroPlatform",
    "HybridGPUPlatform",
    "OptanePlatform",
    "ZnGPlatform",
    "ZnGVariant",
    "build_platform",
    "PLATFORM_NAMES",
]
