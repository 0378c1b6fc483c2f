"""repro — a reproduction of ZnG (ISCA 2020).

ZnG architects GPU multi-processors whose entire on-board memory is
ultra-low-latency Z-NAND flash.  This package provides:

* a cycle-approximate GPU substrate (``repro.gpu``),
* a Z-NAND SSD substrate (``repro.ssd``),
* the ZnG mechanisms — zero-overhead FTL, dynamic read prefetching and the
  flash-register write cache (``repro.core``),
* the evaluated platforms (``repro.platforms``),
* synthetic workloads calibrated to the paper's Table II (``repro.workloads``),
* and figure/table reproduction entry points (``repro.analysis``).

Quick start::

    from repro.platforms import build_platform
    from repro.workloads import TraceKnobs, build_mix

    mix = build_mix("betw", "back", TraceKnobs(scale=0.25))
    zng = build_platform("ZnG")
    hybrid = build_platform("HybridGPU")
    print(zng.run(mix.combined).ipc / hybrid.run(mix.combined).ipc)
"""

from repro.config import (
    PlatformConfig,
    GPUConfig,
    ZNANDConfig,
    SSDEngineConfig,
    STTMRAMConfig,
    OptaneConfig,
    PrefetchConfig,
    RegisterCacheConfig,
    FTLConfig,
    default_config,
)

__version__ = "1.0.0"

__all__ = [
    "PlatformConfig",
    "GPUConfig",
    "ZNANDConfig",
    "SSDEngineConfig",
    "STTMRAMConfig",
    "OptaneConfig",
    "PrefetchConfig",
    "RegisterCacheConfig",
    "FTLConfig",
    "default_config",
    "__version__",
]
