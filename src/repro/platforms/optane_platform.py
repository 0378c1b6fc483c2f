"""The Optane baseline: GPU DRAM replaced by Optane DC PMM behind six controllers.

Optane DC PMM is byte-addressable (256 B internal granularity) so it does not
suffer the Z-NAND page-granularity mismatch, but its aggregate bandwidth tops
out around 39 GB/s for reads — well below GDDR5 and below what ZnG extracts
from the accumulated flash arrays (Section V-B).  Latency constants come from
Table I (derived from measurements of real devices).
"""

from __future__ import annotations

from typing import Optional

from repro.config import PlatformConfig
from repro.gpu.memory_controller import build_optane_controllers
from repro.platforms.gddr5 import ControllerMemoryPlatform


class OptanePlatform(ControllerMemoryPlatform):
    """GPU whose memory is Optane DC PMM on six memory controllers."""

    name = "Optane"
    component = "optane"

    def __init__(self, config: Optional[PlatformConfig] = None) -> None:
        super().__init__(config)
        self.optane = self.memory = build_optane_controllers(self.config.optane)
