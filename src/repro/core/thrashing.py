"""Thrashing checker for the flash-register write cache (Section IV-C).

The limited number of flash registers can thrash when a workload's dirty
working set exceeds them.  The checker watches the register-cache eviction
rate over a sliding window; when thrashing is detected ZnG pins a small
number of L2 cache lines and spills the excess dirty pages there instead of
programming them to flash.
"""

from __future__ import annotations

from typing import Optional

from repro.config import RegisterCacheConfig


class ThrashingChecker:
    """Detects register-cache thrashing from windowed eviction ratios."""

    def __init__(self, config: Optional[RegisterCacheConfig] = None) -> None:
        self.config = config or RegisterCacheConfig()
        self.window_accesses = 0
        self.window_evictions = 0
        self.thrashing = False
        self.activations = 0
        self.deactivations = 0

    def observe(self, evicted: bool) -> None:
        """Account one register-cache access; flip ``thrashing`` at window ends."""
        accesses = self.window_accesses = self.window_accesses + 1
        if evicted:
            self.window_evictions += 1
        if accesses < self.config.thrashing_window:
            return
        ratio = self._ratio()
        was_thrashing = self.thrashing
        self.thrashing = ratio > self.config.thrashing_eviction_ratio
        if self.thrashing and not was_thrashing:
            self.activations += 1
        if was_thrashing and not self.thrashing:
            self.deactivations += 1
        self.window_accesses = 0
        self.window_evictions = 0

    def _ratio(self) -> float:
        if self.window_accesses == 0:
            return 0.0
        return self.window_evictions / self.window_accesses
