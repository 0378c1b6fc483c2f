"""End-to-end data-integrity validation for the zero-overhead FTL.

The timing model does not move real bytes, so this module provides a parallel
*functional* model that stores a value per virtual page and routes reads and
writes through the same DBMT/LPMT/helper-GC logic as the timing path.  It lets
tests assert the ZnG FTL preserves read-after-write semantics across log-block
redirection and garbage-collection merges — the correctness the paper's design
must maintain while optimising performance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.core.zero_overhead_ftl import ZeroOverheadFTL


@dataclass
class IntegrityModel:
    """A functional shadow of the FTL's data, keyed by virtual page.

    Each physical page (PPN) holds a value; the FTL decides which PPN a virtual
    page currently maps to.  Writes store a value at the freshly allocated log
    page; reads fetch the value from wherever the FTL says the latest copy is.
    """

    ftl: ZeroOverheadFTL
    _ppn_values: Dict[int, int] = field(default_factory=dict)
    writes: int = 0
    reads: int = 0

    def write(self, virtual_page: int, value: int, now: float = 0.0) -> None:
        """Write ``value`` to a virtual page through the FTL."""
        ppn, _, _ = self.ftl.allocate_write(virtual_page, now)
        self._ppn_values[ppn] = value
        self.writes += 1

    def read(self, virtual_page: int) -> Optional[int]:
        """Read the latest value of a virtual page through the FTL."""
        ppn = self.ftl.translate_read(virtual_page)
        self.reads += 1
        return self._ppn_values.get(ppn)

    def relocate(self, old_ppn: int, new_ppn: int) -> None:
        """Move a value when GC migrates a page (called by the hooked helper GC)."""
        if old_ppn in self._ppn_values:
            self._ppn_values[new_ppn] = self._ppn_values.pop(old_ppn)


def install_integrity_tracking(ftl: ZeroOverheadFTL) -> IntegrityModel:
    """Attach an :class:`IntegrityModel` and make GC merges preserve values.

    Wraps the helper GC's page copy so that when a page is migrated during a
    merge, its shadow value follows it to the new PPN.
    """
    model = IntegrityModel(ftl)
    helper = ftl.helper_gc
    if helper is None:
        return model

    original_copy = helper.copy_page

    def traced_copy(source_ppn, target_ppn, now):
        if source_ppn in model._ppn_values:
            model._ppn_values[target_ppn] = model._ppn_values[source_ppn]
        return original_copy(source_ppn, target_ppn, now)

    helper.copy_page = traced_copy  # type: ignore[assignment]
    return model
