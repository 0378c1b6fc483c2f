"""The per-SM coalescing unit.

Before a warp's 32 per-thread accesses reach the L1D cache, the coalescing
unit merges them into as few 128 B memory requests as possible (Section II-A).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

#: Segment granularity trace generators precompute ``Instruction.segments``
#: at.  A coalescer configured with any other ``request_bytes`` (e.g. a
#: ``gpu.memory_request_bytes`` ablation) must ignore precomputed segments
#: and re-derive them from the thread addresses.
PRECOMPUTED_SEGMENT_BYTES = 128


class CoalescingUnit:
    """Merges per-thread addresses of one warp instruction into 128 B segments."""

    def __init__(self, request_bytes: int = 128, threads_per_warp: int = 32) -> None:
        if request_bytes <= 0:
            raise ValueError("request size must be positive")
        self.request_bytes = request_bytes
        self.threads_per_warp = threads_per_warp
        self.instructions_coalesced = 0
        self.requests_generated = 0

    def coalesce_addresses(self, addresses: Sequence[int]) -> List[int]:
        """Collapse thread addresses into unique 128 B-aligned segment addresses."""
        segments = sorted(
            {(address // self.request_bytes) * self.request_bytes for address in addresses}
        )
        return segments

    def coalesce(
        self, addresses: Sequence[int], segments: Optional[Sequence[int]] = None
    ) -> Sequence[int]:
        """Return the coalesced segment addresses of one warp instruction.

        Each segment is one ``request_bytes`` memory request.  ``segments``
        short-circuits the address collapse with segment addresses
        precomputed at trace-generation time (see
        :class:`~repro.gpu.warp.Instruction`) and is returned as given.  They
        are honoured only when this unit's ``request_bytes`` matches the
        granularity they were precomputed at
        (:data:`PRECOMPUTED_SEGMENT_BYTES`); an ablated request size falls
        back to deriving segments from the live config.
        """
        if segments is not None and self.request_bytes != PRECOMPUTED_SEGMENT_BYTES:
            segments = None
        if segments is None:
            if not addresses:
                return []
            segments = self.coalesce_addresses(addresses)
        elif not segments:
            return []
        self.instructions_coalesced += 1
        self.requests_generated += len(segments)
        return segments

    def reset(self) -> None:
        self.instructions_coalesced = 0
        self.requests_generated = 0
