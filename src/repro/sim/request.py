"""Memory request representation shared by the GPU and SSD substrates."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional


class AccessType(Enum):
    """The kind of memory operation carried by a request."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE

    @property
    def is_read(self) -> bool:
        return self is AccessType.READ


@dataclass(slots=True, init=False)
class MemoryRequest:
    """A coalesced memory request as seen below the L1 cache.

    Addresses are *virtual* when the request is created by an SM and are
    rewritten to device-physical addresses by the MMU / FTL on the way down.

    Attributes
    ----------
    address:
        Byte address of the access (virtual at creation time).
    size:
        Number of bytes accessed; GPU memory requests are 128 B.
    access:
        Read or write.
    warp_id, sm_id, pc:
        Identity of the issuing warp; the ZnG prefetcher keys its predictor
        table on ``pc`` and tracks per-warp history.
    issue_cycle:
        Cycle at which the request left the SM.
    """

    address: int
    size: int = 128
    access: AccessType = AccessType.READ
    warp_id: int = 0
    sm_id: int = 0
    pc: int = 0
    issue_cycle: float = 0.0
    physical_address: Optional[int] = None
    # Direction flags derived from ``access``: the request path consults them
    # many times per request, so the enum is dereferenced exactly once.
    is_write: bool = field(init=False, repr=False, compare=False)
    is_read: bool = field(init=False, repr=False, compare=False)

    # Written out rather than generated so that the direction flags are set
    # without a __post_init__ call: one request is built per coalesced access.
    def __init__(
        self,
        address: int,
        size: int = 128,
        access: AccessType = AccessType.READ,
        warp_id: int = 0,
        sm_id: int = 0,
        pc: int = 0,
        issue_cycle: float = 0.0,
        physical_address: Optional[int] = None,
    ) -> None:
        self.address = address
        self.size = size
        self.access = access
        self.warp_id = warp_id
        self.sm_id = sm_id
        self.pc = pc
        self.issue_cycle = issue_cycle
        self.physical_address = physical_address
        is_write = access is AccessType.WRITE
        self.is_write = is_write
        self.is_read = not is_write

    def page_number(self, page_size: int = 4096) -> int:
        """Virtual page number of the request."""
        return self.address // page_size

    def line_address(self, line_size: int = 128) -> int:
        """Cache-line-aligned address of the request."""
        return (self.address // line_size) * line_size

