"""The direction of a memory access, shared by traces and the request path."""

from __future__ import annotations

from enum import Enum


class AccessType(Enum):
    """The kind of memory operation a warp instruction performs."""

    READ = "read"
    WRITE = "write"

    @property
    def is_write(self) -> bool:
        return self is AccessType.WRITE

    @property
    def is_read(self) -> bool:
        return self is AccessType.READ
