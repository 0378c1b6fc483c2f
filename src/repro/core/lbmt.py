"""Log Block Mapping Table (LBMT) kept in GPU shared memory.

The SSD's over-provisioned space provides only a limited number of physical
log blocks, so several physical data blocks share one log block
(Section IV-A).  The LBMT records which group of data blocks maps to which
log block; it is consulted on writes and by the helper-thread GC.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional


@dataclass
class LogBlockGroup:
    """A group of data blocks sharing one physical log block."""

    group_id: int
    plbn: int
    data_blocks: List[int]


class LogBlockMappingTable:
    """Group-of-data-blocks -> log-block mapping, stored in shared memory."""

    #: Bytes per LBMT entry in shared memory (group id, PLBN, bitmap).
    ENTRY_BYTES = 16

    def __init__(self, data_blocks_per_log_block: int = 8) -> None:
        if data_blocks_per_log_block <= 0:
            raise ValueError("a log block must serve at least one data block")
        self.data_blocks_per_log_block = data_blocks_per_log_block
        self._groups: Dict[int, LogBlockGroup] = {}
        self._group_of_data_block: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def size_bytes(self) -> int:
        return len(self._groups) * self.ENTRY_BYTES

    def group_id_of(self, pdbn: int) -> int:
        """Data blocks are grouped by contiguous PDBN ranges."""
        return pdbn // self.data_blocks_per_log_block

    def assign(self, pdbn: int, plbn: int) -> LogBlockGroup:
        """Associate a data block's group with a physical log block."""
        group_id = self.group_id_of(pdbn)
        group = self._groups.get(group_id)
        if group is None:
            group = LogBlockGroup(group_id=group_id, plbn=plbn, data_blocks=[])
            self._groups[group_id] = group
        if pdbn not in group.data_blocks:
            group.data_blocks.append(pdbn)
        self._group_of_data_block[pdbn] = group_id
        return group

    def log_block_for(self, pdbn: int) -> Optional[int]:
        group = self._groups.get(self.group_id_of(pdbn))
        return group.plbn if group is not None else None

    def group_by_plbn(self, plbn: int) -> Optional[LogBlockGroup]:
        for group in self._groups.values():
            if group.plbn == plbn:
                return group
        return None

    def replace_log_block(self, group_id: int, new_plbn: int) -> None:
        """Point a group at a fresh log block (after the helper GC erases it)."""
        group = self._groups.get(group_id)
        if group is None:
            raise KeyError(f"unknown log block group {group_id}")
        group.plbn = new_plbn

    def groups(self) -> List[LogBlockGroup]:
        return list(self._groups.values())
