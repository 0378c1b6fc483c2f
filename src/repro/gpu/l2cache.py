"""The shared, banked L2 cache.

Two flavours are used in the evaluation:

* the conventional 6 MB SRAM L2 (Table I, GPU column), read/write, and
* ZnG's 24 MB STT-MRAM L2 (Table I, right column) which is *read-only*: its
  long write latency (5 cycles vs 1) makes it unsuitable for buffering writes,
  so dirty data is kept in the flash registers instead (Section III-C).

The cache is partitioned into banks; each bank is a throughput resource, so
bank conflicts and the extra STT-MRAM write occupancy show up as queueing.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.config import GPUConfig, STTMRAMConfig
from repro.gpu.cache import ACCESSED, DIRTY, SetAssociativeCache
from repro.sim.engine import Resource


class SharedL2Cache:
    """A banked, set-associative shared L2 cache."""

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
        banks: int,
        read_latency_cycles: float,
        write_latency_cycles: float,
        read_only: bool = False,
    ) -> None:
        # access() books its bank port in place, so the check Resource.acquire
        # makes on every duration is made once here.
        for latency in (read_latency_cycles, write_latency_cycles):
            if not 0 <= latency < math.inf:
                raise ValueError(
                    f"L2 {name!r} needs finite non-negative latencies, got {latency!r}")
        self.name = name
        self.line_bytes = line_bytes
        self.banks = banks
        self.read_latency_cycles = read_latency_cycles
        self.write_latency_cycles = write_latency_cycles
        self.read_only = read_only
        per_bank_size = size_bytes // banks
        self._bank_arrays: List[SetAssociativeCache] = [
            SetAssociativeCache(
                name=f"{name}_bank{i}",
                size_bytes=per_bank_size,
                assoc=assoc,
                line_bytes=line_bytes,
            )
            for i in range(banks)
        ]
        self._bank_ports: List[Resource] = [
            Resource(f"{name}_bank{i}_port", ports=1) for i in range(banks)
        ]
        self.write_bypasses = 0
        self.prefetch_insertions = 0

    # -- helpers ------------------------------------------------------------
    def bank_of(self, address: int) -> int:
        return (address // self.line_bytes) % self.banks

    def array(self, bank: int) -> SetAssociativeCache:
        return self._bank_arrays[bank]

    @classmethod
    def from_gpu_config(cls, config: GPUConfig, name: str = "l2_sram") -> "SharedL2Cache":
        return cls(
            name=name,
            size_bytes=config.l2_size_bytes,
            assoc=config.l2_assoc,
            line_bytes=config.l2_line_bytes,
            banks=config.l2_banks,
            read_latency_cycles=config.l2_read_latency_cycles,
            write_latency_cycles=config.l2_write_latency_cycles,
            read_only=False,
        )

    @classmethod
    def from_stt_mram_config(
        cls, config: STTMRAMConfig, name: str = "l2_stt_mram"
    ) -> "SharedL2Cache":
        return cls(
            name=name,
            size_bytes=config.size_bytes,
            assoc=config.assoc,
            line_bytes=config.line_bytes,
            banks=config.banks,
            read_latency_cycles=config.read_latency_cycles,
            write_latency_cycles=config.write_latency_cycles,
            read_only=True,
        )

    # -- access path --------------------------------------------------------
    def access(self, address: int, is_write: bool, now: float) -> Tuple[bool, float]:
        """Probe the L2 for a 128 B request; return ``(hit, ready_cycle)``.

        Write hits mark the line dirty; misses allocate nothing.  A
        *read-only* L2 (STT-MRAM) never allocates lines for writes and
        invalidates any stale copy instead, matching Section III-C.
        """
        line_number = address // self.line_bytes
        bank = line_number % self.banks
        array = self._bank_arrays[bank]
        latency = self.write_latency_cycles if is_write else self.read_latency_cycles
        # Resource.acquire on the single-port bank, inlined (one access per
        # request); keep in lockstep with Resource.acquire.
        port = self._bank_ports[bank]
        last = port.last_completion
        start = now if now > last else last
        port.last_completion = start + latency
        port.busy_cycles += latency
        port.wait_cycles += start - now
        port.requests_served += 1
        ready = start + latency

        if is_write and self.read_only:
            # Writes bypass the read-only L2; keep it coherent by invalidating.
            array.invalidate(address)
            self.write_bypasses += 1
            return False, ready

        # SetAssociativeCache.lookup, plus mark_dirty on a write hit, inlined;
        # keep in lockstep with SetAssociativeCache.lookup and
        # SetAssociativeCache._index_and_tag.
        num_sets = array.num_sets
        cache_set = array._sets.get(line_number % num_sets)
        if cache_set:
            tag = line_number // num_sets
            state = cache_set.pop(tag, None)
            if state is not None:
                cache_set[tag] = state | (ACCESSED | DIRTY if is_write else ACCESSED)
                array.hits += 1
                return True, ready
        array.misses += 1
        return False, ready

    def fill(
        self,
        address: int,
        now: float,
        dirty: bool = False,
        prefetched: bool = False,
        pinned: bool = False,
    ) -> Optional[Tuple[int, int]]:
        """Install one line (e.g. after a flash/DRAM fill or a prefetch).

        Fills are performed by the fill path of the bank and do not contend
        with the demand-access port.  (Booking the single demand port at the
        fill's future completion time would falsely delay earlier demand
        accesses.)  Returns the evicted ``(line_address, state_bits)``, if any.
        """
        evicted = self._bank_arrays[(address // self.line_bytes) % self.banks].insert(
            address, dirty, prefetched, pinned)
        if prefetched:
            self.prefetch_insertions += 1
        return evicted

    def fill_page(
        self,
        page_address: int,
        page_bytes: int,
        now: float,
        prefetched: bool = True,
        limit_bytes: Optional[int] = None,
    ) -> List[Tuple[int, int]]:
        """Install the lines of a fetched flash page (or a prefix of it).

        Inserts straight into the bank arrays (one insert per 128 B line)
        rather than through :meth:`fill`; page fills happen on every
        prefetched miss, so this loop is hot.  Returns the evicted lines in
        eviction order.
        """
        evictions: List[Tuple[int, int]] = []
        span = min(page_bytes, limit_bytes) if limit_bytes else page_bytes
        bank_arrays = self._bank_arrays
        line_bytes = self.line_bytes
        num_banks = self.banks
        lines = range(page_address, page_address + span, line_bytes)
        for address in lines:
            evicted = bank_arrays[(address // line_bytes) % num_banks].insert(
                address, False, prefetched)
            if evicted is not None:
                evictions.append(evicted)
        if prefetched:
            self.prefetch_insertions += len(lines)
        return evictions

    def probe(self, address: int) -> bool:
        return self._bank_arrays[self.bank_of(address)].probe(address)

    def pin_lines(self, addresses: List[int], now: float) -> List[Tuple[int, int]]:
        """Pin L2 lines to hold spilled dirty register data (Section IV-C).

        Returns the lines the pinning evicted, in eviction order.
        """
        evictions: List[Tuple[int, int]] = []
        for address in addresses:
            evicted = self.fill(address, now, dirty=True, pinned=True)
            if evicted is not None:
                evictions.append(evicted)
        return evictions

    def unpin_all(self) -> int:
        return sum(array.unpin_all() for array in self._bank_arrays)

    # -- statistics ---------------------------------------------------------
    @property
    def hits(self) -> int:
        return sum(a.hits for a in self._bank_arrays)

    @property
    def misses(self) -> int:
        return sum(a.misses for a in self._bank_arrays)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def size_bytes(self) -> int:
        return sum(a.size_bytes for a in self._bank_arrays)

    def reset_statistics(self) -> None:
        for array in self._bank_arrays:
            array.reset_statistics()
        self.write_bypasses = 0
        self.prefetch_insertions = 0
