"""A generic set-associative cache with LRU replacement.

Used for the private L1D caches, the banked shared L2 (SRAM and STT-MRAM
variants), the HybridGPU DRAM read/write buffer and the page-walk cache.  ZnG
extends the L2 tag array with *prefetch* and *accessed* bits (Section IV-B);
evictions report those bits so the prefetcher's access monitor can inspect
them.  An eviction is a plain ``(line_address, state_bits)`` tuple.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

# A tag-array entry is an int of state bits, not an object: the L2 holds
# hundreds of thousands of lines, and ints cost neither an allocation per
# insert nor garbage-collector traversal.
DIRTY = 1
#: ZnG tag-array extension (Section IV-B).
PREFETCHED = 2
ACCESSED = 4
#: Pinned lines hold dirty flash-register spill data (Section IV-C) and are
#: excluded from normal replacement while pinned.
PINNED = 8


class SetAssociativeCache:
    """An LRU set-associative cache indexed by byte address.

    The cache only models the tag array (no data payloads).  ``line_bytes``
    defines the allocation granularity; the ZnG L2 inserts whole 4 KB flash
    pages by inserting each 128 B line of the page.
    """

    def __init__(
        self,
        name: str,
        size_bytes: int,
        assoc: int,
        line_bytes: int,
    ) -> None:
        if size_bytes <= 0 or assoc <= 0 or line_bytes <= 0:
            raise ValueError("cache geometry must be positive")
        num_lines = size_bytes // line_bytes
        if num_lines < assoc:
            raise ValueError(f"cache {name!r} smaller than one set")
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.num_sets = max(1, num_lines // assoc)
        # Sets are allocated on first touch: a large L2 has thousands of sets
        # and eagerly building one dict per set dominates platform
        # construction at smoke scales, while most sweeps touch a fraction
        # of them.  Keyed by set index -> {tag: state bits}, each set kept in
        # LRU order: every touch moves its line to the end, so the first
        # unpinned line is the least recently used one.
        self._sets: Dict[int, Dict[int, int]] = {}
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.insertions = 0

    # -- address helpers ----------------------------------------------------
    def _index_and_tag(self, address: int) -> Tuple[int, int]:
        # NOTE: lookup() and insert() inline these two expressions (they are
        # the hottest paths); change the indexing scheme in all three places.
        line_number = address // self.line_bytes
        return line_number % self.num_sets, line_number // self.num_sets

    def line_address(self, address: int) -> int:
        return (address // self.line_bytes) * self.line_bytes

    # -- core operations ----------------------------------------------------
    def lookup(self, address: int, mark_accessed: bool = True) -> bool:
        """Probe the cache; on a hit the line becomes most recently used."""
        line_number = address // self.line_bytes
        num_sets = self.num_sets
        cache_set = self._sets.get(line_number % num_sets)
        if cache_set:
            tag = line_number // num_sets
            state = cache_set.pop(tag, None)
            if state is not None:
                cache_set[tag] = state | ACCESSED if mark_accessed else state
                self.hits += 1
                return True
        self.misses += 1
        return False

    def probe(self, address: int) -> bool:
        """Check residency without perturbing LRU state or statistics."""
        set_index, tag = self._index_and_tag(address)
        cache_set = self._sets.get(set_index)
        return cache_set is not None and tag in cache_set

    def insert(
        self,
        address: int,
        dirty: bool = False,
        prefetched: bool = False,
        pinned: bool = False,
    ) -> Optional[Tuple[int, int]]:
        """Allocate a line for ``address``; evict LRU if the set is full.

        Returns the evicted line as ``(line_address, state_bits)``, or
        ``None`` when nothing was evicted: the line was already resident,
        the set had room, or every line of the set was pinned and the
        allocation was bypassed.
        """
        line_number = address // self.line_bytes
        num_sets = self.num_sets
        set_index = line_number % num_sets
        tag = line_number // num_sets
        state = PREFETCHED if prefetched else ACCESSED
        if dirty:
            state |= DIRTY
        if pinned:
            state |= PINNED
        cache_set = self._sets.get(set_index)
        if cache_set is None:
            cache_set = self._sets[set_index] = {}
        else:
            existing = cache_set.pop(tag, None)
            if existing is not None:
                # A re-insert keeps the line's bits and ORs in the new ones;
                # a prefetch does not count as an access.
                cache_set[tag] = existing | (state & ~PREFETCHED)
                return None

        evicted = None
        if len(cache_set) >= self.assoc:
            for victim_tag, victim in cache_set.items():
                if not victim & PINNED:
                    break
            else:
                # Every line in the set is pinned: bypass the allocation.
                return None
            del cache_set[victim_tag]
            self.evictions += 1
            if victim & DIRTY:
                self.dirty_evictions += 1
            evicted = ((victim_tag * num_sets + set_index) * self.line_bytes, victim)
        cache_set[tag] = state
        self.insertions += 1
        return evicted

    def invalidate(self, address: int) -> bool:
        set_index, tag = self._index_and_tag(address)
        cache_set = self._sets.get(set_index)
        return cache_set is not None and cache_set.pop(tag, None) is not None

    def mark_dirty(self, address: int) -> bool:
        set_index, tag = self._index_and_tag(address)
        cache_set = self._sets.get(set_index)
        if not cache_set or tag not in cache_set:
            return False
        cache_set[tag] |= DIRTY  # an update in place keeps the LRU position
        return True

    def unpin_all(self) -> int:
        """Release every pinned line (used when register thrashing subsides)."""
        released = 0
        for cache_set in self._sets.values():
            for tag, state in cache_set.items():
                if state & PINNED:
                    cache_set[tag] = state & ~PINNED
                    released += 1
        return released

    # -- statistics ---------------------------------------------------------
    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        accesses = self.accesses
        return self.hits / accesses if accesses else 0.0

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets.values())

    def reset_statistics(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.dirty_evictions = 0
        self.insertions = 0

    def clear(self) -> None:
        self._sets = {}
        self.reset_statistics()
