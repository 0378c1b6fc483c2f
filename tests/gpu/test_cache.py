"""Unit and property tests for the set-associative cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.gpu.cache import SetAssociativeCache


def make_cache(size=4096, assoc=4, line=128):
    return SetAssociativeCache("test", size_bytes=size, assoc=assoc, line_bytes=line)


class TestGeometry:
    def test_set_count(self):
        cache = make_cache(size=4096, assoc=4, line=128)  # 32 lines, 8 sets
        assert cache.num_sets == 8

    def test_invalid_geometry_rejected(self):
        with pytest.raises(ValueError):
            make_cache(size=0)
        with pytest.raises(ValueError):
            SetAssociativeCache("tiny", size_bytes=128, assoc=4, line_bytes=128)

    def test_line_address(self):
        cache = make_cache()
        assert cache.line_address(1000) == 896


class TestLookupInsert:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert not cache.lookup(0x1000)
        cache.insert(0x1000)
        assert cache.lookup(0x1000)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_same_line_aliases(self):
        cache = make_cache()
        cache.insert(0x1000)
        assert cache.lookup(0x1000 + 64)  # same 128 B line

    def test_probe_does_not_touch_stats(self):
        cache = make_cache()
        cache.insert(0x1000)
        cache.probe(0x1000)
        cache.probe(0x9999)
        assert cache.hits == 0
        assert cache.misses == 0

    def test_insert_existing_line_is_hit(self):
        cache = make_cache()
        cache.insert(0x1000)
        assert cache.insert(0x1000) is None
        assert cache.insertions == 1  # a re-insert is a hit, not an allocation

    def test_lru_eviction(self):
        cache = make_cache(size=1024, assoc=2, line=128)  # 4 sets, 2 ways
        base = 0
        way_stride = cache.num_sets * cache.line_bytes
        cache.insert(base)                     # way 0
        cache.insert(base + way_stride)        # way 1
        cache.lookup(base)                     # make way 0 MRU
        evicted = cache.insert(base + 2 * way_stride)
        assert evicted is not None
        assert evicted.address == base + way_stride

    def test_eviction_reports_dirty(self):
        cache = make_cache(size=1024, assoc=1, line=128)
        stride = cache.num_sets * cache.line_bytes
        cache.insert(0, dirty=True)
        evicted = cache.insert(stride)
        assert evicted is not None
        assert evicted.dirty
        assert cache.dirty_evictions == 1

    def test_mark_dirty(self):
        cache = make_cache()
        cache.insert(0x40)
        assert cache.mark_dirty(0x40)
        assert not cache.mark_dirty(0xFFFF00)

    def test_invalidate(self):
        cache = make_cache()
        cache.insert(0x80)
        assert cache.invalidate(0x80)
        assert not cache.lookup(0x80)
        assert not cache.invalidate(0x80)


class TestZnGTagExtensions:
    def test_prefetched_unaccessed_eviction_record(self):
        cache = make_cache(size=1024, assoc=1, line=128)
        stride = cache.num_sets * cache.line_bytes
        cache.insert(0, prefetched=True)
        evicted = cache.insert(stride)
        assert evicted.prefetched
        assert not evicted.accessed

    def test_access_clears_waste_signal(self):
        cache = make_cache(size=1024, assoc=1, line=128)
        stride = cache.num_sets * cache.line_bytes
        cache.insert(0, prefetched=True)
        cache.lookup(0)
        evicted = cache.insert(stride)
        assert evicted.prefetched
        assert evicted.accessed

    def test_pinned_lines_survive_eviction(self):
        cache = make_cache(size=1024, assoc=2, line=128)
        stride = cache.num_sets * cache.line_bytes
        cache.insert(0, pinned=True)
        cache.insert(stride)
        evicted = cache.insert(2 * stride)
        # The pinned line must not be the victim.
        assert evicted.address == stride

    def test_fully_pinned_set_bypasses(self):
        cache = make_cache(size=1024, assoc=1, line=128)
        stride = cache.num_sets * cache.line_bytes
        cache.insert(0, pinned=True)
        assert cache.insert(stride) is None
        # Bypassed: nothing was allocated and the pinned line stays.
        assert cache.insertions == 1
        assert not cache.probe(stride)
        assert cache.probe(0)

    def test_unpin_all(self):
        cache = make_cache()
        cache.insert(0, pinned=True)
        cache.insert(128, pinned=True)
        assert cache.unpin_all() == 2
        assert cache.unpin_all() == 0


class TestStatistics:
    def test_hit_rate(self):
        cache = make_cache()
        cache.insert(0)
        cache.lookup(0)
        cache.lookup(4096 * 64)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_occupancy_and_clear(self):
        cache = make_cache()
        cache.insert(0)
        cache.insert(128)
        assert cache.occupancy == 2
        cache.clear()
        assert cache.occupancy == 0


class TestProperties:
    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, addresses):
        cache = make_cache(size=2048, assoc=2, line=128)
        capacity = 2048 // 128
        for address in addresses:
            cache.insert(address)
            assert cache.occupancy <= capacity

    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_inserted_line_immediately_resident(self, addresses):
        cache = make_cache(size=4096, assoc=4, line=128)
        for address in addresses:
            cache.insert(address)
            assert cache.probe(address)  # no line is pinned, so none bypasses

    @given(addresses=st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=300))
    @settings(max_examples=30, deadline=None)
    def test_hits_plus_misses_equals_lookups(self, addresses):
        cache = make_cache()
        for address in addresses:
            cache.lookup(address)
            cache.insert(address)
        assert cache.hits + cache.misses == len(addresses)


class ReferenceLRU:
    """The replaced tag array: a per-line use clock and a min-scan victim.

    Kept here as the executable specification the dict-order LRU must match.
    """

    def __init__(self, num_sets, assoc, line_bytes):
        self.num_sets = num_sets
        self.assoc = assoc
        self.line_bytes = line_bytes
        self.sets = {}
        self.clock = 0
        self.hits = self.misses = self.evictions = 0
        self.dirty_evictions = self.insertions = 0

    def _locate(self, address):
        line_number = address // self.line_bytes
        return (self.sets.setdefault(line_number % self.num_sets, {}),
                line_number % self.num_sets, line_number // self.num_sets)

    def lookup(self, address, mark_accessed=True):
        lines, _, tag = self._locate(address)
        line = lines.get(tag)
        if line is None:
            self.misses += 1
            return False
        self.clock += 1
        line["last_use"] = self.clock
        if mark_accessed:
            line["accessed"] = True
        self.hits += 1
        return True

    def insert(self, address, dirty, prefetched, pinned):
        lines, set_index, tag = self._locate(address)
        self.clock += 1
        line = lines.get(tag)
        if line is not None:
            line["last_use"] = self.clock
            line["dirty"] = line["dirty"] or dirty
            line["pinned"] = line["pinned"] or pinned
            if not prefetched:
                line["accessed"] = True
            return (True, None, False)
        evicted = None
        if len(lines) >= self.assoc:
            unpinned = [(old["last_use"], old_tag) for old_tag, old in lines.items()
                        if not old["pinned"]]
            if not unpinned:
                return (False, None, True)
            victim_tag = min(unpinned)[1]
            victim = lines.pop(victim_tag)
            self.evictions += 1
            self.dirty_evictions += victim["dirty"]
            evicted = ((victim_tag * self.num_sets + set_index) * self.line_bytes,
                       victim["dirty"], victim["prefetched"], victim["accessed"])
        lines[tag] = {"last_use": self.clock, "dirty": dirty, "prefetched": prefetched,
                      "accessed": not prefetched, "pinned": pinned}
        self.insertions += 1
        return (False, evicted, False)

    def invalidate(self, address):
        lines, _, tag = self._locate(address)
        return lines.pop(tag, None) is not None

    def mark_dirty(self, address):
        lines, _, tag = self._locate(address)
        if tag not in lines:
            return False
        lines[tag]["dirty"] = True
        return True

    def unpin_all(self):
        released = 0
        for lines in self.sets.values():
            for line in lines.values():
                released += line["pinned"]
                line["pinned"] = False
        return released


# Sixteen distinct lines (plus an in-line offset) over two 4-way sets, so
# sets overflow, lines get re-touched and pinned sets fill up.  Inserts and
# lookups dominate, and one insert in five pins, so most full sets still
# hold several unpinned lines to choose a victim from.
_addresses = st.builds(lambda line, offset: line * 128 + offset,
                       st.integers(0, 15), st.sampled_from([0, 64]))
_insert = st.tuples(st.just("insert"), _addresses, st.booleans(), st.booleans(),
                    st.sampled_from([False, False, False, False, True]))
_lookup = st.tuples(st.just("lookup"), _addresses, st.booleans())
_operations = st.one_of(
    _insert, _insert, _insert, _lookup, _lookup,
    st.tuples(st.just("invalidate"), _addresses),
    st.tuples(st.just("mark_dirty"), _addresses),
    st.tuples(st.just("unpin_all")),
)


class TestLRUMatchesUseClockModel:
    @given(operations=st.lists(_operations, min_size=40, max_size=160))
    @settings(max_examples=100, deadline=None)
    def test_same_outcomes_as_reference(self, operations):
        cache = make_cache(size=1024, assoc=4, line=128)
        model = ReferenceLRU(cache.num_sets, cache.assoc, cache.line_bytes)
        for name, *args in operations:
            if name == "insert":
                # insert() returns only the eviction: a hit is a call that
                # leaves the line resident without an allocation, a bypass
                # one that leaves it absent.
                insertions = cache.insertions
                evicted = cache.insert(*args)
                allocated = cache.insertions != insertions
                resident = cache.probe(args[0])
                got = (resident and not allocated,
                       None if evicted is None else (evicted.address, evicted.dirty,
                                                     evicted.prefetched, evicted.accessed),
                       not resident)
                assert got == model.insert(*args)
            else:
                assert getattr(cache, name)(*args) == getattr(model, name)(*args)
        for counter in ("hits", "misses", "evictions", "dirty_evictions", "insertions"):
            assert getattr(cache, counter) == getattr(model, counter), counter
        assert cache.occupancy == sum(len(lines) for lines in model.sets.values())
