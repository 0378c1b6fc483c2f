"""Tests for the on-disk result cache: hit/miss semantics and corruption recovery."""

import json

import pytest

from repro.platforms.base import GPUSSDPlatform, PlatformResult
from repro.runner import (
    CACHE_VERSION,
    ResultCache,
    SweepSpec,
    build_cell_trace,
    default_cache_dir,
    open_cache,
)


@pytest.fixture(scope="module")
def cell():
    spec = SweepSpec.create(
        platforms=["ZnG-base"],
        workloads=["betw-back"],
        scale=0.05,
        warps_per_sm=2,
        memory_instructions_per_warp=12,
    )
    return spec.cells()[0]


def simulate(cell):
    return GPUSSDPlatform.execute(
        cell.platform, build_cell_trace(cell), cell.resolved_config())


@pytest.fixture(scope="module")
def result(cell):
    return simulate(cell)


def _entry_path(cache, key):
    return cache.root / key[:2] / f"{key}.json"


class TestHitMiss:
    def test_empty_cache_misses(self, tmp_path, cell):
        cache = ResultCache(tmp_path)
        assert cache.get(cell.cache_key()) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_put_then_get_hits_identically(self, tmp_path, cell, result):
        cache = ResultCache(tmp_path)
        key = cell.cache_key()
        cache.put(key, result, cell.descriptor())
        restored = cache.get(key)
        assert restored is not None
        assert cache.hits == 1
        assert restored.stats.as_dict() == result.stats.as_dict()
        assert restored.ipc == result.ipc
        assert restored.latency_breakdown == result.latency_breakdown

    def test_different_key_still_misses(self, tmp_path, cell, result):
        cache = ResultCache(tmp_path)
        cache.put(cell.cache_key(), result, cell.descriptor())
        assert cache.get("0" * 64) is None

    def test_len_and_clear(self, tmp_path, cell, result):
        cache = ResultCache(tmp_path)
        cache.put(cell.cache_key(), result, cell.descriptor())
        assert len(cache) == 1
        assert cache.clear() == 1
        assert len(cache) == 0


class TestOpenCache:
    def test_locations(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert open_cache(False) is None and open_cache(None) is None
        assert open_cache(cache) is cache
        assert open_cache(str(tmp_path)).root == tmp_path
        assert open_cache(True).root == default_cache_dir()

    @pytest.mark.parametrize("url", ["http://host:8080/cache", "s3://bucket"])
    def test_url_is_rejected_not_made_a_directory(self, tmp_path, url,
                                                  monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match="must be a directory path"):
            open_cache(url)
        assert not list(tmp_path.iterdir())


def _delete_field(dotted):
    """Corrupt an entry by deleting one field of its result record."""
    def corrupt(text):
        payload = json.loads(text)
        *parents, leaf = dotted.split(".")
        node = payload["result"]
        for name in parents:
            node = node[name]
        del node[leaf]
        return json.dumps(payload)
    return corrupt


#: Ways an entry can be corrupt; each must be dropped, never loaded.
CORRUPTIONS = {
    "truncated": lambda text: text[: len(text) // 2],
    **{field: _delete_field(field) for field in (
        "execution.events",
        "execution.per_sm",
        "l2_hit_rate",
        "extra",
        "stats.breakdown",
        "stats.histograms.request_latency.max",
    )},
}


class TestCorruptionRecovery:
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_corrupt_entry_dropped_and_recomputed(self, tmp_path, cell, result,
                                                  corruption):
        cache = ResultCache(tmp_path)
        key = cell.cache_key()
        cache.put(key, result, cell.descriptor())
        path = _entry_path(cache, key)
        path.write_text(CORRUPTIONS[corruption](path.read_text()))

        assert cache.get(key) is None
        assert cache.corrupt_dropped == 1
        assert not path.exists(), "corrupt entry must be deleted"

        # The cell recomputes and repopulates; the fresh entry then hits.
        recomputed = simulate(cell)
        cache.put(key, recomputed, cell.descriptor())
        assert cache.get(key).stats.as_dict() == result.stats.as_dict()

    def test_wrong_version_treated_as_miss(self, tmp_path, cell, result):
        cache = ResultCache(tmp_path)
        key = cell.cache_key()
        cache.put(key, result, cell.descriptor())
        path = _entry_path(cache, key)
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert not path.exists()

    def test_previous_version_entry_is_recomputed(self, tmp_path, cell, result):
        """A v5 entry keeps retained latency samples; it must recompute."""
        cache = ResultCache(tmp_path)
        key = cell.cache_key()
        cache.put(key, result, cell.descriptor())
        path = _entry_path(cache, key)
        payload = json.loads(path.read_text())
        payload["version"] = CACHE_VERSION - 1
        latency = payload["result"]["stats"]["histograms"]["request_latency"]
        latency["samples"] = [latency["min"], latency["max"]]
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None
        assert not path.exists()

    def test_key_mismatch_treated_as_miss(self, tmp_path, cell, result):
        cache = ResultCache(tmp_path)
        key = cell.cache_key()
        cache.put(key, result, cell.descriptor())
        path = _entry_path(cache, key)
        payload = json.loads(path.read_text())
        payload["key"] = "f" * 64
        path.write_text(json.dumps(payload))
        assert cache.get(key) is None

    @pytest.mark.parametrize("content", ["null", "123", '"x"', "[]"])
    def test_non_object_json_treated_as_miss(self, tmp_path, cell, result, content):
        cache = ResultCache(tmp_path)
        key = cell.cache_key()
        cache.put(key, result, cell.descriptor())
        path = _entry_path(cache, key)
        path.write_text(content)
        assert cache.get(key) is None
        assert not path.exists()

    def test_garbage_json_object_treated_as_miss(self, tmp_path, cell, result):
        cache = ResultCache(tmp_path)
        key = cell.cache_key()
        path = _entry_path(cache, key)
        path.parent.mkdir(parents=True)
        path.write_text('{"version": %d, "key": "%s"}' % (CACHE_VERSION, key))
        assert cache.get(key) is None


class TestTmpFileGarbageCollection:
    """An interrupted ``put`` (killed between mkstemp and os.replace) leaks a
    ``*.tmp`` file; the cache must collect such orphans instead of hoarding
    them forever, without racing a concurrent writer's fresh tmp file."""

    @staticmethod
    def _make_tmp(root, name, age_seconds):
        import os
        import time

        shard = root / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        tmp = shard / name
        tmp.write_text("torn write")
        stamp = time.time() - age_seconds
        os.utime(tmp, (stamp, stamp))
        return tmp

    def test_stale_tmp_collected_on_first_access(self, tmp_path, cell):
        orphan = self._make_tmp(tmp_path, "orphan.tmp", age_seconds=3600)
        cache = ResultCache(tmp_path)
        cache.get(cell.cache_key())  # any access triggers the sweep
        assert not orphan.exists()
        assert cache.tmp_collected == 1

    def test_fresh_tmp_left_alone(self, tmp_path, cell):
        fresh = self._make_tmp(tmp_path, "inflight.tmp", age_seconds=0)
        cache = ResultCache(tmp_path)
        cache.get(cell.cache_key())
        assert fresh.exists(), "a concurrent writer's tmp file must survive"
        assert cache.tmp_collected == 0

    def test_put_triggers_collection_too(self, tmp_path, cell, result):
        orphan = self._make_tmp(tmp_path, "orphan.tmp", age_seconds=3600)
        cache = ResultCache(tmp_path)
        cache.put(cell.cache_key(), result, cell.descriptor())
        assert not orphan.exists()
        assert cache.get(cell.cache_key()) is not None

    def test_clear_removes_tmp_files_and_empty_shard_dirs(self, tmp_path, cell, result):
        cache = ResultCache(tmp_path)
        cache.put(cell.cache_key(), result, cell.descriptor())
        self._make_tmp(tmp_path, "orphan.tmp", age_seconds=0)  # even fresh ones
        assert cache.clear() == 1
        leftovers = list(tmp_path.rglob("*"))
        assert leftovers == [], f"clear left {leftovers} behind"

    def test_interrupted_put_leaves_no_entry(self, tmp_path, cell, result, monkeypatch):
        import os

        cache = ResultCache(tmp_path)
        key = cell.cache_key()

        def explode(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", explode)
        with pytest.raises(OSError):
            cache.put(key, result, cell.descriptor())
        monkeypatch.undo()
        # The failed put cleaned up after itself: no entry, no tmp litter.
        assert cache.get(key) is None
        assert list(tmp_path.glob("*/*.tmp")) == []


class TestRecordRoundTrip:
    def test_json_round_trip_is_lossless(self, result):
        record = json.loads(json.dumps(result.to_record()))
        restored = PlatformResult.from_record(record)
        assert restored.stats.to_dict() == result.stats.to_dict()
        assert restored.execution.cycles == result.execution.cycles
        assert restored.execution.per_sm == result.execution.per_sm
        assert restored.extra == result.extra
