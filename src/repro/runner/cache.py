"""The on-disk memoization store for finished sweep cells.

:class:`ResultCache` stores content-addressed
``{"version", "key", "cell", "result"}`` JSON records keyed by a cell's
sha256 content hash (see ``SweepCell.cache_key``), with hit/miss
accounting::

    <root>/
      <key[:2]>/<key>.json    one finished cell per file

Entries are written atomically (tmp file + rename).  A corrupted or
stale-versioned entry is treated as a miss: it is deleted and the cell is
recomputed, so a torn write can never poison a sweep.  Point several
processes or hosts at one directory (a shared filesystem) and they share
hits through the same keys.

:func:`open_cache` turns a user-supplied location into a cache (or ``None``).
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Dict, Optional, Union

from repro.platforms.base import PlatformResult

#: Bump when the record schema changes; older entries become misses.
#: v2: histograms serialise as streaming state dictionaries, not sample lists.
#: v3: cell descriptors are hashed with the strict canonical encoder
#:     (repro.configspace.fingerprint) instead of json.dumps(default=str),
#:     whose lossy stringification could alias distinct configs; override
#:     values are schema-coerced before hashing.  Old entries are recomputed,
#:     never trusted.
#: v4: cell descriptors incorporate the resolved workload fingerprint
#:     (family parameters / trace-file content hash from
#:     repro.workloads.registry), so workload-definition changes can never
#:     alias pre-registry entries.
#: v5: the ``sim`` config group is gone, so every config fingerprint
#:     changed; v4 entries are recomputed.
#: v6: histograms keep only count/total/min/max, no retained samples, and
#:     records load strictly: a missing field makes a corrupt entry.
#: v7: ``extra`` carries the MSHR, L2, wait-cycle and flash-command counters,
#:     and ``workload`` names the cell's token, not its trace's spec.
CACHE_VERSION = 7

#: A ``*.tmp`` file older than this is an orphan from an interrupted ``put``
#: (killed between ``mkstemp`` and ``os.replace``) and safe to delete; younger
#: ones may belong to a concurrent writer and are left alone.
STALE_TMP_SECONDS = 600.0

#: Roots already swept for orphans by this process.  The sweep walks every
#: shard directory, so it runs once per process per root — not once per
#: ResultCache instance, of which the figure layers create one per sweep.
_GC_SWEPT_ROOTS: set = set()

#: Default cache root (override per-sweep or with REPRO_CACHE_DIR).
DEFAULT_CACHE_DIR = ".repro-cache"


def default_cache_dir() -> Path:
    return Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))


class ResultCache:
    """A content-addressed on-disk store of finished cells."""

    def __init__(self, root: Optional[os.PathLike] = None) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt_dropped = 0
        self.tmp_collected = 0
        self._tmp_gc_done = False

    # ------------------------------------------------------------------
    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def path_for(self, key: str) -> Path:
        """Where ``key``'s entry lives (whether or not it exists yet).

        Public so the manifest/merge layer and tests can reason about
        individual entries — e.g. simulating a mid-sweep kill by deleting
        exactly the cells a resume must re-execute.
        """
        return self._path(key)

    def collect_stale_tmp_files(self, min_age_seconds: float = STALE_TMP_SECONDS) -> int:
        """Delete orphaned ``*.tmp`` files left by interrupted writes.

        ``put`` writes via ``mkstemp`` + ``os.replace``; a process killed in
        between leaks the tmp file forever.  Runs automatically on the first
        access of each :class:`ResultCache` instance and on :meth:`clear`.
        Only files older than ``min_age_seconds`` are collected so a writer
        racing in another process is never robbed of its in-flight file.
        """
        removed = 0
        if self.root.exists():
            cutoff = time.time() - min_age_seconds
            for tmp in self.root.glob("*/*.tmp"):
                try:
                    if tmp.stat().st_mtime <= cutoff:
                        tmp.unlink()
                        removed += 1
                except OSError:
                    continue
        self.tmp_collected += removed
        return removed

    def _gc_on_first_access(self) -> None:
        if self._tmp_gc_done:
            return
        self._tmp_gc_done = True
        root_key = str(self.root.resolve())
        if root_key in _GC_SWEPT_ROOTS:
            return
        _GC_SWEPT_ROOTS.add(root_key)
        self.collect_stale_tmp_files()

    def get(self, key: str) -> Optional[PlatformResult]:
        """Return the cached result for ``key``, or ``None`` on miss.

        Any unreadable entry — truncated JSON, wrong schema version, missing
        fields — is dropped and reported as a miss.
        """
        self._gc_on_first_access()
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            if not isinstance(payload, dict):
                raise ValueError("cache entry is not a JSON object")
            if payload.get("version") != CACHE_VERSION or payload.get("key") != key:
                raise ValueError("stale or mismatched cache entry")
            result = PlatformResult.from_record(payload["result"])
        except FileNotFoundError:
            self.misses += 1
            return None
        except (ValueError, KeyError, TypeError, OSError):
            self.corrupt_dropped += 1
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return result

    def put(self, key: str, result: PlatformResult, cell_descriptor: Dict[str, object]) -> None:
        """Persist one finished cell atomically."""
        self._gc_on_first_access()
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": CACHE_VERSION,
            "key": key,
            "cell": cell_descriptor,
            "result": result.to_record(),
        }
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(json.dumps(payload))
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.stores += 1

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed.

        Also sweeps orphaned tmp files (regardless of age — clearing is
        destructive by intent) and removes shard directories left empty, so
        a cleared cache directory does not accumulate dead ``<key[:2]>/``
        subdirectories across clear/refill cycles.
        """
        removed = 0
        if self.root.exists():
            for entry in self.root.glob("*/*.json"):
                try:
                    entry.unlink()
                    removed += 1
                except OSError:
                    pass
            self.collect_stale_tmp_files(min_age_seconds=0.0)
            for shard in self.root.iterdir():
                if shard.is_dir():
                    try:
                        shard.rmdir()  # only succeeds when the shard is empty
                    except OSError:
                        pass
        return removed


def open_cache(
    location: Union[ResultCache, os.PathLike, str, None, bool],
) -> Optional[ResultCache]:
    """Turn a user-supplied cache location into a cache (or ``None``).

    * ``False``/``None`` — caching disabled.
    * ``True`` — the default directory (``.repro-cache`` or
      ``$REPRO_CACHE_DIR``).
    * a :class:`ResultCache` — used as-is.
    * anything else — a directory path.
    """
    if location is False or location is None:
        return None
    if isinstance(location, ResultCache):
        return location
    if location is True:
        return ResultCache()
    if isinstance(location, str) and "://" in location:
        # A URL must not silently become a local directory named "http:/...".
        raise ValueError(
            f"cache location must be a directory path, got the URL {location!r}")
    return ResultCache(location)
