"""Run manifests: durable, mergeable records of sweep execution.

A manifest is the unit of *resumable, sharded* sweeps.  Every manifest-writing
run (``python -m repro sweep`` writes one into its cache directory by default)
persists, schema-versioned::

    {
      "schema": "repro-run-manifest-v1",
      "spec_fingerprint": "<sha256 of the declared grid>",
      "spec": {...},                    # SweepSpec.descriptor(): reconstructible
      "shard": {"index": 0, "count": 3},   # 0-based; 0/1 when unsharded
      "cache_dir": ".repro-cache",
      "elapsed_seconds": 1.8,
      "cells": [
        {"platform": ..., "workload": ..., "override_label": ...,
         "cache_key": "<sha256>", "status": "ok|failed|pending",
         "from_cache": false, "elapsed_seconds": 0.31, "error": null,
         "start_seconds": 0.02, "worker_pid": 4711},
        ...
      ]
    }

The manifest is rewritten atomically after every finished cell, so a run
killed mid-sweep leaves an accurate record: completed cells are ``ok`` (and
in the result cache), the rest stay ``pending``.  :func:`resume_sweep` then
re-executes only the cells whose results are not already cached.

:func:`merge_manifests` folds N shard manifests (+ their result caches) back
into one :class:`~repro.runner.runner.SweepResult`, *verifying completeness*
first: every manifest must declare the same spec fingerprint, every cell of
the reconstructed spec must be accounted for exactly once with status ``ok``,
and every result must load from a cache.  Any withheld shard, duplicated
cell, failed cell or missing cache entry raises :class:`MergeError` — a merge
never silently emits a partial grid.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.runner.cache import ResultCache
from repro.runner.runner import CellRun, SweepResult, SweepRunner
from repro.runner.spec import SweepCell, SweepShard, SweepSpec

#: Bump when the manifest payload shape changes; older manifests are rejected
#: loudly (a manifest drives re-execution — guessing is worse than failing).
MANIFEST_SCHEMA = "repro-run-manifest-v1"

STATUS_PENDING = "pending"
STATUS_OK = "ok"
STATUS_FAILED = "failed"
_STATUSES = (STATUS_PENDING, STATUS_OK, STATUS_FAILED)


def _optional(kind, value):
    return None if value is None else kind(value)


def _reason(error: Exception) -> object:
    """An exception's message, without the quotes ``str()`` puts round a
    ``KeyError``'s."""
    return error.args[0] if error.args else error


class ManifestError(ValueError):
    """A manifest could not be read, or does not match the current code."""


class MergeError(ManifestError):
    """Shard manifests do not fold into one complete, unique sweep."""


def default_manifest_name(shard_index: int = 0, shard_count: int = 1) -> str:
    """The CLI's manifest filename inside the cache root (1-based for humans)."""
    if shard_count <= 1:
        return "manifest.json"
    return f"manifest.shard-{shard_index + 1}-of-{shard_count}.json"


@dataclass
class ManifestCell:
    """One cell's durable execution record.

    ``timings`` is the worker-side phase split of an *executed* cell
    (``trace_build_seconds`` / ``simulate_seconds``), empty for cache-served
    cells — preserved so a merged result can reconstruct honest perf
    aggregates instead of pretending every cell was a cache read.
    ``elapsed_seconds`` is their sum (the human-readable number).
    ``start_seconds`` (the cell's start, counted from the run's) and
    ``worker_pid`` place an executed cell on the report's timeline; both are
    ``None`` for cache-served cells and in manifests written before them.
    """

    platform: str
    workload: str
    override_label: str
    cache_key: str
    status: str = STATUS_PENDING
    from_cache: bool = False
    elapsed_seconds: float = 0.0
    timings: Dict[str, float] = field(default_factory=dict)
    error: Optional[str] = None
    start_seconds: Optional[float] = None
    worker_pid: Optional[int] = None

    def to_payload(self) -> Dict[str, object]:
        return {
            "platform": self.platform,
            "workload": self.workload,
            "override_label": self.override_label,
            "cache_key": self.cache_key,
            "status": self.status,
            "from_cache": self.from_cache,
            "elapsed_seconds": self.elapsed_seconds,
            "timings": dict(self.timings),
            "error": self.error,
            "start_seconds": self.start_seconds,
            "worker_pid": self.worker_pid,
        }

    @classmethod
    def from_payload(cls, payload: Mapping[str, object]) -> "ManifestCell":
        try:
            cell = cls(
                platform=str(payload["platform"]),
                workload=str(payload["workload"]),
                override_label=str(payload["override_label"]),
                cache_key=str(payload["cache_key"]),
                status=str(payload["status"]),
                from_cache=bool(payload["from_cache"]),
                elapsed_seconds=float(payload["elapsed_seconds"]),  # type: ignore[arg-type]
                timings={str(k): float(v)  # type: ignore[arg-type]
                         for k, v in dict(payload.get("timings", {})).items()},
                error=payload.get("error"),  # type: ignore[arg-type]
                start_seconds=_optional(float, payload.get("start_seconds")),
                worker_pid=_optional(int, payload.get("worker_pid")),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ManifestError(
                f"malformed manifest cell record: {_reason(error)}")
        if cell.status not in _STATUSES:
            raise ManifestError(
                f"manifest cell {cell.platform}/{cell.workload} has unknown "
                f"status {cell.status!r} (known: {_STATUSES})")
        return cell

    @property
    def label(self) -> str:
        if self.override_label == "default":
            return f"{self.platform}/{self.workload}"
        return f"{self.platform}/{self.workload}/{self.override_label}"


@dataclass
class RunManifest:
    """The durable record of one (possibly sharded) sweep run."""

    spec_payload: Dict[str, object]
    spec_fingerprint: str
    cells: List[ManifestCell]
    shard_index: int = 0
    shard_count: int = 1
    cache_dir: str = ""
    elapsed_seconds: float = 0.0
    #: Where this manifest was last written/read (not serialised).
    path: Optional[Path] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        self._by_key = {cell.cache_key: cell for cell in self.cells}

    # ------------------------------------------------------------------
    @classmethod
    def for_run(
        cls,
        spec: SweepSpec,
        cells: Sequence[SweepCell],
        shard_index: int = 0,
        shard_count: int = 1,
        cache_dir: str = "",
    ) -> "RunManifest":
        """A fresh all-``pending`` manifest for the cells about to run."""
        return cls(
            spec_payload=spec.descriptor(),
            spec_fingerprint=spec.fingerprint(),
            cells=[
                ManifestCell(
                    platform=cell.platform,
                    workload=cell.workload,
                    override_label=cell.override_set.label,
                    cache_key=cell.cache_key(),
                )
                for cell in cells
            ],
            shard_index=shard_index,
            shard_count=shard_count,
            cache_dir=cache_dir,
        )

    def mark(
        self,
        cache_key: str,
        status: str,
        from_cache: bool = False,
        timings: Optional[Mapping[str, float]] = None,
        error: Optional[str] = None,
        start_seconds: Optional[float] = None,
        worker_pid: Optional[int] = None,
    ) -> None:
        cell = self._by_key[cache_key]
        cell.status = status
        cell.from_cache = from_cache
        cell.timings = dict(timings or {})
        cell.elapsed_seconds = sum(cell.timings.values())
        cell.error = error
        cell.start_seconds = start_seconds
        cell.worker_pid = worker_pid

    def mark_cached(
        self, cache_key: str, resumed: Optional["RunManifest"] = None
    ) -> None:
        """Mark a cell the cache served ``ok``.

        If ``resumed`` (the manifest of the run being resumed) records the
        cell ``ok``, the cell keeps that record: how the earlier run got it,
        its timings, its start offset (counted from the earlier run's start)
        and its worker.
        """
        earlier = None if resumed is None else resumed._by_key.get(cache_key)
        if earlier is None or earlier.status != STATUS_OK:
            self.mark(cache_key, STATUS_OK, from_cache=True)
            return
        self.mark(cache_key, STATUS_OK, from_cache=earlier.from_cache,
                  timings=earlier.timings, start_seconds=earlier.start_seconds,
                  worker_pid=earlier.worker_pid)

    def counts(self) -> Dict[str, int]:
        out = {status: 0 for status in _STATUSES}
        for cell in self.cells:
            out[cell.status] += 1
        return out

    def provenance(self) -> Dict[str, object]:
        """A flat summary for report headers: where these numbers came from.

        Purely derived from already-persisted fields — the v1 on-disk schema
        is unchanged.
        """
        return {
            "schema": MANIFEST_SCHEMA,
            "spec_fingerprint": self.spec_fingerprint,
            "shard": f"{self.shard_index + 1}/{self.shard_count}",
            "cells": len(self.cells),
            "counts": self.counts(),
            "cache_dir": self.cache_dir,
            "elapsed_seconds": self.elapsed_seconds,
            "path": str(self.path) if self.path is not None else "",
        }

    # ------------------------------------------------------------------
    def to_payload(self) -> Dict[str, object]:
        return {
            "schema": MANIFEST_SCHEMA,
            "spec_fingerprint": self.spec_fingerprint,
            "spec": self.spec_payload,
            "shard": {"index": self.shard_index, "count": self.shard_count},
            "cache_dir": self.cache_dir,
            "elapsed_seconds": self.elapsed_seconds,
            "cells": [cell.to_payload() for cell in self.cells],
        }

    def write(self, path: Union[os.PathLike, str, None] = None) -> Path:
        """Atomically persist the manifest (tmp file + rename)."""
        target = Path(path) if path is not None else self.path
        if target is None:
            raise ValueError("manifest has no path to write to")
        target.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=target.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.to_payload(), handle, indent=1, sort_keys=True)
                handle.write("\n")
            os.replace(tmp_name, target)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        self.path = target
        return target

    @classmethod
    def load(cls, path: Union[os.PathLike, str]) -> "RunManifest":
        """Read and validate one manifest; raises :class:`ManifestError`.

        Keys this code does not read are ignored, so a manifest that carries
        the ``dispatch`` block of the retired lease queue loads unchanged.
        """
        source = Path(path)
        try:
            payload = json.loads(source.read_text())
        except OSError as error:
            raise ManifestError(f"cannot read manifest {source}: {error}")
        except json.JSONDecodeError as error:
            raise ManifestError(f"manifest {source} is not valid JSON: {error}")
        if not isinstance(payload, dict):
            raise ManifestError(f"manifest {source} is not a JSON object")
        if payload.get("schema") != MANIFEST_SCHEMA:
            raise ManifestError(
                f"manifest {source} has schema {payload.get('schema')!r}; "
                f"this code reads {MANIFEST_SCHEMA!r}")
        try:
            shard = payload["shard"]
            manifest = cls(
                spec_payload=dict(payload["spec"]),
                spec_fingerprint=str(payload["spec_fingerprint"]),
                cells=[ManifestCell.from_payload(cell) for cell in payload["cells"]],
                shard_index=int(shard["index"]),
                shard_count=int(shard["count"]),
                cache_dir=str(payload.get("cache_dir", "")),
                elapsed_seconds=float(payload.get("elapsed_seconds", 0.0)),
                path=source,
            )
        except (KeyError, TypeError, ValueError) as error:
            if isinstance(error, ManifestError):
                raise
            raise ManifestError(
                f"manifest {source} is malformed: {_reason(error)}")
        if not 0 <= manifest.shard_index < manifest.shard_count:
            raise ManifestError(
                f"manifest {source} declares shard "
                f"{manifest.shard_index}/{manifest.shard_count}")
        return manifest

    # ------------------------------------------------------------------
    def spec(self) -> SweepSpec:
        """Reconstruct the declared grid (re-validated against current code)."""
        try:
            spec = SweepSpec.from_descriptor(self.spec_payload)
        except (KeyError, TypeError, ValueError) as error:
            raise ManifestError(
                f"manifest spec cannot be reconstructed: {_reason(error)}")
        if spec.fingerprint() != self.spec_fingerprint:
            raise ManifestError(
                "manifest spec fingerprint does not match its reconstruction "
                "— the manifest was written by an incompatible version")
        return spec

    def job(self) -> Union[SweepSpec, SweepShard]:
        """What to hand the runner: the spec, or this manifest's shard of it."""
        spec = self.spec()
        if self.shard_count <= 1:
            return spec
        return spec.shard(self.shard_index, self.shard_count)


# ---------------------------------------------------------------------------
# Resume
# ---------------------------------------------------------------------------


def resume_sweep(
    manifest_path: Union[os.PathLike, str],
    workers: int = 1,
    cache: Union[os.PathLike, str, None] = None,
    on_error: str = "record",
) -> SweepResult:
    """Re-run only the failed/missing cells of a manifest-recorded sweep.

    The manifest's spec (and shard coordinates) are reconstructed and re-run
    against the result cache: cells whose results are already cached — i.e.
    everything that finished before the crash/kill — are served from cache,
    everything else (``pending``, ``failed``, or cache-evicted ``ok`` cells)
    is executed.  The manifest is rewritten in place as cells complete; a
    cell served from the cache keeps the record the earlier run wrote, so
    the merged timings and the timeline still cover it.

    ``cache`` overrides the cache root; by default the manifest's recorded
    ``cache_dir`` is used when it exists, else the manifest's own directory
    (the CLI writes manifests into the cache root, so a downloaded artifact
    directory resumes as-is).
    """
    manifest = RunManifest.load(manifest_path)
    job = manifest.job()
    root: Union[os.PathLike, str]
    if cache is not None:
        root = cache
    elif manifest.cache_dir and Path(manifest.cache_dir).is_dir():
        root = manifest.cache_dir
    else:
        root = Path(manifest_path).parent
    runner = SweepRunner(workers=workers, cache=root)
    return runner.run(job, manifest_path=manifest_path, on_error=on_error,
                      resumed=manifest)


# ---------------------------------------------------------------------------
# Merge
# ---------------------------------------------------------------------------


def _result_roots(manifest: RunManifest) -> List[Path]:
    """Candidate cache roots holding a manifest's results, in priority order.

    The manifest's own directory first (the CLI writes the manifest *into*
    the cache root, and that relationship survives artifact download/upload),
    then the recorded ``cache_dir`` for manifests kept elsewhere.
    """
    roots: List[Path] = []
    if manifest.path is not None:
        roots.append(manifest.path.parent)
    if manifest.cache_dir:
        recorded = Path(manifest.cache_dir)
        if recorded.is_dir() and recorded not in roots:
            roots.append(recorded)
    return roots


def merge_manifests(
    manifest_paths: Sequence[Union[os.PathLike, str]],
) -> SweepResult:
    """Fold N shard manifests + their caches into one verified sweep result.

    Verifies *completeness* before emitting anything: identical spec
    fingerprints and shard counts across manifests, distinct shard indices,
    every cell of the reconstructed spec accounted for exactly once with
    status ``ok``, and every result loadable from a cache.  The returned
    :class:`SweepResult` lists cells in the spec's own (platform-major)
    order, so it is bit-identical to the same sweep run unsharded.
    """
    if not manifest_paths:
        raise MergeError("no manifests to merge")
    manifests = [RunManifest.load(path) for path in manifest_paths]

    first = manifests[0]
    seen_shards: Dict[int, Path] = {}
    for manifest in manifests:
        if manifest.spec_fingerprint != first.spec_fingerprint:
            raise MergeError(
                f"manifest {manifest.path} declares spec fingerprint "
                f"{manifest.spec_fingerprint[:12]}..., expected "
                f"{first.spec_fingerprint[:12]}... — shards of different "
                f"sweeps cannot merge")
        if manifest.shard_count != first.shard_count:
            raise MergeError(
                f"manifest {manifest.path} declares {manifest.shard_count} "
                f"shards, expected {first.shard_count}")
        if manifest.shard_index in seen_shards:
            raise MergeError(
                f"shard {manifest.shard_index + 1}/{manifest.shard_count} "
                f"supplied twice ({seen_shards[manifest.shard_index]} and "
                f"{manifest.path})")
        seen_shards[manifest.shard_index] = manifest.path

    spec = first.spec()
    expected: Dict[str, SweepCell] = {}
    spec_cells = spec.cells()
    for cell in spec_cells:
        expected[cell.cache_key()] = cell

    owner: Dict[str, RunManifest] = {}
    for manifest in manifests:
        for record in manifest.cells:
            if record.cache_key not in expected:
                raise MergeError(
                    f"manifest {manifest.path} lists cell {record.label} "
                    f"(key {record.cache_key[:12]}...) that is not part of "
                    f"the declared spec — manifest and code versions differ")
            if record.cache_key in owner:
                raise MergeError(
                    f"cell {record.label} appears in more than one manifest "
                    f"— shards must partition the grid exactly")
            if record.status != STATUS_OK:
                raise MergeError(
                    f"cell {record.label} in manifest {manifest.path} has "
                    f"status {record.status!r}; resume that shard before "
                    f"merging")
            owner[record.cache_key] = manifest

    missing = [cell for key, cell in expected.items() if key not in owner]
    if missing:
        supplied = sorted(index + 1 for index in seen_shards)
        raise MergeError(
            f"{len(missing)} of {len(expected)} cells unaccounted for "
            f"(e.g. {missing[0].label}); got shard(s) {supplied} of "
            f"{first.shard_count}")

    caches: Dict[Path, ResultCache] = {}
    runs: List[CellRun] = []
    for cell in spec_cells:
        key = cell.cache_key()
        manifest = owner[key]
        result = None
        for root in _result_roots(manifest):
            cache = caches.setdefault(root, ResultCache(root))
            result = cache.get(key)
            if result is not None:
                break
        if result is None:
            raise MergeError(
                f"result for cell {cell.label} (key {key[:12]}...) is "
                f"missing or corrupt in the cache(s) next to manifest "
                f"{manifest.path}")
        # Preserve how the shard run obtained the cell (executed vs cache
        # hit) and its worker-side timings, so the merged result counts
        # real executed cells instead of reading as a sweep of cache hits.
        record = manifest._by_key[key]
        runs.append(CellRun(cell=cell, result=result,
                            from_cache=record.from_cache,
                            timings=dict(record.timings)))

    hits = sum(1 for run in runs if run.from_cache)
    return SweepResult(
        spec=spec,
        runs=runs,
        elapsed_seconds=sum(manifest.elapsed_seconds for manifest in manifests),
        cache_hits=hits,
        cache_misses=len(runs) - hits,
        merged_shards=len(manifests),
    )


# ---------------------------------------------------------------------------
# Status (``repro status``): read-only, so watching a running sweep never
# perturbs it
# ---------------------------------------------------------------------------


def manifest_status(manifest_path) -> Optional[Dict[str, object]]:
    """Status of a sweep from its run manifest; ``None`` if unreadable."""
    try:
        payload = json.loads(Path(manifest_path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(payload, dict):
        return None
    cells = payload.get("cells") or []
    counts: Dict[str, int] = {}
    for cell in cells:
        status = str((cell or {}).get("status", "?"))
        counts[status] = counts.get(status, 0) + 1
    pending = counts.get("pending", 0)
    return {
        "manifest": str(manifest_path),
        "spec_fingerprint": str(payload.get("spec_fingerprint", "?")),
        "cells": len(cells),
        "counts": counts,
        "pending": pending,
        "complete": len(cells) > 0 and pending == 0,
        "elapsed_seconds": payload.get("elapsed_seconds"),
    }


def render_manifest_status(status: Dict[str, object]) -> str:
    counts = status["counts"]
    summary = ", ".join(f"{key} {counts[key]}" for key in sorted(counts))
    state = "complete" if status["complete"] else "incomplete"
    return (
        f"manifest {status['manifest']}\n"
        f"  spec {status['spec_fingerprint'][:16]}  cells {status['cells']} "
        f"({summary})\n"
        f"  state: {state}"
    )
