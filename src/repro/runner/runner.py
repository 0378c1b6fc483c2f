"""The sweep orchestrator: expand a spec, fan cells out, memoize results.

Execution model
---------------
Every cell is an independent pure function of its descriptor: the worker
rebuilds the (deterministically seeded) trace and a fresh platform, runs it,
and hands back a :class:`~repro.platforms.base.PlatformResult`.  Because no
state is shared, serial and parallel execution produce bit-identical results
and finished cells can be cached on disk across invocations.

Workers are plain ``multiprocessing`` pool processes; the cell objects and
results cross the process boundary by pickle.  Cells already present in the
:class:`~repro.runner.cache.ResultCache` are never dispatched at all, which
is what makes ablation reruns incremental.
"""

from __future__ import annotations

import atexit
import hashlib
import multiprocessing
import os
import pickle
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.platforms.base import GPUSSDPlatform, PlatformResult
from repro.runner.cache import ResultCache, ResultCacheBackend, open_cache
from repro.runner.spec import SweepCell, SweepShard, SweepSpec, build_cell_trace
from repro.telemetry import core as _telemetry


class SweepExecutionError(RuntimeError):
    """A cell raised inside a worker (re-raised with its traceback text)."""

#: Per-process memo of generated traces: all platforms of one sweep share the
#: same trace, so each worker builds it only once.  Keyed by
#: :meth:`SweepCell.trace_key` (everything ``build_cell_trace`` consumes) and
#: bounded LRU-style: the *oldest* trace is evicted when the memo overflows,
#: instead of dropping the whole memo and rebuilding the working set.
_TRACE_MEMO: "OrderedDict[Tuple, object]" = OrderedDict()
_TRACE_MEMO_MAX_ENTRIES = 32


def _trace_shm_name(memo_key: Tuple) -> str:
    """Deterministic shared-memory segment name for one trace key.

    Both sides derive the name independently from the trace key, so no name
    needs to cross the process boundary: the parent publishes under it and a
    worker probes it before falling back to a local build.
    """
    digest = hashlib.sha256(repr(memo_key).encode("utf-8")).hexdigest()[:24]
    return f"repro_trace_{digest}"


def _attach_shared_trace(memo_key: Tuple):
    """Unpickle a parent-published trace from shared memory, or ``None``.

    Attaching registers the segment with this process's resource tracker
    (bpo-39959), which would try to unlink it again at worker exit — the
    parent owns the segment lifetime, so the registration is undone here.
    """
    try:
        segment = shared_memory.SharedMemory(name=_trace_shm_name(memo_key))
    except (FileNotFoundError, OSError):
        return None
    try:
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass
    try:
        return pickle.loads(bytes(segment.buf))
    except Exception:
        return None
    finally:
        segment.close()


def _trace_for(cell: SweepCell):
    memo_key = cell.trace_key()
    trace = _TRACE_MEMO.get(memo_key)
    if trace is None:
        trace = _attach_shared_trace(memo_key)
        if trace is None:
            trace = build_cell_trace(cell)
        _TRACE_MEMO[memo_key] = trace
        while len(_TRACE_MEMO) > _TRACE_MEMO_MAX_ENTRIES:
            _TRACE_MEMO.popitem(last=False)
    else:
        _TRACE_MEMO.move_to_end(memo_key)
    return trace


class SharedTraceStore:
    """Parent-side publication of built traces over POSIX shared memory.

    All platforms of one sweep share the same trace, but pool workers cannot
    see each other's ``_TRACE_MEMO`` — without sharing, every worker rebuilds
    every trace it is handed.  The parent instead builds each distinct trace
    once, pickles it into a named :class:`~multiprocessing.shared_memory.\
SharedMemory` segment, and workers attach by the deterministic name derived
    from the trace key.  Publication is best-effort: any failure (unpicklable
    trace, exhausted ``/dev/shm``, name collision with a concurrent run)
    degrades to the worker-local build, never to an error.

    Segments outlive individual sweeps on purpose: the figure layers run many
    sweeps over the same traces per process, and content is a pure function
    of the segment name, so republishing every run would only add pickle +
    ``shm_open`` cost to the steady state.  The store evicts LRU beyond
    ``max_segments`` and unlinks everything at process exit; a leftover
    segment from a killed run is byte-identical by construction and simply
    gets reused.
    """

    def __init__(self, max_segments: int = 64) -> None:
        self.max_segments = max_segments
        self._segments: "OrderedDict[str, shared_memory.SharedMemory]" = OrderedDict()

    def publish(self, pending: Sequence[Tuple[int, SweepCell]]) -> int:
        """Build and share the distinct traces of ``pending``; count published."""
        published = 0
        for _, cell in pending:
            memo_key = cell.trace_key()
            name = _trace_shm_name(memo_key)
            if name in self._segments:
                self._segments.move_to_end(name)
                continue
            try:
                payload = pickle.dumps(
                    _trace_for(cell), protocol=pickle.HIGHEST_PROTOCOL
                )
                segment = shared_memory.SharedMemory(
                    name=name, create=True, size=len(payload)
                )
            except FileExistsError:
                # A previous (possibly killed) run already published this
                # trace; adopt the segment — same name, same bytes.
                try:
                    segment = shared_memory.SharedMemory(name=name)
                except Exception:
                    continue
            except Exception:
                continue
            else:
                segment.buf[: len(payload)] = payload
            self._segments[name] = segment
            published += 1
            while len(self._segments) > self.max_segments:
                _, oldest = self._segments.popitem(last=False)
                self._unlink(oldest)
        return published

    @staticmethod
    def _unlink(segment: shared_memory.SharedMemory) -> None:
        try:
            segment.close()
            segment.unlink()
        except Exception:
            pass

    def close(self) -> None:
        """Unlink every published segment (idempotent)."""
        for segment in self._segments.values():
            self._unlink(segment)
        self._segments.clear()


#: The process-wide store (sweeps share it like they share worker pools).
_SHARED_TRACES = SharedTraceStore()
atexit.register(_SHARED_TRACES.close)


def execute_cell(cell: SweepCell) -> PlatformResult:
    """Run one cell to completion (the function a pool worker executes)."""
    return GPUSSDPlatform.execute(cell.platform, _trace_for(cell), cell.resolved_config())


#: Per-phase cProfile collectors for ``sweep --profile`` (None = disabled).
#: Profiling is inherently serial — pool workers are separate processes whose
#: profiler state never returns — so the CLI forces ``workers=1`` with it.
_PROFILERS: Optional[Dict[str, "object"]] = None


def enable_profiling() -> None:
    """Arm per-phase profilers; every later executed cell accumulates into them."""
    import cProfile

    global _PROFILERS
    _PROFILERS = {"trace_build": cProfile.Profile(), "simulate": cProfile.Profile()}


def disable_profiling() -> None:
    global _PROFILERS
    _PROFILERS = None


def profile_tables(top: int = 25) -> str:
    """Render the armed profilers as per-phase top-N cumulative tables."""
    import io
    import pstats

    if not _PROFILERS:
        return ""
    sections = []
    for phase in ("trace_build", "simulate"):
        profile = _PROFILERS.get(phase)
        if profile is None:
            continue
        stream = io.StringIO()
        stats = pstats.Stats(profile, stream=stream)
        stats.sort_stats("cumulative").print_stats(top)
        sections.append(
            f"== phase: {phase} (top {top} by cumulative time) ==\n"
            + stream.getvalue()
        )
    return "\n".join(sections)


def _execute_cell_timed(cell: SweepCell) -> Tuple[PlatformResult, Dict[str, float]]:
    """Run one cell, reporting where its wall time went (for --perf-report).

    With ``REPRO_TELEMETRY=1`` the run is additionally wrapped in a ``cell``
    span with ``trace_build``/``simulate`` child spans; the attrs dict is
    only built on that branch, so the disabled hot path allocates nothing.
    """
    profilers = _PROFILERS
    cell_span = _telemetry.NULL_SPAN
    if _telemetry.enabled():
        cell_span = _telemetry.span("cell", {
            "platform": cell.platform,
            "workload": cell.workload,
            "override": cell.override_set.label,
        })
    with cell_span:
        started = time.perf_counter()
        with _telemetry.span("trace_build"):
            if profilers is not None:
                profile = profilers["trace_build"]
                profile.enable()
                try:
                    trace = _trace_for(cell)
                finally:
                    profile.disable()
            else:
                trace = _trace_for(cell)
        trace_done = time.perf_counter()
        with _telemetry.span("simulate"):
            if profilers is not None:
                profile = profilers["simulate"]
                profile.enable()
                try:
                    result = GPUSSDPlatform.execute(
                        cell.platform, trace, cell.resolved_config()
                    )
                finally:
                    profile.disable()
            else:
                result = GPUSSDPlatform.execute(
                    cell.platform, trace, cell.resolved_config()
                )
        finished = time.perf_counter()
    return result, {
        "trace_build_seconds": trace_done - started,
        "simulate_seconds": finished - trace_done,
    }


def _execute_indexed(
    item: Tuple[int, SweepCell]
) -> Tuple[int, Optional[PlatformResult], Dict[str, float], Optional[str]]:
    """Pool-worker entry: run one cell, trapping its failure as data.

    Cell exceptions are caught *inside* the worker and shipped back as a
    traceback string, so one bad cell neither kills the sweep nor poisons
    the shared pool; the parent decides (``on_error``) whether to record the
    failure in the manifest and continue, or to re-raise.  Exceptions that
    escape this function are pool-level failures (e.g. a terminated pool).
    """
    index, cell = item
    try:
        result, timings = _execute_cell_timed(cell)
    except Exception:
        return index, None, {}, traceback.format_exc()
    return index, result, timings, None


# ---------------------------------------------------------------------------
# Shared worker pools
#
# Forking a fresh pool per sweep costs tens of milliseconds — more than an
# entire smoke sweep simulates — and the figure/sensitivity layers run many
# sweeps per process.  Pools are therefore created lazily, keyed by worker
# count, and reused for every subsequent sweep of the process; workers also
# keep their _TRACE_MEMO warm across sweeps.  Results are unaffected: cells
# are pure functions of their descriptor.
# ---------------------------------------------------------------------------
_POOLS: Dict[int, multiprocessing.pool.Pool] = {}


def _shared_pool(workers: int) -> multiprocessing.pool.Pool:
    pool = _POOLS.get(workers)
    if pool is None:
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        pool = context.Pool(processes=workers)
        _POOLS[workers] = pool
    return pool


def _discard_pool(workers: int) -> None:
    """Drop (and terminate) a cached pool after a failed dispatch.

    A sweep that died may have left the pool broken (e.g. a worker was
    OOM-killed); keeping it cached would poison every later sweep of the
    process, so the next run gets a fresh fork instead.
    """
    pool = _POOLS.pop(workers, None)
    if pool is not None:
        pool.terminate()
        pool.join()


def shutdown_worker_pools() -> None:
    """Terminate every shared sweep pool (registered atexit; callable in tests)."""
    for pool in _POOLS.values():
        pool.terminate()
        pool.join()
    _POOLS.clear()


atexit.register(shutdown_worker_pools)


@dataclass
class CellRun:
    """One finished cell: the job, its result, and where the result came from.

    ``timings`` holds the worker-side wall-time split of an executed cell
    (``trace_build_seconds`` / ``simulate_seconds``); cached cells carry an
    empty mapping.  Timings are diagnostics — they never enter the result
    record or the cache.
    """

    cell: SweepCell
    result: PlatformResult
    from_cache: bool = False
    timings: Dict[str, float] = field(default_factory=dict)

    @property
    def key(self) -> Tuple[str, str, str]:
        return (self.cell.platform, self.cell.workload, self.cell.override_set.label)


@dataclass
class CellFailure:
    """One cell that raised during execution (``on_error="record"`` mode)."""

    cell: SweepCell
    error: str

    @property
    def label(self) -> str:
        return self.cell.label


@dataclass
class SweepResult:
    """All finished cells of one sweep plus cache/timing accounting.

    A sharded run carries its shard coordinates (``shard_index`` 0-based /
    ``shard_count``); a result folded together by ``repro merge`` carries
    ``merged_shards`` and the per-shard elapsed times instead.  Cells that
    raised under ``on_error="record"`` are listed in ``failed`` and absent
    from ``runs``.
    """

    spec: SweepSpec
    runs: List[CellRun] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Runner-side wall time spent probing/storing the on-disk result cache.
    cache_seconds: float = 0.0
    failed: List[CellFailure] = field(default_factory=list)
    shard_index: Optional[int] = None
    shard_count: Optional[int] = None
    merged_shards: Optional[int] = None
    shard_elapsed_seconds: List[float] = field(default_factory=list)
    #: Snapshot of the cache backend's counters (``backend.stats()``) taken
    #: when the sweep finished — surfaces remote-degradation counters that
    #: were previously counted but invisible.  Empty when caching is off.
    cache_stats: Dict[str, object] = field(default_factory=dict)
    #: Runtime notes the CLI wants persisted in the perf report (e.g. the
    #: ``--profile`` forcing ``--workers 1``).  Appended to ``warnings``.
    runtime_notes: List[str] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.runs)

    def __iter__(self):
        return iter(self.runs)

    def get(
        self, platform: str, workload: str, label: str = "default"
    ) -> Optional[PlatformResult]:
        for run in self.runs:
            if run.key == (platform, workload, label):
                return run.result
        return None

    def by_override(self, label: str) -> List[CellRun]:
        return [run for run in self.runs if run.cell.override_set.label == label]

    def table(self, metric: str = "ipc") -> Dict[str, Dict[str, float]]:
        """``{workload: {platform: value}}`` for a result attribute."""
        return {
            workload: {platform: float(getattr(result, metric))
                       for platform, result in row.items()}
            for workload, row in self.grid().items()
        }

    def grid(self) -> Dict[str, Dict[str, PlatformResult]]:
        """``{workload: {platform: PlatformResult}}`` (the figures' shape).

        With more than one override set, later sets overwrite earlier ones in
        the pivot — use :meth:`by_override` for multi-axis sweeps.
        """
        out: Dict[str, Dict[str, PlatformResult]] = {}
        for run in self.runs:
            out.setdefault(run.cell.workload, {})[run.cell.platform] = run.result
        return out

    def stats_dicts(self) -> Dict[Tuple[str, str, str], Dict[str, float]]:
        """Per-cell stats summaries (the serial/parallel equivalence probe)."""
        return {run.key: run.result.stats.as_dict() for run in self.runs}

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    # -- perf accounting ------------------------------------------------
    @property
    def trace_build_seconds(self) -> float:
        """Aggregate worker time spent generating traces (sums across workers)."""
        return sum(run.timings.get("trace_build_seconds", 0.0) for run in self.runs)

    @property
    def simulate_seconds(self) -> float:
        """Aggregate worker time spent simulating cells (sums across workers)."""
        return sum(run.timings.get("simulate_seconds", 0.0) for run in self.runs)

    @property
    def cells_per_sec(self) -> float:
        """Overall throughput, cache-served cells included."""
        return len(self.runs) / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def executed_cells_per_sec(self) -> float:
        """Throughput of the cells that were actually *simulated* this run.

        This is the hot-path trajectory number: a warm cache makes
        :attr:`cells_per_sec` measure disk reads, not the simulator.
        """
        executed = sum(1 for run in self.runs if not run.from_cache)
        return executed / self.elapsed_seconds if self.elapsed_seconds else 0.0

    @property
    def events_processed(self) -> int:
        """Scheduler events serviced by the cells executed this run.

        Cached cells are excluded — their engine work happened in some
        earlier run — so the count pairs with :attr:`simulate_seconds`.
        """
        return sum(
            int(run.result.execution.events)
            for run in self.runs
            if not run.from_cache
        )

    @property
    def events_per_sec(self) -> float:
        """Engine event throughput over the worker-side simulate time."""
        simulate = self.simulate_seconds
        return self.events_processed / simulate if simulate else 0.0

    def perf_report(self) -> Dict[str, object]:
        """The ``BENCH_sweep.json`` payload: throughput and where time went.

        Worker-side phase times are *aggregates across workers*, so with N
        workers they may legitimately sum to more than ``elapsed_seconds``.
        Sharded runs add ``shard_index``/``shard_count``; merged results add
        ``merged_shards`` plus the per-shard elapsed list (additive fields,
        schema stays v1).
        """
        report: Dict[str, object] = {
            "schema": "repro-bench-sweep-v1",
            "cells": len(self.runs),
            "executed_cells": sum(1 for run in self.runs if not run.from_cache),
            "failed_cells": len(self.failed),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "elapsed_seconds": self.elapsed_seconds,
            "cells_per_sec": self.cells_per_sec,
            "executed_cells_per_sec": self.executed_cells_per_sec,
            "trace_build_seconds": self.trace_build_seconds,
            "simulate_seconds": self.simulate_seconds,
            "cache_seconds": self.cache_seconds,
            "events_processed": self.events_processed,
            "events_per_sec": self.events_per_sec,
        }
        warnings: List[str] = []
        if self.cache_hits > 0:
            # Loud and machine-readable: a warm cache means the throughput
            # numbers above measure disk reads, not the simulator hot path.
            warnings.append(
                f"cache_hits={self.cache_hits}: cells_per_sec includes "
                "cache-served cells; rerun with --no-cache (or a cold cache "
                "dir) for a clean hot-path measurement."
            )
        if self.cache_stats:
            report["cache_backend"] = dict(self.cache_stats)
            remote_errors = int(self.cache_stats.get("remote_errors", 0) or 0)
            if remote_errors:
                warnings.append(
                    f"remote_errors={remote_errors}: the remote result cache "
                    "degraded to the local layer for some operations; results "
                    "are correct but were not shared with the fleet."
                )
        warnings.extend(self.runtime_notes)
        if warnings:
            report["warnings"] = warnings
        if self.shard_count is not None:
            report["shard_index"] = self.shard_index
            report["shard_count"] = self.shard_count
        if self.merged_shards is not None:
            report["merged_shards"] = self.merged_shards
            report["shard_elapsed_seconds"] = list(self.shard_elapsed_seconds)
        return report


class SweepRunner:
    """Runs :class:`SweepSpec` grids across a worker pool with memoization."""

    def __init__(
        self,
        workers: int = 1,
        cache: Union[ResultCacheBackend, os.PathLike, str, None, bool] = False,
    ) -> None:
        """``cache`` may be any :class:`ResultCacheBackend` (local or
        remote), a directory path, an ``http(s)://`` URL, ``True`` for the
        default local location, or ``False``/``None`` (default) to disable.

        Memoization is opt-in so programmatic callers never write to disk
        unless they asked to; the CLI opts in by default.
        """
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ValueError(f"workers must be an int >= 1, got {workers!r}")
        self.workers = workers
        self.cache: Optional[ResultCacheBackend] = open_cache(cache)

    # ------------------------------------------------------------------
    def run(
        self,
        spec: Union[SweepSpec, SweepShard],
        manifest_path: Union[os.PathLike, str, None] = None,
        on_error: str = "raise",
    ) -> SweepResult:
        """Run a spec — or one deterministic shard of one — to completion.

        With ``manifest_path`` set, a schema-versioned run manifest is
        written there *before* execution (all cells ``pending`` except cache
        hits) and atomically rewritten after every finished cell, so a run
        killed mid-sweep leaves an accurate, resumable record on disk.

        ``on_error`` decides what a raising cell does: ``"raise"`` (default)
        re-raises as :class:`SweepExecutionError` after recording the failure
        in the manifest; ``"record"`` (what the CLI uses for manifest runs)
        lists the cell in ``result.failed`` and keeps sweeping, so one bad
        cell costs one cell, not the whole shard.

        With ``REPRO_TELEMETRY=1`` the whole run is wrapped in a ``sweep``
        span and summary counters are emitted when it finishes; none of that
        touches the results themselves.
        """
        if not _telemetry.enabled():
            return self._run(spec, manifest_path, on_error)
        base = spec.spec if isinstance(spec, SweepShard) else spec
        with _telemetry.span("sweep", {
            "fingerprint": base.fingerprint(),
            "workers": self.workers,
        }):
            result = self._run(spec, manifest_path, on_error)
            _telemetry.emit_counters({
                "sweep.cells": float(len(result.runs)),
                "sweep.cache_hits": float(result.cache_hits),
                "sweep.cache_misses": float(result.cache_misses),
                "sweep.failed_cells": float(len(result.failed)),
                "sweep.elapsed_seconds": result.elapsed_seconds,
            }, attrs={"fingerprint": base.fingerprint()})
        return result

    def _run(
        self,
        spec: Union[SweepSpec, SweepShard],
        manifest_path: Union[os.PathLike, str, None] = None,
        on_error: str = "raise",
    ) -> SweepResult:
        if on_error not in ("raise", "record"):
            raise ValueError(f"on_error must be 'raise' or 'record', got {on_error!r}")
        started = time.perf_counter()
        if isinstance(spec, SweepShard):
            base_spec, shard_index, shard_count = spec.spec, spec.index, spec.count
        else:
            base_spec, shard_index, shard_count = spec, None, None
        cells = spec.cells()
        runs: List[Optional[CellRun]] = [None] * len(cells)
        failed: List[CellFailure] = []
        cache_seconds = 0.0

        keys: List[Optional[str]] = [None] * len(cells)
        if self.cache is not None or manifest_path is not None:
            keys = [cell.cache_key() for cell in cells]

        manifest = None
        if manifest_path is not None:
            from repro.runner.manifest import RunManifest

            manifest = RunManifest.for_run(
                base_spec,
                cells,
                shard_index=shard_index or 0,
                shard_count=shard_count or 1,
                cache_dir=str(self.cache.root) if self.cache is not None else "",
            )

        pending: List[Tuple[int, SweepCell]] = []
        for index, cell in enumerate(cells):
            if self.cache is not None:
                probe_started = time.perf_counter()
                cached = self.cache.get(keys[index])
                cache_seconds += time.perf_counter() - probe_started
                if cached is not None:
                    runs[index] = CellRun(cell=cell, result=cached, from_cache=True)
                    if manifest is not None:
                        manifest.mark(keys[index], "ok", from_cache=True)
                    continue
            pending.append((index, cell))
        if manifest is not None:
            manifest.write(manifest_path)

        if self.workers > 1 and len(pending) > 1:
            # Pool dispatch ahead: build each distinct trace once in the
            # parent and share it so no worker rebuilds it.  Serial runs
            # skip this — _TRACE_MEMO already deduplicates in-process.
            _SHARED_TRACES.publish(pending)
        try:
            for index, result, timings, error in self._execute(pending):
                cell = cells[index]
                if error is not None:
                    if manifest is not None:
                        manifest.mark(keys[index], "failed", error=error)
                        manifest.write(manifest_path)
                    if on_error == "raise":
                        raise SweepExecutionError(
                            f"cell {cell.label} failed:\n{error}")
                    failed.append(CellFailure(cell=cell, error=error))
                    continue
                runs[index] = CellRun(
                    cell=cell, result=result, from_cache=False, timings=timings
                )
                if self.cache is not None:
                    store_started = time.perf_counter()
                    self.cache.put(keys[index], result, cell.descriptor())
                    cache_seconds += time.perf_counter() - store_started
                if manifest is not None:
                    manifest.mark(keys[index], "ok", timings=timings)
                    manifest.write(manifest_path)
        except Exception:
            # Pool-level failure *or* an on_error="raise" cell failure:
            # either way the shared pool still holds queued cells whose
            # results nobody will consume — terminate it so no ghost work
            # burns the workers, and the next sweep gets a fresh fork.
            _discard_pool(self.workers)
            raise

        elapsed = time.perf_counter() - started
        hits = sum(1 for run in runs if run is not None and run.from_cache)
        if manifest is not None:
            manifest.elapsed_seconds = elapsed
            manifest.write(manifest_path)
        return SweepResult(
            spec=base_spec,
            runs=[run for run in runs if run is not None],
            elapsed_seconds=elapsed,
            cache_hits=hits,
            cache_misses=len(cells) - hits,
            cache_seconds=cache_seconds,
            failed=failed,
            shard_index=shard_index,
            shard_count=shard_count,
            cache_stats=self.cache.stats() if self.cache is not None else {},
        )

    # ------------------------------------------------------------------
    def _execute(
        self, pending: Sequence[Tuple[int, SweepCell]]
    ) -> Iterator[Tuple[int, Optional[PlatformResult], Dict[str, float], Optional[str]]]:
        """Yield finished cells as they complete (unordered beyond serial).

        Streaming (``imap_unordered``) rather than batched (``map``) so the
        caller can persist each result — cache entry and manifest line — the
        moment it exists: a killed run loses at most the in-flight cells.
        """
        if not pending:
            return
        if self.workers == 1 or len(pending) == 1:
            for item in pending:
                yield _execute_indexed(item)
            return
        # chunksize=1: cells are coarse (whole simulations), so dynamic
        # dispatch beats pre-chunking when runtimes are skewed.
        pool = _shared_pool(self.workers)
        for outcome in pool.imap_unordered(_execute_indexed, list(pending), chunksize=1):
            yield outcome


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    cache: Union[ResultCacheBackend, os.PathLike, str, None, bool] = False,
) -> SweepResult:
    """One-call programmatic entry point (cache disabled unless requested)."""
    return SweepRunner(workers=workers, cache=cache).run(spec)


def run_grid(
    platforms: Sequence[str],
    workloads: Sequence[str],
    scale: float = 0.25,
    seed: int = 1,
    num_sms: int = 16,
    warps_per_sm: int = 8,
    memory_instructions_per_warp: int = 64,
    base_config=None,
    workers: int = 1,
    cache: Union[ResultCacheBackend, os.PathLike, str, None, bool] = False,
) -> Dict[str, Dict[str, PlatformResult]]:
    """Run a platform x workload grid, pivoted to ``{workload: {platform: result}}``.

    The shared convenience behind the figure functions and the benches.
    """
    spec = SweepSpec.create(
        platforms=platforms,
        workloads=workloads,
        scale=scale,
        seed=seed,
        num_sms=num_sms,
        warps_per_sm=warps_per_sm,
        memory_instructions_per_warp=memory_instructions_per_warp,
        base_config=base_config,
    )
    return SweepRunner(workers=workers, cache=cache).run(spec).grid()
