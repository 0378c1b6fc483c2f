"""The sweep orchestrator: expand a spec, fan cells out, memoize results.

Execution model
---------------
Every cell is an independent pure function of its descriptor: the worker
rebuilds the (deterministically seeded) trace and a fresh platform, runs it,
and hands back a :class:`~repro.platforms.base.PlatformResult`.  Because no
state is shared, serial and parallel execution produce bit-identical results
and finished cells can be cached on disk across invocations.

Cells with equal simulation inputs share one simulation.  Two cells whose
:meth:`~repro.runner.spec.SweepCell.simulation_key` match — same platform,
workload, trace knobs and platform-resolved config, differing only in the
override label or spelling, as when an ablation axis restates its default —
produce the same result, so only the first of them (the *lead*) is
dispatched.  Each other cell of the group (a *follower*) gets its own copy
of the lead's result, its own cache entry under its own cache key and its
own manifest record, and fails with the lead if the lead fails.  A pending
cell that shares its key with a cell the cache served is filled from that
result without simulating.

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
import signal
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import (
    TYPE_CHECKING, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.platforms.base import GPUSSDPlatform, PlatformResult
from repro.runner.cache import ResultCache, open_cache
from repro.runner.spec import SweepCell, SweepShard, SweepSpec, build_cell_trace

if TYPE_CHECKING:  # pragma: no cover - manifest imports this module
    from repro.runner.manifest import RunManifest


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

    Attaching registers the segment with the resource tracker (bpo-39959).
    A forked pool worker shares its parent's tracker, which already holds
    the segment, so that registration is a no-op; undoing it here would
    cancel the parent's and make the parent's ``unlink`` at exit fail in
    the tracker with a ``KeyError``.
    """
    try:
        segment = shared_memory.SharedMemory(name=_trace_shm_name(memo_key))
    except (FileNotFoundError, OSError):
        return None
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

    Segments outlive individual sweeps on purpose: benches, tests and the
    report run many sweeps over the same traces per process, and content is a pure function
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


def _execute_cell_timed(cell: SweepCell) -> Tuple[PlatformResult, Dict[str, float]]:
    """Run one cell, reporting where its wall time went."""
    started = time.perf_counter()
    trace = _trace_for(cell)
    trace_done = time.perf_counter()
    result = GPUSSDPlatform.execute(cell.platform, trace, cell.resolved_config())
    finished = time.perf_counter()
    return result, {
        "trace_build_seconds": trace_done - started,
        "simulate_seconds": finished - trace_done,
    }


class _Outcome(NamedTuple):
    """One cell as a pool worker hands it back.

    ``started`` is the worker's ``time.perf_counter()`` when the cell began.
    That clock is system-wide, so the parent places the cell on its own
    timeline; ``pid`` names the worker that ran it.
    """

    index: int
    result: Optional[PlatformResult]
    timings: Dict[str, float]
    started: float
    pid: int
    error: Optional[str]


def _execute_indexed(item: Tuple[int, SweepCell]) -> _Outcome:
    """Pool-worker entry: run one cell, trapping its failure as data.

    Cell exceptions are caught *inside* the worker and shipped back as a
    traceback string, so one bad cell neither kills the sweep nor poisons
    the shared pool; the parent decides (``on_error``) whether to record the
    failure in the manifest and continue, or to re-raise.  Exceptions that
    escape this function are pool-level failures (e.g. a terminated pool).
    """
    index, cell = item
    started = time.perf_counter()
    try:
        result, timings = _execute_cell_timed(cell)
    except Exception:
        return _Outcome(index, None, {}, started, os.getpid(), traceback.format_exc())
    return _Outcome(index, result, timings, started, os.getpid(), None)


# ---------------------------------------------------------------------------
# Shared worker pools
#
# Forking a fresh pool per sweep costs tens of milliseconds — more than an
# entire smoke sweep simulates — and benches, tests and the report run many
# sweeps per process.  Pools are therefore created lazily, keyed by worker
# count, and reused for every subsequent sweep of the process; workers also
# keep their _TRACE_MEMO warm across sweeps.  Results are unaffected: cells
# are pure functions of their descriptor.
# ---------------------------------------------------------------------------
_POOLS: Dict[int, multiprocessing.pool.Pool] = {}


def _ignore_sigint() -> None:
    """Pool-worker initializer: Ctrl-C is the parent's to handle.

    SIGINT reaches the terminal's whole process group; without this every
    worker would print its own ``KeyboardInterrupt`` traceback.  The parent
    stops the sweep and terminates the pool.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _shared_pool(workers: int) -> multiprocessing.pool.Pool:
    pool = _POOLS.get(workers)
    if pool is None:
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        )
        pool = context.Pool(processes=workers, initializer=_ignore_sigint)
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
    ``merged_shards`` instead.  Cells that raised under ``on_error="record"``
    are listed in ``failed`` and absent from ``runs``.
    """

    spec: SweepSpec
    runs: List[CellRun] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    failed: List[CellFailure] = field(default_factory=list)
    shard_index: Optional[int] = None
    shard_count: Optional[int] = None
    merged_shards: Optional[int] = None

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
        the pivot — read ``runs`` for multi-axis sweeps.
        """
        out: Dict[str, Dict[str, PlatformResult]] = {}
        for run in self.runs:
            out.setdefault(run.cell.workload, {})[run.cell.platform] = run.result
        return out

    def stats_dicts(self) -> Dict[Tuple[str, str, str], Dict[str, float]]:
        """Per-cell stats summaries (the serial/parallel equivalence probe)."""
        return {run.key: run.result.stats.as_dict() for run in self.runs}

    # -- perf accounting ------------------------------------------------
    @property
    def simulated(self) -> int:
        """Finished cells whose result a simulation produced.

        Only a simulated cell carries timings: cache-served cells and the
        followers that shared another cell's simulation carry none.
        """
        return sum(1 for run in self.runs if run.timings)

    @property
    def trace_build_seconds(self) -> float:
        """Aggregate worker time spent generating traces (sums across workers)."""
        return sum(run.timings.get("trace_build_seconds", 0.0) for run in self.runs)

    @property
    def simulate_seconds(self) -> float:
        """Aggregate worker time spent simulating cells (sums across workers)."""
        return sum(run.timings.get("simulate_seconds", 0.0) for run in self.runs)


class SweepRunner:
    """Runs :class:`SweepSpec` grids across a worker pool with memoization."""

    def __init__(
        self,
        workers: int = 1,
        cache: Union[ResultCache, os.PathLike, str, None, bool] = False,
    ) -> None:
        """``cache`` may be a :class:`ResultCache`, a directory path,
        ``True`` for the default location, or ``False``/``None`` (default)
        to disable.

        Memoization is opt-in so programmatic callers never write to disk
        unless they asked to; the CLI opts in by default.
        """
        if isinstance(workers, bool) or not isinstance(workers, int) or workers < 1:
            raise ValueError(f"workers must be an int >= 1, got {workers!r}")
        self.workers = workers
        self.cache: Optional[ResultCache] = open_cache(cache)

    # ------------------------------------------------------------------
    def run(
        self,
        spec: Union[SweepSpec, SweepShard],
        manifest_path: Union[os.PathLike, str, None] = None,
        on_error: str = "raise",
        resumed: Optional[RunManifest] = None,
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

        Cells that share a :meth:`~repro.runner.spec.SweepCell.simulation_key`
        are simulated once (see the module docstring): a follower's manifest
        record is ``ok`` with no timings and its lead's start and worker.

        ``resumed`` is the manifest of the interrupted run this run resumes:
        each cell it finished that the cache still holds keeps, in the new
        manifest, the record that run wrote (timings, start, worker).
        """
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

        def fill(index: int, result: PlatformResult, from_cache: bool,
                 **record) -> None:
            """Give a cell its own copy of a result its group already has."""
            cell = cells[index]
            result = PlatformResult.from_record(result.to_record())
            runs[index] = CellRun(cell=cell, result=result, from_cache=from_cache)
            if self.cache is not None:
                self.cache.put(keys[index], result, cell.descriptor())
            if manifest is not None:
                manifest.mark(keys[index], "ok", from_cache=from_cache, **record)

        served: Dict[str, PlatformResult] = {}
        missed: List[int] = []
        for index, cell in enumerate(cells):
            cached = None if self.cache is None else self.cache.get(keys[index])
            if cached is None:
                missed.append(index)
                continue
            runs[index] = CellRun(cell=cell, result=cached, from_cache=True)
            served.setdefault(cell.simulation_key(), cached)
            if manifest is not None:
                manifest.mark_cached(keys[index], resumed)
        followers: Dict[int, List[int]] = {}
        leads: Dict[str, int] = {}
        for index in missed:
            simulation = cells[index].simulation_key()
            if simulation in served:
                fill(index, served[simulation], from_cache=True)
            elif simulation in leads:
                followers[leads[simulation]].append(index)
            else:
                leads[simulation] = index
                followers[index] = []
        pending = [(index, cells[index]) for index in leads.values()]
        if manifest is not None:
            manifest.write(manifest_path)

        if self.workers > 1 and len(pending) > 1:
            # Pool dispatch ahead: build each distinct trace once in the
            # parent and share it so no worker rebuilds it.  Serial runs
            # skip this — _TRACE_MEMO already deduplicates in-process.
            _SHARED_TRACES.publish(pending)
        try:
            for index, result, timings, cell_started, pid, error in self._execute(pending):
                cell = cells[index]
                worker = {"start_seconds": cell_started - started, "worker_pid": pid}
                if error is not None:
                    group = [index, *followers[index]]
                    if manifest is not None:
                        for member in group:
                            manifest.mark(keys[member], "failed", error=error, **worker)
                        manifest.write(manifest_path)
                    if on_error == "raise":
                        raise SweepExecutionError(
                            f"cell {cell.label} failed:\n{error}")
                    failed.extend(CellFailure(cell=cells[member], error=error)
                                  for member in group)
                    continue
                runs[index] = CellRun(
                    cell=cell, result=result, from_cache=False, timings=timings
                )
                if self.cache is not None:
                    self.cache.put(keys[index], result, cell.descriptor())
                if manifest is not None:
                    manifest.mark(keys[index], "ok", timings=timings, **worker)
                for member in followers[index]:
                    fill(member, result, from_cache=False, **worker)
                if manifest is not None:
                    manifest.write(manifest_path)
        except BaseException:
            # A pool-level failure, an on_error="raise" cell failure or
            # Ctrl-C: either way the shared pool still holds queued cells
            # whose results nobody will consume — terminate it so no ghost
            # work burns the workers, and the next sweep gets a fresh fork.
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
            failed=failed,
            shard_index=shard_index,
            shard_count=shard_count,
        )

    # ------------------------------------------------------------------
    def _execute(self, pending: Sequence[Tuple[int, SweepCell]]) -> Iterator[_Outcome]:
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
    cache: Union[ResultCache, os.PathLike, str, None, bool] = False,
) -> SweepResult:
    """One-call programmatic entry point (cache disabled unless requested)."""
    return SweepRunner(workers=workers, cache=cache).run(spec)
