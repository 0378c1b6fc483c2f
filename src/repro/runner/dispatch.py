"""Lease-based distributed sweep fabric: ``repro dispatch``.

Sharded sweeps (PR 4) made cell *placement* manual: ``--shard I/N`` pins a
fixed slice of the grid to each host, and a dead host loses its slice until
a human resubmits it.  Dispatch replaces fixed shards with a crash-tolerant
work queue that leases **cells** to any number of worker processes/hosts:

* **File-backed queue** — lives in the result-cache root under
  ``dispatch/<spec-fingerprint[:16]>/``.  The queue directory is the only
  coordination channel; point every worker at the same cache root (a shared
  filesystem across hosts) and they cooperate with no daemon, no sockets and
  no leader.

* **Atomic leases** — claiming cell ``<key>`` creates
  ``leases/<key>.gen-<N>.json`` via hard-link-from-temp, which is atomic
  *and* exclusive: two workers racing for one claim resolve to exactly one
  owner, kernel-arbitrated.  The lease's mtime is its heartbeat; the owner
  refreshes it on a background thread while executing.

* **Work-stealing of expired leases** — a lease whose heartbeat is older
  than the TTL is dead (SIGKILL, hang, partition); any worker may claim the
  *next generation* ``gen-<N+1>`` of that cell.  Generation numbers make the
  steal itself race-free: of M workers that observe the same expired lease,
  exactly one wins the next generation's exclusive create.

* **Exactly-once commit** — execution is at-least-once by design (a slow
  worker may race its thief), but commitment is exactly-once: the first
  ``done/<key>.json`` marker wins, every later committer discards.  Results
  are content-addressed and cells are deterministic, so a double-executed
  cell stores byte-identical records either way — the completed grid is
  bit-identical to a serial sweep.

On completion any worker that observes a fully-committed queue writes the
same schema-versioned run manifest a ``repro sweep`` run would (plus a
``dispatch`` provenance block), so ``repro merge`` / ``repro report`` and
every golden gate work unchanged.

CLI front end: ``python -m repro dispatch`` (see the package docstring).
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import re
import socket
import tempfile
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.runner.cache import ResultCache, open_cache
from repro.runner.runner import _execute_cell_timed
from repro.runner.spec import SweepCell, SweepSpec
from repro.telemetry import core as _telemetry

#: Queue-layout schema; bump when the on-disk protocol changes.  Mixing
#: protocol versions across a fleet is rejected loudly at ``ensure`` time.
QUEUE_SCHEMA = "repro-dispatch-queue-v1"

#: The manifest's ``dispatch`` provenance-block schema.
DISPATCH_SCHEMA = "repro-dispatch-v1"

#: A lease whose heartbeat is older than this many seconds is stealable.
DEFAULT_LEASE_TTL_SECONDS = 30.0

_logger = logging.getLogger(__name__)

_LEASE_NAME = re.compile(r"^(?P<key>[0-9a-f]{64})\.gen-(?P<gen>[1-9][0-9]*)\.json$")


class DispatchError(RuntimeError):
    """The dispatch queue is unusable (wrong spec, wrong schema, bad state)."""


def _check_seconds(name: str, value: float, allow_zero: bool = False) -> None:
    """Reject a duration a worker cannot sleep or wait on.

    NaN, infinities and anything above ``threading.TIMEOUT_MAX`` would
    otherwise pass a plain ``<= 0`` test and fail later, inside the
    heartbeat thread or after a lease file is already on disk.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value) or value > threading.TIMEOUT_MAX
            or value < 0 or (value == 0 and not allow_zero)):
        bound = ">= 0" if allow_zero else "> 0"
        raise ValueError(f"{name} must be a finite number of seconds {bound}, "
                         f"got {value!r}")


def default_owner() -> str:
    """A fleet-unique worker identity: ``<host>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def _exclusive_create(directory: Path, name: str, payload: Dict[str, object],
                      mtime: Optional[float] = None) -> bool:
    """Atomically create ``directory/name`` with ``payload`` — exclusively.

    The content is written to a temp file first and *hard-linked* into
    place: the link either succeeds (this caller owns the name, and every
    observer sees complete content) or raises ``FileExistsError`` (someone
    else won).  This is the primitive every queue transition builds on.
    """
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, sort_keys=True)
        if mtime is not None:
            os.utime(tmp_name, (mtime, mtime))
        try:
            os.link(tmp_name, directory / name)
        except FileExistsError:
            return False
        return True
    finally:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass


@dataclass(frozen=True)
class Lease:
    """This worker's claim on one cell (one generation of it)."""

    key: str
    owner: str
    generation: int
    path: Path


class LeaseQueue:
    """The file-backed cell queue: claim / heartbeat / steal / commit.

    ``clock`` is injectable (tests drive lease expiry deterministically);
    heartbeats are the lease file's mtime, set explicitly from the same
    clock, so wall-clock and simulated time never mix.
    """

    def __init__(
        self,
        root: Union[os.PathLike, str],
        lease_ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS,
        clock: Callable[[], float] = time.time,
    ) -> None:
        _check_seconds("lease TTL", lease_ttl_seconds)
        self.root = Path(root)
        self.lease_ttl_seconds = float(lease_ttl_seconds)
        self.clock = clock
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"

    # -- queue registration --------------------------------------------
    def ensure(self, spec: SweepSpec) -> None:
        """Register the spec in the queue dir, or verify the existing one.

        First worker in creates ``queue.json``; every later worker must
        declare the identical spec fingerprint — a queue directory can never
        mix cells of different sweeps.
        """
        fingerprint = spec.fingerprint()
        payload = {
            "schema": QUEUE_SCHEMA,
            "spec_fingerprint": fingerprint,
            "spec": spec.descriptor(),
            "cells": len(spec),
            "lease_ttl_seconds": self.lease_ttl_seconds,
        }
        queue_file = self.root / "queue.json"
        if not _exclusive_create(self.root, "queue.json", payload):
            try:
                existing = json.loads(queue_file.read_text())
            except (OSError, ValueError) as error:
                raise DispatchError(
                    f"queue registration {queue_file} is unreadable: {error}")
            if existing.get("schema") != QUEUE_SCHEMA:
                raise DispatchError(
                    f"queue {self.root} speaks {existing.get('schema')!r}; "
                    f"this code speaks {QUEUE_SCHEMA!r}")
            if existing.get("spec_fingerprint") != fingerprint:
                raise DispatchError(
                    f"queue {self.root} belongs to spec "
                    f"{str(existing.get('spec_fingerprint'))[:12]}..., not "
                    f"{fingerprint[:12]}... — one queue dir per sweep")
        self.leases_dir.mkdir(parents=True, exist_ok=True)
        self.done_dir.mkdir(parents=True, exist_ok=True)

    # -- lease primitives ----------------------------------------------
    def _generations(self, key: str) -> List[tuple]:
        """Sorted ``(generation, path)`` of every lease file for ``key``."""
        out = []
        try:
            names = os.listdir(self.leases_dir)
        except OSError:
            return out
        for name in names:
            match = _LEASE_NAME.match(name)
            if match and match.group("key") == key:
                out.append((int(match.group("gen")), self.leases_dir / name))
        out.sort()
        return out

    def current_lease(self, key: str) -> Optional[Dict[str, object]]:
        """The highest-generation lease's state, or ``None`` when unclaimed.

        Returns ``{"generation", "owner", "age_seconds", "expired"}``;
        ``owner`` may be ``"?"`` for a lease whose record is unreadable
        (content never races — creation is link-atomic — but the file may
        vanish between listing and reading).
        """
        generations = self._generations(key)
        if not generations:
            return None
        generation, path = generations[-1]
        now = self.clock()
        try:
            age = now - path.stat().st_mtime
        except OSError:
            return None  # vanished: effectively unclaimed
        owner = "?"
        try:
            owner = str(json.loads(path.read_text()).get("owner", "?"))
        except (OSError, ValueError):
            pass
        return {
            "generation": generation,
            "owner": owner,
            "age_seconds": age,
            "expired": age > self.lease_ttl_seconds,
        }

    def try_claim(self, key: str, owner: str) -> Optional[Lease]:
        """Claim ``key`` — fresh, or by stealing an expired lease.

        Returns the won :class:`Lease`, or ``None`` when the cell is held by
        a live lease or another claimant won the race.  Exactly one of any
        number of concurrent claimants for the same generation succeeds (the
        hard link is kernel-arbitrated).
        """
        if self.is_done(key):
            return None
        victim_owner: Optional[str] = None
        victim_age = 0.0
        generations = self._generations(key)
        if generations:
            generation, path = generations[-1]
            try:
                age = self.clock() - path.stat().st_mtime
            except OSError:
                # The lease vanished mid-look; next pass re-evaluates.
                return None
            if age <= self.lease_ttl_seconds:
                return None  # live lease — not stealable
            next_generation = generation + 1
            # Read the victim's identity *before* racing for the steal: the
            # stolen-lease event must name who lost the cell, and the file
            # may be cleaned up once a thief wins.
            victim_age = age
            try:
                victim_owner = str(
                    json.loads(path.read_text()).get("owner", "?"))
            except (OSError, ValueError):
                victim_owner = "?"
        else:
            next_generation = 1
        now = self.clock()
        name = f"{key}.gen-{next_generation}.json"
        won = _exclusive_create(
            self.leases_dir,
            name,
            {
                "key": key,
                "owner": owner,
                "generation": next_generation,
                "claimed_at": now,
                "lease_ttl_seconds": self.lease_ttl_seconds,
            },
            mtime=now,
        )
        if not won:
            return None
        if victim_owner is not None:
            # Emitted only by the winning thief, at steal time: a structured
            # record of who lost the cell and which generation superseded it.
            _logger.warning(
                "lease stolen: cell %s gen %d from %s (heartbeat %.1fs stale) "
                "by %s", key[:12], next_generation - 1, victim_owner,
                victim_age - self.lease_ttl_seconds, owner)
            if _telemetry.enabled():
                _telemetry.event("lease.stolen", {
                    "key": key,
                    "victim_owner": victim_owner,
                    "victim_generation": next_generation - 1,
                    "thief_owner": owner,
                    "generation": next_generation,
                    "heartbeat_age_seconds": victim_age,
                    "lease_ttl_seconds": self.lease_ttl_seconds,
                })
        return Lease(key=key, owner=owner, generation=next_generation,
                     path=self.leases_dir / name)

    def heartbeat(self, lease: Lease) -> None:
        """Refresh the lease's liveness (owner-only; mtime is the heartbeat)."""
        now = self.clock()
        try:
            os.utime(lease.path, (now, now))
        except OSError:
            pass  # stolen-and-cleaned or unlinked queue: expiry handles it

    # -- commitment ----------------------------------------------------
    def commit(
        self,
        key: str,
        owner: str,
        generation: int,
        status: str = "ok",
        from_cache: bool = False,
        timings: Optional[Dict[str, float]] = None,
        error: Optional[str] = None,
    ) -> bool:
        """Durably finish ``key``; ``True`` iff *this* call won the commit.

        Exactly one commit ever succeeds per cell (exclusive marker create);
        a worker that raced its thief simply discards.  ``generation`` 0
        records a cache-served cell that never needed a lease.
        """
        return _exclusive_create(
            self.done_dir,
            f"{key}.json",
            {
                "key": key,
                "owner": owner,
                "generation": generation,
                "status": status,
                "from_cache": from_cache,
                "timings": dict(timings or {}),
                "error": error,
                "committed_at": self.clock(),
            },
        )

    def is_done(self, key: str) -> bool:
        return (self.done_dir / f"{key}.json").exists()

    def done_record(self, key: str) -> Optional[Dict[str, object]]:
        """The committed record for ``key`` (complete by construction)."""
        try:
            payload = json.loads((self.done_dir / f"{key}.json").read_text())
        except (OSError, ValueError):
            return None
        return payload if isinstance(payload, dict) else None

    def all_done(self, keys: Sequence[str]) -> bool:
        return all(self.is_done(key) for key in keys)

    def pending(self, keys: Sequence[str]) -> List[str]:
        return [key for key in keys if not self.is_done(key)]

    # -- provenance ----------------------------------------------------
    def summary(self, keys: Sequence[str]) -> Dict[str, object]:
        """The manifest's ``dispatch`` block, derived purely from markers.

        Every field is a function of the committed done records (plus the
        queue registration), so *which* worker finalises the manifest does
        not change a byte of it.
        """
        owners = set()
        executed = cache_served = failed = stolen = 0
        for key in keys:
            record = self.done_record(key) or {}
            owners.add(str(record.get("owner", "?")))
            if record.get("status") == "failed":
                failed += 1
            elif record.get("from_cache"):
                cache_served += 1
            else:
                executed += 1
            if int(record.get("generation", 0) or 0) > 1:
                stolen += 1
        return {
            "schema": DISPATCH_SCHEMA,
            "queue": str(self.root),
            "lease_ttl_seconds": self.lease_ttl_seconds,
            "workers": sorted(owners),
            "executed": executed,
            "cache_served": cache_served,
            "failed": failed,
            "stolen_leases": stolen,
        }


class _HeartbeatThread(threading.Thread):
    """Refreshes one lease while its cell executes; dies with the process.

    A SIGKILL takes this thread down with the worker, the heartbeat stops,
    the lease expires, and the cell is stolen — which is the entire
    fault-tolerance story in one sentence.
    """

    def __init__(self, queue: LeaseQueue, lease: Lease, interval: float) -> None:
        super().__init__(name=f"lease-heartbeat-{lease.key[:8]}", daemon=True)
        self._queue = queue
        self._lease = lease
        self._interval = interval
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self._interval):
            self._queue.heartbeat(self._lease)

    def stop(self) -> None:
        self._stopped.set()
        self.join(timeout=self._interval * 2)


@dataclass
class DispatchReport:
    """What one dispatch worker did, and whether the grid completed."""

    owner: str
    executed: int = 0
    cache_served: int = 0
    stolen: int = 0
    failed: List[str] = field(default_factory=list)
    #: Cells this worker executed but lost the commit race for (a thief won).
    wasted: int = 0
    complete: bool = False
    manifest_path: Optional[Path] = None
    elapsed_seconds: float = 0.0

    @property
    def committed(self) -> int:
        return self.executed + self.cache_served + len(self.failed)


class DispatchWorker:
    """One claim-execute-commit worker over a shared lease queue.

    Any number of workers — processes, hosts — may run concurrently against
    the same cache root; each repeatedly scans the cell list (rotated by a
    hash of its owner id so workers start in different regions and rarely
    contend), commits what it can, steals what has expired, and sleeps
    briefly when everything pending is held by live peers.
    """

    def __init__(
        self,
        spec: SweepSpec,
        cache: Union[ResultCache, os.PathLike, str, bool, None] = True,
        owner: Optional[str] = None,
        lease_ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS,
        poll_interval_seconds: Optional[float] = None,
        stall_after_claim_seconds: float = 0.0,
        max_cells: Optional[int] = None,
        clock: Callable[[], float] = time.time,
    ) -> None:
        # Every knob is checked before the queue is touched (LeaseQueue checks
        # the TTL): a bad value must not surface only after a lease is claimed.
        if poll_interval_seconds is not None:
            _check_seconds("poll interval", poll_interval_seconds)
        _check_seconds("stall after claim", stall_after_claim_seconds,
                       allow_zero=True)
        if max_cells is not None and (
                isinstance(max_cells, bool) or not isinstance(max_cells, int)
                or max_cells < 1):
            raise ValueError(f"max cells must be an int >= 1, got {max_cells!r}")
        self.spec = spec
        cache = open_cache(cache)
        if cache is None:
            raise DispatchError(
                "dispatch requires a result cache — it is the channel results "
                "travel through; pass a directory or a ResultCache")
        self.cache = cache
        self.owner = owner or default_owner()
        queue_root = Path(cache.root) / "dispatch" / spec.fingerprint()[:16]
        self.queue = LeaseQueue(queue_root, lease_ttl_seconds, clock=clock)
        self.poll_interval_seconds = (
            poll_interval_seconds if poll_interval_seconds is not None
            else max(0.05, min(1.0, lease_ttl_seconds / 4.0)))
        self.stall_after_claim_seconds = stall_after_claim_seconds
        self.max_cells = max_cells
        self._stalled = False

    # ------------------------------------------------------------------
    def run(self) -> DispatchReport:
        """Work the queue until the grid is committed (or budget exhausted)."""
        started = time.perf_counter()
        # Dispatch workers are whole processes with a stable identity — make
        # every telemetry record (and the per-process event file) carry the
        # owner id instead of a bare host-pid.
        _telemetry.set_worker(self.owner)
        worker_span = _telemetry.NULL_SPAN
        if _telemetry.enabled():
            worker_span = _telemetry.span("dispatch.worker", {
                "owner": self.owner,
                "fingerprint": self.spec.fingerprint(),
                "queue": str(self.queue.root),
            })
        with worker_span:
            report = self._run_queue()
        if _telemetry.enabled():
            _telemetry.emit_counters({
                "dispatch.executed": float(report.executed),
                "dispatch.cache_served": float(report.cache_served),
                "dispatch.failed": float(len(report.failed)),
                "dispatch.stolen": float(report.stolen),
                "dispatch.wasted": float(report.wasted),
            }, attrs={"owner": self.owner})
        report.elapsed_seconds = time.perf_counter() - started
        return report

    def _run_queue(self) -> DispatchReport:
        self.queue.ensure(self.spec)
        cells = sorted(self.spec.cells(), key=lambda cell: cell.cache_key())
        keys = [cell.cache_key() for cell in cells]
        if cells:
            rotation = int(
                hashlib.sha256(self.owner.encode()).hexdigest(), 16) % len(cells)
            cells = cells[rotation:] + cells[:rotation]
        report = DispatchReport(owner=self.owner)

        while True:
            progressed = False
            for cell in cells:
                if self._budget_exhausted(report):
                    break
                outcome = self._process(cell, report)
                if outcome in ("executed", "cache", "failed", "wasted", "stalled"):
                    progressed = True
            if self.queue.all_done(keys):
                break
            if self._budget_exhausted(report):
                break
            if not progressed:
                time.sleep(self.poll_interval_seconds)

        report.complete = self.queue.all_done(keys)
        if report.complete:
            report.manifest_path = self._finalize()
        return report

    def _budget_exhausted(self, report: DispatchReport) -> bool:
        if self.max_cells is None:
            return False
        return report.executed + len(report.failed) >= self.max_cells

    # ------------------------------------------------------------------
    def _process(self, cell: SweepCell, report: DispatchReport) -> str:
        key = cell.cache_key()
        if self.queue.is_done(key):
            return "done-elsewhere"
        cached = self.cache.get(key)
        if cached is not None:
            if self.queue.commit(key, self.owner, generation=0, from_cache=True):
                report.cache_served += 1
                return "cache"
            return "done-elsewhere"
        lease = self.queue.try_claim(key, self.owner)
        if lease is None:
            return "blocked"
        if lease.generation > 1:
            report.stolen += 1
        if self.stall_after_claim_seconds and not self._stalled:
            # Fault-injection hook (--stall-after-claim): hold the first
            # claimed lease without heartbeating, simulating a hang/partition
            # so tests and CI can SIGKILL mid-lease deterministically.
            self._stalled = True
            time.sleep(self.stall_after_claim_seconds)
            return "stalled"
        heartbeat = _HeartbeatThread(
            self.queue, lease, interval=self.queue.lease_ttl_seconds / 4.0)
        heartbeat.start()
        try:
            try:
                result, timings = _execute_cell_timed(cell)
            except Exception:
                error = traceback.format_exc()
                if self.queue.commit(key, self.owner, lease.generation,
                                     status="failed", error=error):
                    report.failed.append(cell.label)
                    return "failed"
                return "wasted"
            self.cache.put(key, result, cell.descriptor())
            if self.queue.commit(key, self.owner, lease.generation,
                                 timings=timings):
                report.executed += 1
                return "executed"
            # A thief committed first; the cache write above stored the
            # identical bytes, so nothing is inconsistent — just unlucky.
            report.wasted += 1
            return "wasted"
        finally:
            heartbeat.stop()

    # ------------------------------------------------------------------
    def _finalize(self) -> Path:
        """Write the run manifest every completed dispatch converges on.

        Derived exclusively from the spec and the done markers, so each of N
        workers that observes completion writes byte-identical content; the
        atomic replace makes the last writer invisible.
        """
        from repro.runner.manifest import RunManifest, default_manifest_name

        spec_cells = self.spec.cells()
        manifest = RunManifest.for_run(
            self.spec, spec_cells, cache_dir=str(self.cache.root))
        elapsed = 0.0
        for cell in spec_cells:
            key = cell.cache_key()
            record = self.queue.done_record(key)
            if record is None:  # pragma: no cover - marker raced finalize
                raise DispatchError(
                    f"done marker for {cell.label} vanished during finalize")
            status = "failed" if record.get("status") == "failed" else "ok"
            timings = {
                str(k): float(v)
                for k, v in dict(record.get("timings") or {}).items()
            }
            manifest.mark(
                key,
                status,
                from_cache=bool(record.get("from_cache")),
                timings=timings,
                error=record.get("error"),
            )
            elapsed += sum(timings.values())
        manifest.elapsed_seconds = elapsed
        manifest.dispatch = self.queue.summary(
            [cell.cache_key() for cell in spec_cells])
        return manifest.write(Path(self.cache.root) / default_manifest_name())


def run_dispatch_worker(
    spec: SweepSpec,
    cache: Union[ResultCache, os.PathLike, str, bool, None] = True,
    **kwargs,
) -> DispatchReport:
    """One-call programmatic entry: run a single worker until the grid closes."""
    return DispatchWorker(spec, cache=cache, **kwargs).run()
