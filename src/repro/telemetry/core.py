"""Tracer internals: enablement gates, nested spans, counters, JSONL sinks.

Design constraints (what the tests pin):

* **Zero overhead when disabled.**  Every public entry checks
  :func:`enabled` first and returns a shared singleton (:data:`NULL_SPAN`)
  or simply returns — no dict, no object, no string is allocated on the
  disabled path, so instrumented hot loops cost one memoised env lookup.

* **Atomic, contention-free emission.**  Each process appends to its own
  ``events-<host>-<pid>.jsonl`` (``O_APPEND``; one ``os.write`` per record),
  so pool workers sharing a sink directory never interleave partial lines
  and never take a lock across processes.  After a ``fork`` the
  child's first record transparently opens its own file (the sink fd is
  keyed by pid).

* **Results are never perturbed.**  The tracer only *observes*: nothing it
  writes feeds back into ``PlatformResult`` or the caches, so simulated
  numbers are bit-identical with telemetry on or off.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from pathlib import Path
from typing import Dict, Optional

from repro.telemetry.schema import TELEMETRY_SCHEMA

#: Truthy values of :data:`ENV_FLAG` switch telemetry on.
ENV_FLAG = "REPRO_TELEMETRY"
#: Directory the JSONL sinks live in (the CLI points it at ``<cache>/telemetry``).
ENV_DIR = "REPRO_TELEMETRY_DIR"

_TRUTHY = frozenset(("1", "true", "yes", "on"))
_HOST = socket.gethostname()


class _TracerState:
    """Mutable module state; overrides beat the environment when set."""

    __slots__ = ("enabled_override", "sink_override", "worker_override",
                 "fd", "fd_pid", "span_seq", "lock")

    def __init__(self) -> None:
        self.enabled_override: Optional[bool] = None
        self.sink_override: Optional[Path] = None
        self.worker_override: Optional[str] = None
        self.fd: Optional[int] = None
        self.fd_pid: Optional[int] = None
        self.span_seq = 0
        self.lock = threading.Lock()


_STATE = _TracerState()
#: Memoised parse of the raw env value — the disabled-path check must not
#: allocate (``.strip().lower()`` would), so each distinct raw string is
#: interpreted once.
_ENV_MEMO: Dict[Optional[str], bool] = {}
_LOCAL = threading.local()


def enabled() -> bool:
    """Is telemetry on?  ``configure()`` override first, then the env flag."""
    override = _STATE.enabled_override
    if override is not None:
        return override
    raw = os.environ.get(ENV_FLAG)
    hit = _ENV_MEMO.get(raw)
    if hit is None:
        hit = raw is not None and raw.strip().lower() in _TRUTHY
        _ENV_MEMO[raw] = hit
    return hit


def configure(
    enabled: Optional[bool] = None,
    sink_dir: Optional[os.PathLike] = None,
    worker: Optional[str] = None,
) -> None:
    """Programmatic override of the env gates (tests, embedding callers).

    ``None`` for any argument defers that axis back to the environment;
    ``configure()`` with no arguments is therefore a full reset.  Any open
    sink is closed so the next record lands in the newly configured place.
    """
    close()
    _STATE.enabled_override = enabled
    _STATE.sink_override = Path(sink_dir) if sink_dir is not None else None
    _STATE.worker_override = worker


def reset() -> None:
    """Drop every override and close the sink (env gates apply again)."""
    configure()


def close() -> None:
    """Close this process's sink file (reopened lazily on the next record)."""
    with _STATE.lock:
        if _STATE.fd is not None:
            try:
                os.close(_STATE.fd)
            except OSError:
                pass
        _STATE.fd = None
        _STATE.fd_pid = None


def sink_dir() -> Path:
    """Where this process's event file goes (override > env > cache root)."""
    if _STATE.sink_override is not None:
        return _STATE.sink_override
    env = os.environ.get(ENV_DIR)
    if env:
        return Path(env)
    from repro.runner.cache import default_cache_dir  # lazy: avoids a cycle

    return default_cache_dir() / "telemetry"


def ensure_sink_env(cache_root: Optional[os.PathLike]) -> Optional[Path]:
    """CLI bootstrap: pin the sink under ``cache_root`` via the environment.

    Called once per command *before* any worker pool forks, so every child
    process inherits the same sink directory.  An explicit
    ``REPRO_TELEMETRY_DIR`` wins; ``cache_root=None`` (a --no-cache sweep)
    leaves the lazy default in place, which parent and children resolve
    identically.  Returns the effective sink (``None`` when disabled).
    """
    if not enabled():
        return None
    if not os.environ.get(ENV_DIR) and cache_root is not None:
        os.environ[ENV_DIR] = str(Path(cache_root) / "telemetry")
    return sink_dir()


def worker_identity() -> str:
    """The worker stamped on every record: ``<host>-<pid>`` unless configured."""
    return _STATE.worker_override or f"{_HOST}-{os.getpid()}"


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------
def _sink_fd() -> Optional[int]:
    """This process's append-only sink fd, (re)opened lazily and per-pid.

    Keying by pid makes forked pool workers open their own files the first
    time they emit — the parent's inherited fd is closed in the child (a
    child's close never affects the parent's descriptor).
    """
    pid = os.getpid()
    if _STATE.fd is not None and _STATE.fd_pid == pid:
        return _STATE.fd
    with _STATE.lock:
        if _STATE.fd is not None and _STATE.fd_pid == pid:
            return _STATE.fd
        if _STATE.fd is not None:
            try:
                os.close(_STATE.fd)
            except OSError:
                pass
            _STATE.fd = None
        directory = sink_dir()
        try:
            directory.mkdir(parents=True, exist_ok=True)
            path = directory / f"events-{_HOST}-{pid}.jsonl"
            fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        except OSError:
            return None
        _STATE.fd = fd
        _STATE.fd_pid = pid
        return fd


def _emit(record: Dict[str, object]) -> None:
    """One record, one line, one ``os.write`` — atomic on POSIX O_APPEND."""
    fd = _sink_fd()
    if fd is None:
        return
    line = json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    try:
        os.write(fd, line.encode("utf-8"))
    except OSError:
        pass  # observability must never fail the run it observes


def _base(record_type: str, name: str) -> Dict[str, object]:
    return {
        "schema": TELEMETRY_SCHEMA,
        "type": record_type,
        "name": name,
        "ts": time.time(),
        "pid": os.getpid(),
        "host": _HOST,
        "worker": worker_identity(),
    }


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------
def _span_stack() -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = []
    return stack


class _NullSpan:
    """The shared do-nothing span the disabled path hands out.

    A singleton with empty ``__slots__``: entering/exiting allocates
    nothing, which is what keeps disabled instrumentation free on hot paths
    (asserted by the tracemalloc test).
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


NULL_SPAN = _NullSpan()


class Span:
    """One live span; emitted as a single record when it exits.

    The record's ``ts`` is the span's *start* wall time and
    ``duration_seconds`` its monotonic-clock length, so swimlanes render
    from one record per span.  Nesting is tracked per thread: the record
    carries the enclosing span's id as ``parent_id``.
    """

    __slots__ = ("name", "attrs", "span_id", "parent_id", "_ts", "_t0")

    def __init__(self, name: str, attrs: Dict[str, object]) -> None:
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "Span":
        with _STATE.lock:
            _STATE.span_seq += 1
            sequence = _STATE.span_seq
        self.span_id = f"{os.getpid()}-{sequence}"
        stack = _span_stack()
        self.parent_id = stack[-1] if stack else None
        stack.append(self.span_id)
        self._ts = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration = time.perf_counter() - self._t0
        stack = _span_stack()
        if stack and stack[-1] == self.span_id:
            stack.pop()
        record = _base("span", self.name)
        record["ts"] = self._ts
        record["span_id"] = self.span_id
        record["parent_id"] = self.parent_id
        record["duration_seconds"] = duration
        record["status"] = "ok" if exc_type is None else "error"
        record["attrs"] = self.attrs
        _emit(record)
        return False


def span(name: str, attrs: Optional[Dict[str, object]] = None):
    """A context manager tracing ``name``; :data:`NULL_SPAN` when disabled.

    ``attrs`` is a plain optional dict (not ``**kwargs``) so disabled call
    sites can pass ``None`` and allocate nothing at all.
    """
    if not enabled():
        return NULL_SPAN
    return Span(name, dict(attrs) if attrs else {})


def current_span_id() -> Optional[str]:
    stack = getattr(_LOCAL, "stack", None)
    return stack[-1] if stack else None


# ---------------------------------------------------------------------------
# Counters
# ---------------------------------------------------------------------------
def counter(
    name: str, value, attrs: Optional[Dict[str, object]] = None
) -> None:
    """Emit one counter sample, linked to the enclosing span (if any)."""
    if not enabled():
        return
    record = _base("counter", name)
    record["parent_id"] = current_span_id()
    record["value"] = value
    record["attrs"] = dict(attrs) if attrs else {}
    _emit(record)


def emit_counters(
    values: Dict[str, object], attrs: Optional[Dict[str, object]] = None
) -> None:
    """Emit one record per ``{name: value}`` entry, in sorted name order."""
    if not enabled():
        return
    for name in sorted(values):
        counter(name, values[name], attrs)
