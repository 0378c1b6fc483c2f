"""Structured, schema-versioned observability for sweeps and the engine.

``repro.telemetry`` is the management plane next to the execution plane: a
process-local tracer that emits **nested spans** (sweep → cell →
trace-build/simulate → engine sections), **counters** (cache hits, MSHR and
coalescer totals, event-loop depth, resource-wait cycles) as
append-only JSONL, one file per worker process, under
``<cache-root>/telemetry/``.  Every record carries the schema tag
``repro-telemetry-v1`` and is written with a single ``os.write`` so records
are atomic and per-worker files never contend across pool workers.

Telemetry is **off by default and free when off**: every instrumentation
site goes through module-level stubs that return a shared no-op span /
return immediately, so the disabled hot path allocates nothing and the
simulated numbers are bit-identical either way (gated by
``tests/telemetry/test_integration.py`` and the allocation-free check in
``tests/telemetry/test_tracer.py``).

Usage
-----
Enable with the environment (inherited by pool workers)::

    REPRO_TELEMETRY=1 python -m repro sweep --preset fig10 --scale 0.1 \
        --workers 2 --cache-dir traced-cache

then read the log(s)::

    <cache-root>/telemetry/events-<host>-<pid>.jsonl

or programmatically (tests, notebooks)::

    from repro import telemetry
    telemetry.configure(enabled=True, sink_dir="/tmp/tele")
    with telemetry.span("my-phase", {"detail": 1}):
        telemetry.counter("things", 3)
    telemetry.close()

Watch a sweep's manifest (one-shot or refreshing)::

    python -m repro status --cache-dir traced-cache
    python -m repro status --cache-dir traced-cache --watch --interval 2
    python -m repro status --cache-dir traced-cache --validate  # schema-check events

``repro report`` renders any telemetry found next to the manifests into
``<out>/telemetry/spans.csv`` (canonical CSV) and ``timeline.html`` (a
per-worker swimlane); both live in a subdirectory so the top-level golden
CSV gate is untouched.

Submodules
----------
* :mod:`repro.telemetry.core` — tracer, spans, counters, sinks (re-exported).
* :mod:`repro.telemetry.schema` — record validation (re-exported).
* :mod:`repro.telemetry.status` — manifest status (``repro status``).
* :mod:`repro.telemetry.timeline` — ``spans.csv`` + ``timeline.html`` artifacts.
"""

from repro.telemetry.core import (
    ENV_DIR,
    ENV_FLAG,
    NULL_SPAN,
    Span,
    close,
    configure,
    counter,
    current_span_id,
    emit_counters,
    enabled,
    ensure_sink_env,
    reset,
    sink_dir,
    span,
    worker_identity,
)
from repro.telemetry.schema import (
    RECORD_TYPES,
    TELEMETRY_SCHEMA,
    iter_event_files,
    read_events,
    validate_events_dir,
    validate_record,
)

__all__ = [
    "ENV_DIR",
    "ENV_FLAG",
    "NULL_SPAN",
    "RECORD_TYPES",
    "Span",
    "TELEMETRY_SCHEMA",
    "close",
    "configure",
    "counter",
    "current_span_id",
    "emit_counters",
    "enabled",
    "ensure_sink_env",
    "iter_event_files",
    "read_events",
    "reset",
    "sink_dir",
    "span",
    "validate_events_dir",
    "validate_record",
    "worker_identity",
]
