"""The ``repro-telemetry-v1`` record schema and its validator.

One JSONL line per record; every record carries the common envelope
(``schema``/``type``/``name``/``ts``/``pid``/``host``/``worker``) plus
type-specific fields:

* ``span`` — ``span_id``, ``parent_id`` (nullable), ``duration_seconds``
  (non-negative), ``status`` (``ok``/``error``), ``attrs``.  ``ts`` is the
  span's *start* wall time.
* ``counter`` — ``value`` (finite number), ``parent_id``, ``attrs``.
* ``event`` — ``parent_id``, ``attrs``.  The tracer no longer emits events;
  the type stays so that logs written earlier still validate.

``attrs`` values are JSON scalars (str/int/float/bool/None) so the log
stays greppable and schema checks stay total.  The validator returns
human-readable violation strings instead of raising, which is what both the
tests and the ``telemetry-verify`` CI job consume.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List, Optional, Tuple

TELEMETRY_SCHEMA = "repro-telemetry-v1"

RECORD_TYPES = ("span", "counter", "event")

_ENVELOPE = (
    ("schema", str),
    ("type", str),
    ("name", str),
    ("pid", int),
    ("host", str),
    ("worker", str),
)

_SCALARS = (str, int, float, bool, type(None))


def _is_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def validate_record(record, where: str = "record") -> List[str]:
    """Every way ``record`` violates the v1 schema, as readable strings."""
    if not isinstance(record, dict):
        return [f"{where}: not a JSON object"]
    problems: List[str] = []
    for field, kind in _ENVELOPE:
        value = record.get(field)
        if not isinstance(value, kind) or isinstance(value, bool):
            problems.append(
                f"{where}: field {field!r} must be {kind.__name__}, "
                f"got {type(value).__name__}")
        elif kind is str and not value:
            problems.append(f"{where}: field {field!r} must be non-empty")
    if record.get("schema") != TELEMETRY_SCHEMA and isinstance(
            record.get("schema"), str):
        problems.append(
            f"{where}: schema {record['schema']!r} is not {TELEMETRY_SCHEMA!r}")
    record_type = record.get("type")
    if isinstance(record_type, str) and record_type not in RECORD_TYPES:
        problems.append(
            f"{where}: type {record_type!r} not in {RECORD_TYPES}")
    if not _is_number(record.get("ts")):
        problems.append(f"{where}: field 'ts' must be a finite number")

    attrs = record.get("attrs")
    if not isinstance(attrs, dict):
        problems.append(f"{where}: field 'attrs' must be an object")
    else:
        for key, value in attrs.items():
            if not isinstance(key, str):
                problems.append(f"{where}: attrs key {key!r} must be a string")
            if not isinstance(value, _SCALARS):
                problems.append(
                    f"{where}: attrs[{key!r}] must be a JSON scalar, "
                    f"got {type(value).__name__}")

    parent = record.get("parent_id")
    if parent is not None and (not isinstance(parent, str) or not parent):
        problems.append(
            f"{where}: field 'parent_id' must be null or a non-empty string")

    if record_type == "span":
        span_id = record.get("span_id")
        if not isinstance(span_id, str) or not span_id:
            problems.append(
                f"{where}: span field 'span_id' must be a non-empty string")
        duration = record.get("duration_seconds")
        if not _is_number(duration) or duration < 0:
            problems.append(
                f"{where}: span field 'duration_seconds' must be a "
                f"non-negative finite number")
        if record.get("status") not in ("ok", "error"):
            problems.append(
                f"{where}: span field 'status' must be 'ok' or 'error'")
    elif record_type == "counter":
        if not _is_number(record.get("value")):
            problems.append(
                f"{where}: counter field 'value' must be a finite number")
    return problems


# ---------------------------------------------------------------------------
# File / directory helpers (tests, CI, `repro status --validate`, reports)
# ---------------------------------------------------------------------------
def iter_event_files(root) -> List[Path]:
    """Every per-worker event file under ``root``, sorted for determinism."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(root.glob("events*.jsonl"))


def read_events(root) -> List[Dict[str, object]]:
    """All parseable records across every event file of ``root``.

    Unparseable lines are skipped (the validator reports them); record
    order is per-file append order, files in sorted name order.
    """
    events: List[Dict[str, object]] = []
    for path in iter_event_files(root):
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                continue
            if isinstance(record, dict):
                events.append(record)
    return events


def validate_events_dir(root) -> Tuple[int, List[str]]:
    """Validate every line of every event file; ``(record_count, problems)``."""
    count = 0
    problems: List[str] = []
    for path in iter_event_files(root):
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if not line.strip():
                problems.append(f"{path.name}:{number}: blank line")
                continue
            where = f"{path.name}:{number}"
            try:
                record = json.loads(line)
            except ValueError as error:
                problems.append(f"{where}: unparseable JSON ({error})")
                continue
            count += 1
            problems.extend(validate_record(record, where=where))
    return count, problems


def span_records(events) -> List[Dict[str, object]]:
    return [record for record in events if record.get("type") == "span"]


def cell_coverage(events) -> set:
    """The ``(platform, workload, override)`` triples with a ``cell`` span.

    The acceptance drill checks this set covers every executed cell of a
    sweep: each executed cell must have left exactly this kind of span.
    """
    covered = set()
    for record in span_records(events):
        if record.get("name") != "cell":
            continue
        attrs = record.get("attrs") or {}
        covered.add(
            (attrs.get("platform"), attrs.get("workload"), attrs.get("override"))
        )
    return covered
