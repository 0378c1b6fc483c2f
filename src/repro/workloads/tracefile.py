"""Schema-versioned, content-hashed trace files (``repro-trace-v1``).

A trace file freezes one generated (or externally captured) workload trace on
disk so it can be replayed **bit-identically**: a sweep over
``trace:<path>`` produces exactly the per-cell results of the run that
generated it, and an external trace in the same format becomes a first-class
workload with caching, sharding and merging for free.

File layout (JSON, human-inspectable)::

    {
      "schema":       "repro-trace-v1",
      "content_hash": sha256 over the canonical encoding of the body,
      "workload":     canonical generating token ("" for ingested traces),
      "knobs":        the TraceKnobs the generator ran with,
      "trace":        repro.workloads.io.trace_to_dict payload
    }

The ``content_hash`` is computed with the strict canonical encoder from
:mod:`repro.configspace.fingerprint` — the same encoder that keys the result
cache — and is verified on every load, so a truncated or hand-edited file
fails loudly instead of silently replaying a different workload.  The sweep
layer additionally keys caches on a hash of the file *bytes*
(:func:`trace_file_fingerprint`), so any change to the file — even one that
keeps the internal hash consistent — can never alias a stale cache entry.

Recording derives the trace seed exactly like the sweep runner does
(``cell_seed(sweep_seed, canonical_token)``), which is what makes the
record -> replay round trip reproduce the generating sweep bit-for-bit.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import asdict, dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

from repro.configspace.fingerprint import CanonicalEncodingError, fingerprint
from repro.workloads.io import trace_from_dict, trace_to_dict
from repro.workloads.registry import (
    TRACE_TOKEN_PREFIX,
    TraceKnobs,
    build_token_trace,
    canonicalize_token,
)
from repro.workloads.trace import WorkloadTrace

TRACE_SCHEMA = "repro-trace-v1"


class TraceFileError(ValueError):
    """A trace file that is missing, malformed, mis-versioned or corrupted."""


@dataclass(frozen=True)
class TraceFile:
    """One loaded trace file: the replayable trace plus its provenance."""

    path: str
    workload: str
    knobs: Dict[str, object]
    content_hash: str
    trace: WorkloadTrace


def _body_hash(workload: str, knobs: Dict[str, object],
               trace_payload: Dict) -> str:
    return fingerprint(
        {"workload": workload, "knobs": knobs, "trace": trace_payload})


def write_trace_file(
    path: Union[str, os.PathLike],
    trace: WorkloadTrace,
    workload: str = "",
    knobs: Optional[Dict[str, object]] = None,
) -> str:
    """Persist a trace as a ``repro-trace-v1`` file; returns the content hash.

    ``workload`` records the canonical generating token (empty for ingested
    external traces); ``knobs`` the generation knobs, for provenance and
    ``--verify`` regeneration.  The write is atomic (tmp file + rename), so
    a crash never leaves a torn file that could half-replay.
    """
    trace_payload = trace_to_dict(trace)
    knobs = dict(knobs or {})
    content_hash = _body_hash(workload, knobs, trace_payload)
    payload = {
        "schema": TRACE_SCHEMA,
        "content_hash": content_hash,
        "workload": workload,
        "knobs": knobs,
        "trace": trace_payload,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    handle, tmp_name = tempfile.mkstemp(
        dir=path.parent, suffix=".tmp", prefix=path.name)
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as tmp:
            tmp.write(json.dumps(payload))
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return content_hash


#: The last file :func:`read_trace_file` verified, under the sha256 of its
#: raw bytes.  Spec creation verifies a ``trace:`` file and every cell build
#: replays it, so the parse runs once per process; an edited file has other
#: bytes, so it is parsed and verified afresh.
_LAST_VERIFIED: Optional[Tuple[str, TraceFile]] = None


def read_trace_file(path: Union[str, os.PathLike]) -> TraceFile:
    """Load and verify a ``repro-trace-v1`` file.

    Raises :class:`TraceFileError` on a missing file, a non-trace JSON
    payload, an unknown schema version, a content hash that does not
    match the body (corruption / hand edits), or a body that is no trace
    (a missing field, a non-integer address or one outside int64).

    The bytes are read and hashed on every call; when they equal those of
    the file verified last, that verified load is returned without a
    second parse.
    """
    global _LAST_VERIFIED
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as error:
        raise TraceFileError(f"cannot read trace file {path}: {error}") from error
    raw_hash = hashlib.sha256(raw).hexdigest()
    if _LAST_VERIFIED is not None and _LAST_VERIFIED[0] == raw_hash:
        return replace(_LAST_VERIFIED[1], path=str(path))
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise TraceFileError(
            f"trace file {path} is not valid JSON ({error})") from error
    if not isinstance(payload, dict) or "schema" not in payload:
        raise TraceFileError(
            f"{path} is not a trace file (no 'schema' field)")
    if payload["schema"] != TRACE_SCHEMA:
        raise TraceFileError(
            f"{path} has trace schema {payload['schema']!r}; this build "
            f"reads {TRACE_SCHEMA!r}")
    for field_name in ("content_hash", "workload", "knobs", "trace"):
        if field_name not in payload:
            raise TraceFileError(f"{path} is missing the {field_name!r} field")
    if not isinstance(payload["knobs"], dict):
        raise TraceFileError(f"{path} holds knobs that are not a mapping")
    try:
        recomputed = _body_hash(
            str(payload["workload"]), payload["knobs"], payload["trace"])
    except CanonicalEncodingError as error:
        raise TraceFileError(
            f"{path} failed content-hash verification ({error})") from error
    if recomputed != payload["content_hash"]:
        raise TraceFileError(
            f"{path} failed content-hash verification (stored "
            f"{payload['content_hash'][:12]}..., recomputed "
            f"{recomputed[:12]}...); the file is corrupted or was edited")
    try:
        trace = trace_from_dict(payload["trace"])
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as error:
        raise TraceFileError(
            f"{path} holds a malformed trace ({type(error).__name__}: "
            f"{error})") from error
    loaded = TraceFile(
        path=str(path),
        workload=str(payload["workload"]),
        knobs=dict(payload["knobs"]),
        content_hash=payload["content_hash"],
        trace=trace,
    )
    _LAST_VERIFIED = (raw_hash, loaded)
    return loaded


# -- file-bytes fingerprint (cache keying) ----------------------------------

#: ``realpath -> (mtime_ns, size, sha256)``: sweeps resolve the same trace
#: file once per cell, so the byte hash is memoized until the file changes.
_FILE_HASH_MEMO: Dict[str, Tuple[int, int, str]] = {}


def trace_file_fingerprint(path: Union[str, os.PathLike]) -> str:
    """sha256 over the file's raw bytes (what cache keys incorporate).

    Hashing the bytes — not the stored ``content_hash`` field — means *any*
    edit to the file changes every dependent cache key, even an edit that
    keeps the internal hash self-consistent.
    """
    real = os.path.realpath(os.fspath(path))
    try:
        stat = os.stat(real)
    except OSError as error:
        raise TraceFileError(
            f"cannot stat trace file {path}: {error}") from error
    memo = _FILE_HASH_MEMO.get(real)
    if memo is not None and memo[0] == stat.st_mtime_ns and memo[1] == stat.st_size:
        return memo[2]
    digest = hashlib.sha256()
    with open(real, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    hashed = digest.hexdigest()
    _FILE_HASH_MEMO[real] = (stat.st_mtime_ns, stat.st_size, hashed)
    return hashed


# -- recording --------------------------------------------------------------


def record_trace(
    token: str,
    path: Union[str, os.PathLike],
    knobs: TraceKnobs = TraceKnobs(),
) -> TraceFile:
    """Generate one workload token's trace and persist it for replay.

    ``knobs.seed`` is the *sweep* seed: the trace seed is derived through
    the same ``cell_seed(seed, canonical_token)`` the runner uses, so
    replaying the file in a sweep with those knobs reproduces the generating
    sweep's cells bit-identically.  Mix tokens record the combined co-run
    trace.
    """
    from repro.runner.spec import cell_seed

    canonical = canonicalize_token(token)
    if canonical.startswith(TRACE_TOKEN_PREFIX):
        raise TraceFileError(
            f"cannot record {token!r}: it already names a trace file")
    knobs = replace(knobs, seed=cell_seed(knobs.seed, canonical))
    trace = build_token_trace(canonical, knobs)
    content_hash = write_trace_file(
        path, trace, workload=canonical, knobs=asdict(knobs))
    return TraceFile(
        path=str(path),
        workload=canonical,
        knobs=asdict(knobs),
        content_hash=content_hash,
        trace=trace,
    )


def regenerate_from_meta(meta: TraceFile) -> WorkloadTrace:
    """Rebuild the trace a file's provenance metadata describes.

    Used by ``repro workloads --replay FILE --verify`` to prove the recorded
    payload is bit-identical to what the current generator produces (guards
    against generator drift silently invalidating archived traces).  Knobs
    the current build refuses raise :class:`ValueError`.
    """
    if not meta.workload:
        raise TraceFileError(
            "trace file records no generating workload token (externally "
            "ingested); --verify only applies to recorded traces")
    return build_token_trace(meta.workload, TraceKnobs.from_payload(meta.knobs))
