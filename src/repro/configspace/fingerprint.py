"""Canonical, strict content fingerprints for configs and cell descriptors.

The sweep result cache is keyed by a sha256 over a cell's resolved config and
trace knobs.  The original implementation hashed
``json.dumps(..., default=str)``, which silently stringified anything JSON
could not encode — two *different* un-encodable values could stringify
identically and alias each other's cache entries.  This module replaces it
with a strict canonical encoder that **raises** on any value without an
exact, unambiguous encoding (cache schema v3).

Canonical form rules:

* mappings sort by key and require string keys;
* tuples and lists both encode as JSON arrays;
* dataclasses encode as their field mapping;
* floats must be finite (``nan``/``inf`` have no canonical JSON form);
* bools, ints, strings and ``None`` encode as themselves;
* anything else — enums, sets, arbitrary objects — raises
  :class:`CanonicalEncodingError` naming the offending path.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import fields, is_dataclass
from typing import Mapping

from repro.config import PlatformConfig


class CanonicalEncodingError(ValueError):
    """A value with no exact canonical encoding reached a fingerprint."""


def canonical_payload(value: object, path: str = "$") -> object:
    """Recursively convert ``value`` to canonically-encodable plain data.

    Raises :class:`CanonicalEncodingError` (naming the offending ``path``)
    instead of guessing a lossy representation.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        if not math.isfinite(value):
            raise CanonicalEncodingError(
                f"{path}: non-finite float {value!r} has no canonical encoding")
        return value
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_payload(getattr(value, f.name), f"{path}.{f.name}")
            for f in fields(value)
        }
    if isinstance(value, Mapping):
        out = {}
        for key, item in value.items():
            if not isinstance(key, str):
                raise CanonicalEncodingError(
                    f"{path}: mapping key {key!r} is not a string")
            out[key] = canonical_payload(item, f"{path}.{key}")
        return out
    if isinstance(value, (list, tuple)):
        return [
            canonical_payload(item, f"{path}[{index}]")
            for index, item in enumerate(value)
        ]
    raise CanonicalEncodingError(
        f"{path}: {type(value).__name__} value {value!r} is not canonically "
        f"encodable (allowed: None, bool, int, finite float, str, "
        f"list/tuple, str-keyed mapping, dataclass)")


def canonical_json(value: object) -> str:
    """Deterministic JSON encoding of ``value`` (strict; raises, never guesses)."""
    return json.dumps(
        canonical_payload(value),
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )


def fingerprint(value: object) -> str:
    """sha256 hex digest of the canonical encoding of any plain-data value."""
    return hashlib.sha256(canonical_json(value).encode()).hexdigest()


def config_fingerprint(config: PlatformConfig) -> str:
    """The canonical content hash of a resolved :class:`PlatformConfig`.

    Equal configs — however they were composed (constructor defaults, platform
    deltas, coerced CLI strings) — fingerprint identically; any change to any
    field changes the digest.
    """
    return fingerprint(config)
