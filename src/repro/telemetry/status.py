"""Sweep status from run manifests (``repro status``).

Reads a run manifest — rewritten atomically after every finished cell — and
renders one compact text block per manifest: cell counts by status and
whether the grid is complete.  Strictly read-only: observing a running sweep
never perturbs it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, Optional


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
