"""Telemetry tests run with a hermetic tracer: no env leakage, no sink reuse.

Every test starts from a fully reset tracer and a scrubbed environment, and
leaves the same behind — telemetry state is process-global, so a leaked
override or open sink fd would couple unrelated tests.
"""

from __future__ import annotations

import pytest

from repro.telemetry import ENV_DIR, ENV_FLAG, reset


@pytest.fixture(autouse=True)
def hermetic_tracer(monkeypatch):
    import os

    for variable in (ENV_FLAG, ENV_DIR):
        monkeypatch.delenv(variable, raising=False)
    reset()
    yield
    # Tests that drive the CLI can pin ENV_DIR via ensure_sink_env — an
    # os.environ write monkeypatch never saw, so scrub it explicitly.
    for variable in (ENV_FLAG, ENV_DIR):
        os.environ.pop(variable, None)
    reset()
