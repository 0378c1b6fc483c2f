"""Shared fixtures for the test suite.

Simulation-scale knobs are kept deliberately small here: the unit tests
exercise mechanisms, not fidelity, and the full-fidelity runs live in
``benchmarks/``.
"""

from __future__ import annotations

import pytest

from repro.config import PlatformConfig, ZNANDConfig, default_config
from repro.workloads.multiapp import MultiAppWorkload, build_mix
from repro.workloads.generators import generate_workload
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import TraceKnobs


@pytest.fixture(scope="session")
def config() -> PlatformConfig:
    """The Table I configuration."""
    return default_config()


@pytest.fixture(scope="session")
def small_znand_config() -> ZNANDConfig:
    """A reduced flash geometry that keeps unit tests fast."""
    return ZNANDConfig(
        channels=4,
        dies_per_package=2,
        planes_per_die=2,
        blocks_per_plane=32,
        pages_per_block=16,
    )


@pytest.fixture(scope="session")
def tiny_mix() -> MultiAppWorkload:
    """A very small betw-back co-run used by platform integration tests."""
    return build_mix("betw", "back", TraceKnobs(
        scale=0.2, seed=None, warps_per_sm=2, memory_instructions_per_warp=24))


@pytest.fixture(scope="session")
def small_mix() -> MultiAppWorkload:
    """A slightly larger mix for end-to-end ordering checks."""
    return build_mix("betw", "back", TraceKnobs(
        scale=0.4, seed=None, warps_per_sm=4, memory_instructions_per_warp=64))


@pytest.fixture(scope="session")
def read_heavy_trace():
    """A read-only single-application trace (deg: read ratio 1.0)."""
    return generate_workload(workload_by_name("deg"), TraceKnobs(
        scale=0.2, seed=None, warps_per_sm=2, memory_instructions_per_warp=24))
