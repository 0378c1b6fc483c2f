"""Shared configuration for the benchmark harness.

The benchmarks regenerate each table/figure of the paper.  They run at a
reduced but still representative scale so the suite finishes in minutes while
preserving the qualitative shape of every result.  Each bench both measures
runtime (pytest-benchmark) and prints the reproduced rows/series so the output
can be compared against the paper's figures.
"""

from __future__ import annotations

from pathlib import Path

import pytest

# Bench scale knobs: large enough to exercise plane parallelism and reuse,
# small enough to keep the whole suite fast.
BENCH_SCALE = 0.3
BENCH_WARPS_PER_SM = 12
BENCH_MEM_INSTS = 96

# A representative subset of the twelve mixes (one per co-runner family) keeps
# bench runtime bounded; the full set is available via --runslow.
BENCH_MIXES = [
    ("betw", "back"),
    ("bfs1", "gaus"),
    ("gc1", "FDT"),
    ("pr", "gaus"),
]


def pytest_collection_modifyitems(items):
    """Mark the benches so `-m 'not bench'` can exclude them in mixed runs."""
    bench_dir = Path(__file__).parent
    for item in items:
        if bench_dir in Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.bench)


def pytest_addoption(parser):
    parser.addoption(
        "--runslow",
        action="store_true",
        default=False,
        help="run benchmarks over the full workload set at full scale",
    )


@pytest.fixture(scope="session")
def bench_scale(request):
    return 0.6 if request.config.getoption("--runslow") else BENCH_SCALE


@pytest.fixture(scope="session")
def bench_mixes(request):
    from repro.workloads.suites import MULTI_APP_MIXES

    if request.config.getoption("--runslow"):
        return list(MULTI_APP_MIXES)
    return list(BENCH_MIXES)
