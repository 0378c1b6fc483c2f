"""Perf bench for the simulation hot path: sweep throughput trajectory.

This is the referee for the hot-path overhaul: it measures steady-state
cells/sec on the CI smoke-sweep shape (2 platforms x 2 mixes, 2 workers,
uncached), proves the speedup did not change any result (serial, parallel
and cached runs stay bit-identical), checks that histogram memory stays O(1)
per metric, and writes ``BENCH_sweep.json`` at the repo root so later PRs
can compare runs (see ROADMAP.md for the schema).

Throughput is wall-clock and therefore machine-dependent.  The recorded
pre-overhaul baseline was measured on the development box with the identical
protocol (best of ``_REPEATS`` repeated sweeps in one process); set
``REPRO_PERF_RELAXED=1`` to keep the bench informational on other hardware
(it still runs, still writes the report, still enforces correctness).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import pytest

from repro.runner import SweepRunner, SweepSpec, run_sweep
from repro.sim.stats import Histogram

#: The CI smoke-sweep shape (mirrors .github/workflows/ci.yml).
_SMOKE = dict(
    platforms=["ZnG-base", "ZnG"],
    workloads=["betw-back", "bfs1-gaus"],
    scale=0.08,
    warps_per_sm=2,
)
_WORKERS = 2
_REPEATS = 5

#: Best-of-5 cells/sec of the identical 2-worker smoke sweep measured on the
#: development box immediately before the hot-path overhaul landed.
_PRE_OVERHAUL_BASELINE_CELLS_PER_SEC = 74.0
_REQUIRED_SPEEDUP = 3.0

_REPORT_PATH = Path(__file__).resolve().parent.parent / "BENCH_sweep.json"


def _relaxed() -> bool:
    return os.environ.get("REPRO_PERF_RELAXED", "") not in ("", "0")


def _measure_smoke_sweep():
    """Best-of-N steady-state throughput of the 2-worker smoke sweep."""
    spec = SweepSpec.create(**_SMOKE)
    runner = SweepRunner(workers=_WORKERS, cache=False)
    best_elapsed, best_result = None, None
    runner.run(spec)  # warm-up: fork the shared pool, seed the trace memo
    for _ in range(_REPEATS):
        started = time.perf_counter()
        result = runner.run(spec)
        elapsed = time.perf_counter() - started
        if best_elapsed is None or elapsed < best_elapsed:
            best_elapsed, best_result = elapsed, result
    return len(best_result) / best_elapsed, best_elapsed, best_result


class TestSweepThroughput:
    def test_smoke_sweep_meets_throughput_target(self):
        cells_per_sec, best_elapsed, result = _measure_smoke_sweep()
        speedup = cells_per_sec / _PRE_OVERHAUL_BASELINE_CELLS_PER_SEC

        report = result.perf_report()
        report.update(
            {
                "workers": _WORKERS,
                "repeats": _REPEATS,
                "best_elapsed_seconds": best_elapsed,
                "cells_per_sec": cells_per_sec,
                "baseline_cells_per_sec": _PRE_OVERHAUL_BASELINE_CELLS_PER_SEC,
                "speedup_over_baseline": speedup,
                "measured_at_unix": time.time(),
            }
        )
        with open(_REPORT_PATH, "w") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nsmoke sweep: {cells_per_sec:.1f} cells/sec")
        print(
            f"speedup: {speedup:.2f}x over pre-overhaul baseline "
            f"(report: {_REPORT_PATH.name})"
        )

        if _relaxed():
            pytest.skip(
                f"REPRO_PERF_RELAXED set: measured {cells_per_sec:.1f} cells/sec "
                f"({speedup:.2f}x baseline), threshold not enforced"
            )
        assert speedup >= _REQUIRED_SPEEDUP, (
            f"{cells_per_sec:.1f} cells/sec is only {speedup:.2f}x "
            f"the pre-overhaul baseline "
            f"({_PRE_OVERHAUL_BASELINE_CELLS_PER_SEC}); the hot path "
            f"regressed below the {_REQUIRED_SPEEDUP}x floor"
        )


class TestThroughputDidNotChangeResults:
    """Speed means nothing if the numbers moved: re-prove run-mode equivalence
    on the exact spec the throughput bench times."""

    def test_serial_parallel_cached_stats_bit_identical(self, tmp_path):
        spec = SweepSpec.create(**_SMOKE)
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=_WORKERS)
        SweepRunner(workers=_WORKERS, cache=tmp_path).run(spec)  # populate
        cached = SweepRunner(workers=_WORKERS, cache=tmp_path).run(spec)
        assert cached.cache_hit_rate == 1.0
        assert serial.stats_dicts() == parallel.stats_dicts() == cached.stats_dicts()
        assert serial.table("ipc") == parallel.table("ipc") == cached.table("ipc")
        assert serial.table("cycles") == parallel.table("cycles")


class TestHistogramMemoryIsBounded:
    def test_no_unbounded_sample_lists_in_results(self):
        spec = SweepSpec.create(**_SMOKE)
        result = run_sweep(spec, workers=1)
        for run in result:
            for histogram in run.result.stats.histograms.values():
                assert len(histogram.samples) <= histogram.reservoir_size

    def test_histogram_memory_constant_per_metric(self):
        import sys

        histogram = Histogram("h", reservoir_size=256)
        for i in range(1000):
            histogram.add(float(i))
        plateau = sys.getsizeof(histogram.samples)
        for i in range(100_000):
            histogram.add(float(i))
        assert len(histogram.samples) <= 256
        assert sys.getsizeof(histogram.samples) <= plateau * 1.1


class TestPerfReportPlumbing:
    def test_perf_report_phases_cover_executed_cells(self):
        spec = SweepSpec.create(**_SMOKE)
        result = run_sweep(spec, workers=1)
        report = result.perf_report()
        assert report["cells"] == len(spec)
        assert report["executed_cells"] == len(spec)
        assert report["simulate_seconds"] > 0.0
        assert report["trace_build_seconds"] >= 0.0
        assert report["cells_per_sec"] > 0.0

    def test_cached_rerun_attributes_time_to_cache(self, tmp_path):
        spec = SweepSpec.create(**_SMOKE)
        SweepRunner(workers=1, cache=tmp_path).run(spec)
        rerun = SweepRunner(workers=1, cache=tmp_path).run(spec)
        report = rerun.perf_report()
        assert report["executed_cells"] == 0
        assert report["simulate_seconds"] == 0.0
        assert report["cache_seconds"] > 0.0
        # The hot-path throughput number must not be inflated by cache reads.
        assert report["executed_cells_per_sec"] == 0.0
        assert report["cells_per_sec"] > 0.0
