"""The benchmark's three workloads.

``fig10-paper`` and ``kv-write`` are platform x workload grids simulated
serially in this process on the scalar backend.  Each cell goes through
``GPUSSDPlatform.build(name, config).run(trace)`` — the body of
``GPUSSDPlatform.execute`` — so the traced run can wrap the layers of the
built platform.  ``sensitivity-sweep`` runs the ``repro sweep`` call,
``SweepRunner(workers, cache=<fresh dir>).run(spec, manifest_path=...)``, in
a fresh child process per pass so every pass starts with no pool, no trace
memo and an empty cache, as a command-line sweep does.

Why these three: see README.md.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.configspace.presets import get_preset
from repro.platforms.base import GPUSSDPlatform
from repro.runner.spec import SweepSpec, build_cell_trace

from perfbench import checks
from perfbench.layers import LayerTracer, instrument_platform, maybe_timed

ROOT = Path(__file__).resolve().parent.parent
#: The machine the benchmark was sized for has two cores.
SWEEP_WORKERS = max(1, min(2, os.cpu_count() or 1))
#: A sweep pass must end well inside the benchmark's 180 s budget.
CHILD_TIMEOUT_S = 150


@dataclass
class PassResult:
    """One measured pass over a workload's cells."""

    #: ``time.perf_counter()`` at the start and end of each timed unit: each
    #: cell of a grid, or the whole sweep.  The clock is system-wide, so a
    #: sweep pass's child process reports its own.
    unit_spans: Dict[str, Tuple[float, float]]
    requests: int
    attempted: int
    failed: int
    digest: str
    model: Dict[str, Dict[str, float]]
    rss_mb: Optional[float] = None
    dispatch_overhead_s: float = 0.0
    speedups: Dict[str, float] = field(default_factory=dict)
    #: Set by a sweep pass: the digest of the warm, cache-served rerun.
    warm_digest: Optional[str] = None

    @property
    def wall_s(self) -> float:
        return sum(end - start for start, end in self.unit_spans.values())


@dataclass(frozen=True)
class GridWorkload:
    """A grid simulated serially in this process from prebuilt traces."""

    #: A pass runs on one core.
    parallel = False

    name: str
    make_spec: Callable[[int, float], SweepSpec]
    scale: float
    min_passes: int
    #: Only the fig10 grid has paper references.
    has_reference: bool = False

    def shrunk(self, scale: float) -> "GridWorkload":
        return replace(self, scale=scale)

    def set_up(self, seed: int, tracer: Optional[LayerTracer] = None):
        """Spec creation and one trace build per distinct trace."""
        build_trace = maybe_timed(tracer, build_cell_trace, "workloads.trace")
        spec = self.make_spec(seed, self.scale)
        cells = [(cell, cell.resolved_config()) for cell in spec.cells()]
        traces = {}
        for cell, _ in cells:
            key = cell.trace_key()
            if key not in traces:
                traces[key] = build_trace(cell)
        return cells, traces

    def run_pass(self, state, tracer: Optional[LayerTracer] = None) -> PassResult:
        cells, traces = state
        build = maybe_timed(tracer, GPUSSDPlatform.build, "platforms.build")
        unit_spans: Dict[str, Tuple[float, float]] = {}
        requests = failed = 0
        labelled: List[Tuple[str, object]] = []
        entries = []
        for cell, config in cells:
            try:
                started = time.perf_counter()
                platform = build(cell.platform, config)
                if tracer is not None:
                    instrument_platform(tracer, platform)
                result = platform.run(traces[cell.trace_key()])
                unit_spans[cell.label] = (started, time.perf_counter())
                probe = checks.probe_platform(platform)
                del platform
                problems = checks.invariant_violations(
                    result, cell.num_sms, probe["secondary_misses"])
            except Exception as exc:  # a failing cell is counted, not fatal
                failed += 1
                print(f"cell {cell.label} raised {exc!r}", file=sys.stderr)
                continue
            if problems:
                failed += 1
                print(f"cell {cell.label}: {'; '.join(problems)}", file=sys.stderr)
            labelled.append((cell.label, result))
            entries.append((result, probe))
            requests += result.execution.memory_requests
        keyed = {(r.workload, r.platform): r for _, r in labelled}
        return PassResult(
            unit_spans=unit_spans,
            requests=requests,
            attempted=len(cells),
            failed=failed,
            digest=checks.digest(labelled),
            model=checks.model_metrics(entries),
            speedups={ref: checks.speedup(keyed, "ZnG", ref)
                      for ref in checks.PAPER_SPEEDUP},
        )


@dataclass(frozen=True)
class SweepWorkload:
    """The ``table1-sensitivity`` preset through the sweep runner."""

    #: A pass's workers run on every core.
    parallel = True

    name: str
    scale: float
    min_passes: int
    has_reference: bool = False

    def shrunk(self, scale: float) -> "SweepWorkload":
        return replace(self, scale=scale)

    def spec(self, seed: int) -> SweepSpec:
        return get_preset("table1-sensitivity").spec(seed=seed, scale=self.scale)

    def set_up(self, seed: int, tracer: Optional[LayerTracer] = None):
        """Spec creation and the one trace the 30 points share.

        The pass itself rebuilds the trace inside the runner, as a
        command-line sweep does; this build is what set-up costs.
        """
        build_trace = maybe_timed(tracer, build_cell_trace, "workloads.trace")
        spec = self.spec(seed)
        build_trace(spec.cells()[0])
        return seed

    def run_pass(self, state, tracer: Optional[LayerTracer] = None) -> PassResult:
        seed = state
        # The pass's cache and manifest live inside the checkout.
        workdir = tempfile.mkdtemp(prefix=".perfbench-sweep-", dir=ROOT)
        command = [sys.executable, str(Path(__file__).with_name("sweep_child.py")),
                   "--seed", str(seed), "--scale", repr(self.scale),
                   "--workers", str(SWEEP_WORKERS), "--workdir", workdir,
                   "--trace", "1" if tracer is not None else "0"]
        try:
            completed = subprocess.run(command, cwd=ROOT, capture_output=True,
                                       text=True, timeout=CHILD_TIMEOUT_S)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        sys.stderr.write(completed.stderr)
        if completed.returncode != 0 or not completed.stdout.strip():
            raise RuntimeError(f"sweep pass exited with {completed.returncode}")
        child = json.loads(completed.stdout.strip().splitlines()[-1])
        if tracer is not None:
            tracer.merge(child["calls"], child["self_ns"])
        return PassResult(
            unit_spans={"sweep": tuple(child["span"])},
            requests=child["requests"],
            attempted=child["attempted"],
            failed=child["failed"],
            digest=child["digest"],
            model=child["model"],
            rss_mb=child["rss_mb"],
            dispatch_overhead_s=child["dispatch_overhead_s"],
            warm_digest=child["warm_digest"],
        )


def _fig10_spec(seed: int, scale: float) -> SweepSpec:
    return get_preset("fig10").spec(scale=scale, seed=seed)


def _kv_write_spec(seed: int, scale: float) -> SweepSpec:
    return SweepSpec.create(
        platforms=["ZnG-base", "ZnG-wropt", "ZnG", "HybridGPU", "Optane"],
        workloads=["kv-lookup:get_ratio=0.3"],
        scale=scale,
        seed=seed,
        warps_per_sm=16,
        memory_instructions_per_warp=128,
    )


WORKLOADS = {
    workload.name: workload
    for workload in (
        GridWorkload("fig10-paper", _fig10_spec, scale=1.0, min_passes=1,
                     has_reference=True),
        GridWorkload("kv-write", _kv_write_spec, scale=1.0, min_passes=2),
        SweepWorkload("sensitivity-sweep", scale=0.25, min_passes=6),
    )
}
