"""Paper-scale benchmark of the ZnG simulator: one workload per invocation.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig10-paper --seed 1 --seconds 20 --trace 0

``--trace 0`` measures with tracing off and prints every end-to-end metric;
``--trace 1`` runs one untraced and one traced pass and prints the per-layer
metrics, the tracing overhead and the exact model metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (each ``{"value": ..., "unit": ...}``).  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
#: Set-up is repeated and its median reported, so work moved into set-up shows.
SETUP_REPEATS = 5
#: A set-up takes about a second; this only stops a hung set-up process.
SETUP_TIMEOUT_S = 60

Span = Tuple[float, float]


def _metric(value: float, unit: str) -> Dict[str, float]:
    return {"value": value, "unit": unit}


@contextlib.contextmanager
def pinned(cores: List[int]):
    """Run this process, and the processes it starts, only on ``cores``."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cores)
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@contextlib.contextmanager
def private_bytecode_cache():
    """Compile into a fresh bytecode cache in the checkout; delete it on exit.

    Bytecode that other tools left in ``__pycache__`` directories is never
    read.  This process compiles what it imports once, and the set-up
    processes, which inherit the cache, all time the same warm import.
    Afterwards no bytecode is written, so nothing recreates the cache.
    """
    with tempfile.TemporaryDirectory(prefix=".perfbench-pycache-", dir=ROOT) as cache:
        sys.dont_write_bytecode = False
        sys.pycache_prefix = cache
        os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
        os.environ["PYTHONPYCACHEPREFIX"] = cache
        try:
            yield
        finally:
            sys.dont_write_bytecode = True
            sys.pycache_prefix = None
            del os.environ["PYTHONPYCACHEPREFIX"]


def setup_span(workload, seed: int) -> Span:
    """One set-up in a fresh process: the simulator import, spec creation
    and the trace builds.

    Call this after this process has set the workload up once, so that every
    module a set-up imports is already in the bytecode cache.
    """
    command = [sys.executable, str(Path(__file__).with_name("setup_child.py")),
               "--workload", workload.name, "--seed", str(seed),
               "--scale", repr(workload.scale)]
    completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                               timeout=SETUP_TIMEOUT_S)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"set-up process exited with {completed.returncode}")
    start, end = (float(x) for x in completed.stdout.split()[-2:])
    return start, end


def _reference_lines(workload, passes) -> List[str]:
    if not workload.has_reference:
        return ["reference: none. The model is unvalidated on this workload, so no "
                "error figure is given; fig10_agreement_* print 1.0 as a "
                "placeholder, not a measurement."]
    from perfbench.checks import PAPER_SPEEDUP

    lines = []
    for reference, paper in PAPER_SPEEDUP.items():
        simulated = passes[0].speedups[reference]
        lines.append(
            f"reference: ZnG/{reference} geomean speed-up {simulated:.4f}x vs the "
            f"paper's {paper}x (the only reference): gap |sim/paper - 1| = "
            f"{abs(simulated / paper - 1):.4f}")
    return lines


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced passes for at least ``seconds``; every end-to-end metric."""
    from perfbench import checks
    from perfbench.probe import SpeedProbe

    # Set-up and a grid's passes run on one core, a sweep's workers on all,
    # each under a probe of the cores' speed (see probe.py).
    cores = sorted(os.sched_getaffinity(0))
    home = cores[:1]
    pass_cores = cores if workload.parallel else home
    with SpeedProbe(pass_cores) as probe:
        with pinned(home):
            state = workload.set_up(seed)
            setup_spans = [setup_span(workload, seed) for _ in range(SETUP_REPEATS)]
        with pinned(pass_cores):
            passes = []
            started = time.perf_counter()
            while (len(passes) < workload.min_passes
                   or time.perf_counter() - started < seconds):
                passes.append(workload.run_pass(state))
    setup_s = statistics.median(probe.scale(*span, home) for span in setup_spans)
    raw_setup_s = statistics.median(end - start for start, end in setup_spans)
    # Each unit at nominal host speed, the median over the passes that ran it;
    # then summed.  A unit that failed in every pass adds nothing.
    units = {unit for p in passes for unit in p.unit_spans}
    wall_s = sum(statistics.median(probe.scale(*p.unit_spans[unit], pass_cores)
                                   for p in passes if unit in p.unit_spans)
                 for unit in sorted(units))
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    digests = {p.digest for p in passes}
    consistent = len(digests) == 1 and all(
        p.warm_digest in (None, p.digest) for p in passes)
    if workload.has_reference:
        agreements = {ref: checks.agreement(passes[0].speedups[ref], paper)
                      for ref, paper in checks.PAPER_SPEEDUP.items()}
    else:
        agreements = {ref: 1.0 for ref in checks.PAPER_SPEEDUP}
    rss = [p.rss_mb for p in passes if p.rss_mb is not None]
    peak_rss_mb = (statistics.median(rss) if rss else
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    metrics = {
        "wall_s": _metric(wall_s, "s"),
        "setup_s": _metric(setup_s, "s"),
        "host_us_per_access": _metric(wall_s / passes[0].requests * 1e6, "us"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
        "ok_frac": _metric((attempted - failed) / attempted, "ratio"),
        "fig10_agreement_hybridgpu": _metric(agreements["HybridGPU"], "ratio"),
        "fig10_agreement_optane": _metric(agreements["Optane"], "ratio"),
    }
    info = [f"workload {workload.name}  seed {seed}  passes {len(passes)}  "
            f"cells/pass {passes[0].attempted}",
            "host seconds per pass, unscaled "
            + " ".join(f"{p.wall_s:.4f}" for p in passes),
            f"set-up seconds, unscaled median {raw_setup_s:.4f}",
            f"digest {passes[0].digest}"
            + ("" if consistent else "  MISMATCH across passes or cache rerun")]
    info += _reference_lines(workload, passes)
    return {"info": info, "correct": consistent and failed == 0,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(workload, seed: int) -> dict:
    """One untraced and one traced pass; every per-layer metric."""
    from perfbench.layers import LayerTracer

    tracer = LayerTracer()
    started = time.perf_counter_ns()
    state = workload.set_up(seed, tracer)
    traced_setup_ns = time.perf_counter_ns() - started
    plain = workload.run_pass(state)
    traced = workload.run_pass(state, tracer)
    total_ns = traced_setup_ns + int(traced.wall_s * 1e9)
    metrics = tracer.metrics(total_ns)
    overhead = traced.wall_s - plain.wall_s
    metrics["trace.wall_s"] = _metric(traced.wall_s, "s")
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    metrics["trace.overhead_share"] = _metric(overhead / plain.wall_s, "share")
    metrics["runner.dispatch_overhead_s"] = _metric(plain.dispatch_overhead_s, "s")
    metrics.update(plain.model)
    consistent = plain.digest == traced.digest and all(
        p.warm_digest in (None, p.digest) for p in (plain, traced))
    info = [f"workload {workload.name}  seed {seed}  traced",
            f"digest untraced {plain.digest}",
            f"digest traced   {traced.digest}"
            + ("" if consistent else "  MISMATCH"),
            f"tracing overhead {overhead:.3f} s on {plain.wall_s:.3f} s untraced"]
    info += _reference_lines(workload, [plain])
    failed = plain.failed + traced.failed
    return {"info": info, "correct": consistent and failed == 0,
            "attempted": plain.attempted + traced.attempted, "failed": failed,
            "metrics": metrics}


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        scale: float = None) -> dict:
    """Run one workload and return the result object.

    ``scale`` shrinks the workload (the self-test uses it); the benchmark
    command always runs at the workload's own scale.
    """
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    if scale is not None:
        workload = workload.shrunk(scale)
    if trace:
        return measure_traced(workload, seed)
    return measure(workload, seed, seconds)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="ZnG simulator benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("fig10-paper", "kv-write", "sensitivity-sweep"))
    parser.add_argument("--seed", type=int, default=1,
                        help="workload seed (the presets' seed is 1)")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure passes until this many seconds have passed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: simulator sources not found at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    # A terminated run unwinds like a failed one: probes stopped, temporary
    # directories deleted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    with private_bytecode_cache():
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in result.pop("info"):
        print(line)
    for name, metric in result["metrics"].items():
        print(f"  {name} = {metric['value']!r} {metric['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
