"""One pass of the sensitivity-sweep workload, in a fresh process.

Run by ``perfbench/workloads.py``; prints one JSON line.  The timed section
is what ``repro sweep`` does once its spec exists: create the runner on an
empty cache directory, run the spec with a manifest, and stop the worker
pool.  A warm rerun on the same cache follows, untimed, only to check that
the cache-served records are identical to the simulated ones.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.configspace.presets import get_preset  # noqa: E402
from repro.runner import SweepRunner, shutdown_worker_pools  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.layers import LayerTracer, instrument_runner_classes  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = get_preset("table1-sensitivity").spec(seed=args.seed, scale=args.scale)
    tracer = None
    if args.trace:
        tracer = LayerTracer()
        instrument_runner_classes(tracer)
    cache_dir = args.workdir / "cache"

    started = time.perf_counter()
    runner = SweepRunner(workers=args.workers, cache=cache_dir)
    if tracer is not None:
        tracer.wrap(runner.cache, "get", "runner.cache")
        tracer.wrap(runner.cache, "put", "runner.cache")
        tracer.wrap(runner, "run", "runner.sweep")
    cold = runner.run(spec, manifest_path=args.workdir / "manifest.json",
                      on_error="record")
    shutdown_worker_pools()
    finished = time.perf_counter()
    wall = finished - started

    warm = SweepRunner(workers=args.workers, cache=cache_dir).run(
        spec, on_error="record")

    failed = len(cold.failed)
    for run in cold.runs:
        problems = checks.invariant_violations(run.result, run.cell.num_sms)
        if problems:
            failed += 1
            print(f"cell {run.cell.label}: {'; '.join(problems)}", file=sys.stderr)
    for failure in cold.failed:
        print(f"cell {failure.label} raised:\n{failure.error}", file=sys.stderr)
    worker_seconds = cold.simulate_seconds + cold.trace_build_seconds
    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    print(json.dumps({
        "span": [started, finished],
        "requests": sum(run.result.execution.memory_requests for run in cold.runs),
        "attempted": len(spec),
        "failed": failed,
        "digest": checks.digest((run.cell.label, run.result) for run in cold.runs),
        "warm_digest": checks.digest((run.cell.label, run.result) for run in warm.runs)
        if warm.cache_hits == len(spec) else "warm rerun missed the cache",
        "rss_mb": rss_kb / 1024.0,
        "dispatch_overhead_s": wall - worker_seconds / args.workers,
        "model": checks.model_metrics([(run.result, None) for run in cold.runs]),
        "calls": tracer.calls if tracer else {},
        "self_ns": tracer.self_ns if tracer else {},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
