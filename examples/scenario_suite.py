"""The open workload axis: parametric scenario families + trace replay.

Runs one instance of every parametric scenario family (kv-lookup,
embedding-inference, stream-join, multi-tenant) on two ZnG variants, sweeps
the kv-lookup Zipf skew through the runner, and demonstrates the trace
record -> replay round trip — all through the ``repro.workloads.registry``
subsystem, so every cell is cached, shardable and mergeable like a Table II
workload.

Run from the repository root::

    PYTHONPATH=src python examples/scenario_suite.py
"""

import tempfile
from pathlib import Path

from repro.analysis.figures import scenario_suite_from_result
from repro.runner import SweepSpec, run_sweep
from repro.workloads.io import trace_to_dict
from repro.workloads.registry import resolve_workload
from repro.workloads.trace import TraceKnobs
from repro.workloads.tracefile import read_trace_file, record_trace

SCALE = 0.05  # tiny traces: this is a tour, not a measurement


def main() -> None:
    print("=== Scenario suite: every parametric family x ZnG variants ===")
    spec = SweepSpec.create(
        platforms=["ZnG-base", "ZnG"],
        workloads=["scenarios"],
        scale=SCALE,
        warps_per_sm=2,
    )
    result = run_sweep(spec, workers=2)
    for family, instances in scenario_suite_from_result(result).items():
        for token, row in instances.items():
            cells = "  ".join(f"{p}={v:.4f}" for p, v in row.items())
            print(f"  {token:28s} IPC: {cells}")

    print()
    print("=== kv-lookup Zipf-skew axis (spans the alpha >= 1 regime) ===")
    kv_spec = SweepSpec.create(
        platforms=["ZnG"],
        workloads=[f"kv-lookup:zipf={value}" for value in (0.6, 0.99, 1.2)],
        scale=SCALE,
        warps_per_sm=2,
    )
    for run in run_sweep(kv_spec, workers=2):
        zipf = resolve_workload(run.cell.workload).param_mapping()["zipf"]
        print(f"  zipf={zipf:<5} IPC={run.result.ipc:.4f} "
              f"L2 hit rate={run.result.l2_hit_rate:.3f}")

    print()
    print("=== Trace record -> replay (bit-identical) ===")
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "multi-tenant.trace.json"
        recorded = record_trace("multi-tenant:phases=2", path, TraceKnobs(
            scale=SCALE, warps_per_sm=2))
        loaded = read_trace_file(path)
        identical = trace_to_dict(loaded.trace) == trace_to_dict(recorded.trace)
        print(f"  recorded {recorded.workload} "
              f"(hash {recorded.content_hash[:16]}...)")
        print(f"  replayed payload bit-identical: {identical}")
        replay_spec = SweepSpec.create(
            platforms=["ZnG"], workloads=[f"trace:{path}"],
            scale=SCALE, warps_per_sm=2)
        replayed = run_sweep(replay_spec)
        print(f"  sweep over trace:{path.name}: "
              f"IPC={replayed.runs[0].result.ipc:.4f}")


if __name__ == "__main__":
    main()
