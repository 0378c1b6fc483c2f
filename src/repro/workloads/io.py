"""Workload traces as JSON-friendly dicts.

The ``trace`` payload of a ``repro-trace-v1`` file
(:mod:`repro.workloads.tracefile`), which is how a trace is saved to disk and
replayed.
"""

from __future__ import annotations

from array import array
from typing import Dict

from repro.gpu.warp import Instruction, WarpTrace
from repro.sim.request import AccessType
from repro.workloads.trace import WorkloadSpec, WorkloadTrace


def spec_to_dict(spec: WorkloadSpec) -> Dict:
    return {
        "name": spec.name,
        "suite": spec.suite,
        "read_ratio": spec.read_ratio,
        "kernels": spec.kernels,
        "read_reaccess": spec.read_reaccess,
        "write_redundancy": spec.write_redundancy,
        "sequential_fraction": spec.sequential_fraction,
        "compute_per_memory": spec.compute_per_memory,
        "footprint_pages": spec.footprint_pages,
        "zipf_alpha": spec.zipf_alpha,
    }


def spec_from_dict(data: Dict) -> WorkloadSpec:
    return WorkloadSpec(**data)


def trace_to_dict(trace: WorkloadTrace) -> Dict:
    """Serialise a workload trace to a JSON-friendly dict."""
    return {
        "spec": spec_to_dict(trace.spec),
        "footprint_pages": trace.footprint_pages,
        "warps": [
            {
                "warp_id": warp.warp_id,
                "sm_id": warp.sm_id,
                "instructions": [
                    {
                        "pc": instr.pc,
                        "compute_ops": instr.compute_ops,
                        "addresses": list(instr.addresses),
                        "access": instr.access.value,
                        # Precomputed coalesced segments must survive the
                        # round trip: a replayed trace has to drive the
                        # coalescer through the same fast path as the
                        # generated one, bit-identically.
                        "segments": (
                            list(instr.segments)
                            if instr.segments is not None else None
                        ),
                    }
                    for instr in warp.instructions
                ],
            }
            for warp in trace.warps
        ],
        "page_read_counts": {str(k): v for k, v in trace.page_read_counts.items()},
        "page_write_counts": {str(k): v for k, v in trace.page_write_counts.items()},
    }


def trace_from_dict(data: Dict) -> WorkloadTrace:
    """Reconstruct a workload trace from its serialised form.

    Each instruction's addresses are packed into an int64 ``array('q')``,
    which compares equal to the generated instruction's address pattern: a
    non-integer address raises :class:`TypeError`, one outside the int64
    range :class:`OverflowError`.
    """
    trace = WorkloadTrace(spec=spec_from_dict(data["spec"]))
    trace.footprint_pages = data.get("footprint_pages", 0)
    for warp_data in data["warps"]:
        warp = WarpTrace(warp_id=warp_data["warp_id"], sm_id=warp_data["sm_id"])
        for instr_data in warp_data["instructions"]:
            warp.append(
                Instruction(
                    pc=instr_data["pc"],
                    compute_ops=instr_data["compute_ops"],
                    addresses=array("q", instr_data["addresses"]),
                    access=AccessType(instr_data["access"]),
                    # Legacy payloads predate segment serialisation; the
                    # coalescer falls back to re-deriving them.
                    segments=(
                        tuple(instr_data["segments"])
                        if instr_data.get("segments") is not None else None
                    ),
                )
            )
        trace.warps.append(warp)
    trace.page_read_counts = {int(k): v for k, v in data["page_read_counts"].items()}
    trace.page_write_counts = {int(k): v for k, v in data["page_write_counts"].items()}
    return trace
