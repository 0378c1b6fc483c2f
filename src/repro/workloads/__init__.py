"""Workloads: Table II benchmark specifications and synthetic trace generation."""

from repro.workloads.trace import WorkloadSpec, WorkloadTrace
from repro.workloads.generators import TraceGenerator, generate_workload
from repro.workloads.suites import (
    GRAPH_WORKLOADS,
    SCIENTIFIC_WORKLOADS,
    ALL_WORKLOADS,
    MULTI_APP_MIXES,
    workload_by_name,
)
from repro.workloads.multiapp import MultiAppWorkload, build_mix, build_all_mixes
from repro.workloads.microbench import streaming, pointer_chase, stencil, hammer
from repro.workloads.registry import (
    WORKLOAD_FAMILIES,
    TraceKnobs,
    WorkloadFamily,
    build_token_trace,
    family_by_name,
    family_names,
    parse_workload_token,
    resolve_workload,
    resolve_workload_tokens,
    workload_fingerprint,
)
from repro.workloads.tracefile import (
    TraceFile,
    TraceFileError,
    read_trace_file,
    record_trace,
    trace_file_fingerprint,
    write_trace_file,
)

__all__ = [
    "WorkloadSpec",
    "WorkloadTrace",
    "TraceGenerator",
    "generate_workload",
    "GRAPH_WORKLOADS",
    "SCIENTIFIC_WORKLOADS",
    "ALL_WORKLOADS",
    "MULTI_APP_MIXES",
    "workload_by_name",
    "MultiAppWorkload",
    "build_mix",
    "build_all_mixes",
    "WORKLOAD_FAMILIES",
    "TraceKnobs",
    "WorkloadFamily",
    "build_token_trace",
    "family_by_name",
    "family_names",
    "parse_workload_token",
    "resolve_workload",
    "resolve_workload_tokens",
    "workload_fingerprint",
    "TraceFile",
    "TraceFileError",
    "read_trace_file",
    "record_trace",
    "trace_file_fingerprint",
    "write_trace_file",
    "streaming",
    "pointer_chase",
    "stencil",
    "hammer",
]
