"""Tests for workload trace serialisation."""

import json

import pytest

from repro.sim.request import AccessType
from repro.workloads import io
from repro.workloads.generators import generate_workload
from repro.workloads.microbench import streaming
from repro.workloads.registry import build_token_trace
from repro.workloads.suites import workload_by_name
from repro.workloads.trace import TraceKnobs
from repro.workloads.tracefile import read_trace_file, write_trace_file


def round_trip(trace):
    """Through the JSON text a trace file holds."""
    return io.trace_from_dict(json.loads(json.dumps(io.trace_to_dict(trace))))


class TestRoundTrip:
    def test_generated_trace_round_trip(self):
        trace = generate_workload(workload_by_name("betw"),
                                  TraceKnobs(scale=0.05, warps_per_sm=4))
        restored = round_trip(trace)
        assert restored.spec.name == trace.spec.name
        assert restored.total_memory_instructions == trace.total_memory_instructions
        assert restored.page_read_counts == trace.page_read_counts
        assert restored.page_write_counts == trace.page_write_counts
        segments = [i.segments for w in trace.warps for i in w.instructions]
        assert any(s is not None for s in segments)
        assert [i.segments for w in restored.warps
                for i in w.instructions] == segments

    def test_micro_trace_round_trip(self):
        trace = streaming(num_warps=4, accesses_per_warp=8)
        restored = round_trip(trace)
        assert len(restored.warps) == len(trace.warps)
        for a, b in zip(trace.warps, restored.warps):
            assert len(a.instructions) == len(b.instructions)

    def test_access_types_preserved(self):
        trace = generate_workload(workload_by_name("back"),
                                  TraceKnobs(scale=0.05, warps_per_sm=4))
        restored = round_trip(trace)
        def access_types(t):
            return [i.access for w in t.warps for i in w.instructions if i.is_memory]

        assert AccessType.WRITE in access_types(trace)
        assert access_types(restored) == access_types(trace)

    def test_trace_file_round_trip(self, tmp_path):
        trace = streaming(num_warps=2, accesses_per_warp=4)
        path = tmp_path / "trace.json"
        write_trace_file(path, trace)
        restored = read_trace_file(path).trace
        assert restored.footprint_pages == trace.footprint_pages
        assert io.trace_to_dict(restored) == io.trace_to_dict(trace)

    def test_a_repeated_record_with_a_float_address_is_rejected(self):
        # Equal records share one instruction, but a record that equals an
        # earlier one only as numbers (4096.0 == 4096) is still checked.
        trace = build_token_trace("kv-lookup:get_ratio=0.3", TraceKnobs(
            scale=0.25, seed=1, warps_per_sm=8))
        data = json.loads(json.dumps(io.trace_to_dict(trace)))
        records = [r for w in data["warps"] for r in w["instructions"]]
        repeat = next(r for i, r in enumerate(records) if r in records[:i])
        repeat["addresses"][0] = float(repeat["addresses"][0])
        with pytest.raises(TypeError):
            io.trace_from_dict(data)


class TestSpecSerialization:
    def test_spec_round_trip(self):
        spec = workload_by_name("pr")
        restored = io.spec_from_dict(io.spec_to_dict(spec))
        assert restored == spec
