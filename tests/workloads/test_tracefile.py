"""Tests for repro-trace-v1 record/replay (repro.workloads.tracefile)."""

import json
from array import array
from dataclasses import replace

import pytest

from repro.configspace.fingerprint import fingerprint
from repro.runner import SweepSpec, run_sweep
from repro.runner.spec import cell_seed
from repro.workloads.io import trace_to_dict
from repro.workloads.registry import (
    TraceKnobs,
    build_token_trace,
    parse_workload_token,
)
from repro.workloads.tracefile import (
    TraceFileError,
    read_trace_file,
    record_trace,
    regenerate_from_meta,
    trace_file_fingerprint,
    write_trace_file,
)

KNOBS = TraceKnobs(scale=0.05, seed=3, num_sms=4, warps_per_sm=2,
                   memory_instructions_per_warp=32)


def rewrite_first_address(path, address):
    """Replace the first thread address of a trace file and store the
    content hash of the edited body, so only the address is wrong."""
    payload = json.loads(path.read_text())
    payload["trace"]["warps"][0]["instructions"][0]["addresses"][0] = address
    payload["content_hash"] = fingerprint({
        "workload": payload["workload"], "knobs": payload["knobs"],
        "trace": payload["trace"]})
    path.write_text(json.dumps(payload))


class TestRoundTrip:
    def test_record_then_read_is_bit_identical(self, tmp_path):
        path = tmp_path / "kv.trace.json"
        recorded = record_trace("kv-lookup:zipf=1.1", path, KNOBS)
        loaded = read_trace_file(path)
        assert loaded.workload == "kv-lookup:zipf=1.1"
        assert trace_to_dict(loaded.trace) == trace_to_dict(recorded.trace)
        assert loaded.content_hash == recorded.content_hash

    def test_segments_survive_the_round_trip(self, tmp_path):
        path = tmp_path / "betw.trace.json"
        recorded = record_trace("betw", path, KNOBS)
        loaded = read_trace_file(path)
        originals = [i.segments for w in recorded.trace.warps
                     for i in w.instructions]
        replayed = [i.segments for w in loaded.trace.warps
                    for i in w.instructions]
        assert any(s is not None for s in originals)
        assert replayed == originals

    def test_replayed_addresses_are_packed_int64(self, tmp_path):
        path = tmp_path / "betw.trace.json"
        record_trace("betw", path, KNOBS)
        instructions = [i for w in read_trace_file(path).trace.warps
                        for i in w.instructions]
        assert instructions
        for instr in instructions:
            assert type(instr.addresses) is array
            assert instr.addresses.typecode == "q"
            assert len(instr.addresses) == 32

    def test_mix_tokens_record_the_combined_trace(self, tmp_path):
        path = tmp_path / "mix.trace.json"
        recorded = record_trace("betw-back", path, KNOBS)
        assert recorded.workload == "betw-back"
        assert read_trace_file(path).trace.total_memory_instructions > 0

    def test_regenerate_from_meta_matches(self, tmp_path):
        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup:get_ratio=0.3", path, KNOBS)
        loaded = read_trace_file(path)
        assert (trace_to_dict(regenerate_from_meta(loaded))
                == trace_to_dict(loaded.trace))


class TestVerification:
    def test_corrupted_payload_fails_hash_check(self, tmp_path):
        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup", path, KNOBS)
        payload = json.loads(path.read_text())
        payload["trace"]["warps"][0]["instructions"][0]["pc"] += 8
        path.write_text(json.dumps(payload))
        with pytest.raises(TraceFileError, match="content-hash verification"):
            read_trace_file(path)

    @pytest.mark.parametrize("address, error", [
        (4096.0, "TypeError"), (2 ** 63, "OverflowError")])
    def test_an_address_that_is_no_int64_is_rejected(self, tmp_path, address, error):
        path = tmp_path / "betw.trace.json"
        record_trace("betw", path, KNOBS)
        rewrite_first_address(path, address)
        with pytest.raises(TraceFileError, match=error) as raised:
            read_trace_file(path)
        message = str(raised.value)
        assert str(path) in message and "\n" not in message

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "repro-trace-v0"}))
        with pytest.raises(TraceFileError, match="trace schema"):
            read_trace_file(path)

    def test_non_trace_json_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(TraceFileError, match="not a trace file"):
            read_trace_file(path)

    def test_knobs_that_are_not_a_mapping_rejected(self, tmp_path):
        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup", path, KNOBS)
        payload = json.loads(path.read_text())
        payload["knobs"] = [1, 2]
        path.write_text(json.dumps(payload))
        with pytest.raises(TraceFileError, match="not a mapping"):
            read_trace_file(path)

    def test_missing_file_raises_trace_error(self, tmp_path):
        with pytest.raises(TraceFileError, match="cannot read"):
            read_trace_file(tmp_path / "absent.json")

    def test_file_fingerprint_tracks_bytes(self, tmp_path):
        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup", path, KNOBS)
        before = trace_file_fingerprint(path)
        assert trace_file_fingerprint(path) == before  # memo hit
        path.write_text(path.read_text() + " ")
        assert trace_file_fingerprint(path) != before


class TestVerifiedOnce:
    """The last verified file is kept under the hash of its bytes."""

    @pytest.fixture
    def parses(self, monkeypatch):
        from repro.workloads import tracefile

        calls = []
        real = tracefile.trace_from_dict

        def counting(payload):
            calls.append(1)
            return real(payload)

        monkeypatch.setattr(tracefile, "_LAST_VERIFIED", None)
        monkeypatch.setattr(tracefile, "trace_from_dict", counting)
        return calls

    def test_a_sweep_parses_the_file_once(self, tmp_path, parses):
        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup", path, TraceKnobs(scale=0.05, warps_per_sm=2))
        result = run_sweep(SweepSpec.create(
            platforms=["ZnG-base", "ZnG"], workloads=[f"trace:{path}"],
            scale=0.05, warps_per_sm=2))
        assert len(result) == 2
        assert len(parses) == 1

    def test_an_edited_file_is_verified_again(self, tmp_path, parses):
        path = tmp_path / "betw.trace.json"
        record_trace("betw", path, KNOBS)
        read_trace_file(path)
        assert read_trace_file(path).path == str(path) and len(parses) == 1
        rewrite_first_address(path, 4096 * 7)
        edited = read_trace_file(path)
        assert len(parses) == 2
        assert edited.trace.warps[0].instructions[0].addresses[0] == 4096 * 7

    def test_a_corrupted_edit_still_fails(self, tmp_path, parses):
        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup", path, KNOBS)
        read_trace_file(path)
        payload = json.loads(path.read_text())
        payload["trace"]["warps"][0]["instructions"][0]["pc"] += 8
        path.write_text(json.dumps(payload))
        with pytest.raises(TraceFileError, match="content-hash verification"):
            read_trace_file(path)


class TestSweepReplay:
    def test_replayed_sweep_is_bit_identical_to_generating_sweep(self, tmp_path):
        # The headline acceptance property: record a trace with the sweep's
        # own seed derivation, then sweep the file — every platform's result
        # must equal the generating run's, bit for bit.
        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup:zipf=1.1", path,
                     TraceKnobs(scale=0.05, seed=1, warps_per_sm=2))
        generating = run_sweep(SweepSpec.create(
            platforms=["ZnG-base", "ZnG"],
            workloads=["kv-lookup:zipf=1.1"],
            scale=0.05, seed=1, warps_per_sm=2))
        replayed = run_sweep(SweepSpec.create(
            platforms=["ZnG-base", "ZnG"],
            workloads=[f"trace:{path}"],
            scale=0.05, seed=1, warps_per_sm=2))
        for original, replay in zip(generating, replayed):
            assert original.cell.platform == replay.cell.platform
            assert original.result.stats.as_dict() == replay.result.stats.as_dict()
            assert original.result.ipc == replay.result.ipc

    def test_record_uses_the_runners_seed_derivation(self, tmp_path):
        path = tmp_path / "betw.trace.json"
        recorded = record_trace("betw", path, replace(KNOBS, seed=9))
        direct = build_token_trace(
            "betw", replace(KNOBS, seed=cell_seed(9, "betw")))
        assert trace_to_dict(recorded.trace) == trace_to_dict(direct)

    def test_trace_cells_key_on_file_content(self, tmp_path):
        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup", path, KNOBS)
        spec = SweepSpec.create(platforms=["ZnG"],
                                workloads=[f"trace:{path}"], scale=0.05)
        key_before = spec.cells()[0].cache_key()
        trace_key_before = spec.cells()[0].trace_key()
        record_trace("kv-lookup:zipf=1.3", path, KNOBS)  # rewrite in place
        fresh = SweepSpec.create(platforms=["ZnG"],
                                 workloads=[f"trace:{path}"], scale=0.05)
        assert fresh.cells()[0].cache_key() != key_before
        assert fresh.cells()[0].trace_key() != trace_key_before

    def test_relocating_a_replayed_trace_is_rejected(self, tmp_path):
        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup", path, KNOBS)
        with pytest.raises(ValueError, match="cannot be relocated"):
            build_token_trace(f"trace:{path}",
                              replace(KNOBS, address_space_offset=4096))

    def test_external_trace_ingestion(self, tmp_path):
        # An externally captured trace (no generating token) is a
        # first-class workload as long as it speaks repro-trace-v1.
        trace = build_token_trace("betw", KNOBS)
        path = tmp_path / "external.trace.json"
        write_trace_file(path, trace)
        loaded = read_trace_file(path)
        assert loaded.workload == ""
        result = run_sweep(SweepSpec.create(
            platforms=["ZnG"], workloads=[f"trace:{path}"], scale=0.05))
        assert result.runs[0].result.cycles > 0
        with pytest.raises(TraceFileError, match="no generating workload"):
            regenerate_from_meta(loaded)


class TestReviewRegressions:
    def test_missing_trace_file_fails_at_spec_creation(self, tmp_path):
        # Fail-fast contract: a bad trace path dies in SweepSpec.create,
        # not after N cells have run.
        with pytest.raises(TraceFileError, match="cannot stat"):
            SweepSpec.create(platforms=["ZnG"],
                             workloads=[f"trace:{tmp_path}/absent.json"])

    def test_mismatched_trace_knobs_are_rejected(self, tmp_path):
        # A replayed file cannot be reshaped by the sweep's trace knobs, so
        # labeling recorded data with different knobs must raise, not
        # silently mislabel.
        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup", path, KNOBS)
        with pytest.raises(ValueError, match="different trace knobs"):
            build_token_trace(f"trace:{path}", replace(KNOBS, scale=0.5))

    def test_matching_trace_knobs_replay(self, tmp_path):
        path = tmp_path / "kv.trace.json"
        recorded = record_trace("kv-lookup", path, KNOBS)
        replayed = build_token_trace(  # seed is derived, not checked
            f"trace:{path}", replace(KNOBS, seed=123))
        assert trace_to_dict(replayed) == trace_to_dict(recorded.trace)

    def test_pivoting_a_result_survives_a_deleted_trace_file(self, tmp_path):
        # Classification-only token parsing: once results exist, the pivots
        # must not need the trace file on disk (merged shard results are
        # routinely pivoted on another machine).
        from repro.analysis.reporting import report_tables

        path = tmp_path / "kv.trace.json"
        record_trace("kv-lookup", path, KNOBS)
        result = run_sweep(SweepSpec.create(
            platforms=["ZnG"],
            workloads=[f"trace:{path}", "kv-lookup:zipf=1.1"],
            **replace(KNOBS, seed=1).sweep_fields()))
        path.unlink()
        assert parse_workload_token(f"trace:{path}") == (f"trace:{path}", None)
        _, rows = report_tables(result)["metrics"]
        assert [row[0] for row in rows] == [f"trace:{path}",
                                            "kv-lookup:zipf=1.1"]
