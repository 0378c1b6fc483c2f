"""Tracer core: spans, counters, schema validity, and the free disabled path."""

import json
import os
import tracemalloc

from repro.telemetry import (
    NULL_SPAN,
    configure,
    counter,
    current_span_id,
    enabled,
    reset,
    span,
)
from repro.telemetry import core
from repro.telemetry.schema import (
    TELEMETRY_SCHEMA,
    cell_coverage,
    read_events,
    validate_events_dir,
    validate_record,
)


class TestEnabledTracer:
    def test_nested_spans_record_parentage(self, tmp_path):
        configure(enabled=True, sink_dir=tmp_path, worker="w1")
        with span("sweep", {"fingerprint": "abc"}):
            with span("cell", {"platform": "ZnG", "workload": "bfs1",
                               "override": "default"}):
                counter("l2.hits", 42.0)
            counter("sweep.cells", 1)
        reset()

        count, problems = validate_events_dir(tmp_path)
        assert problems == []
        assert count == 4
        events = read_events(tmp_path)
        by_name = {record["name"]: record for record in events}
        sweep = by_name["sweep"]
        cell = by_name["cell"]
        assert sweep["parent_id"] is None
        assert cell["parent_id"] == sweep["span_id"]
        assert by_name["l2.hits"]["parent_id"] == cell["span_id"]
        # The counter fired after the cell span closed, inside the sweep span.
        assert by_name["sweep.cells"]["parent_id"] == sweep["span_id"]
        assert all(record["worker"] == "w1" for record in events)
        assert all(record["schema"] == TELEMETRY_SCHEMA for record in events)
        assert cell_coverage(events) == {("ZnG", "bfs1", "default")}

    def test_span_status_reflects_exceptions(self, tmp_path):
        configure(enabled=True, sink_dir=tmp_path)
        try:
            with span("boom"):
                raise RuntimeError("kaboom")
        except RuntimeError:
            pass
        reset()
        (record,) = read_events(tmp_path)
        assert record["status"] == "error"
        assert record["duration_seconds"] >= 0

    def test_records_are_one_json_line_each(self, tmp_path):
        configure(enabled=True, sink_dir=tmp_path, worker="w1")
        for index in range(10):
            counter("c", float(index))
        reset()
        (path,) = sorted(tmp_path.glob("events*.jsonl"))
        lines = path.read_text().splitlines()
        assert len(lines) == 10
        assert [json.loads(line)["value"] for line in lines] == [
            float(i) for i in range(10)]

    def test_sink_file_is_per_process(self, tmp_path):
        configure(enabled=True, sink_dir=tmp_path)
        counter("ping", 1)
        reset()
        (path,) = sorted(tmp_path.glob("events*.jsonl"))
        assert f"-{os.getpid()}.jsonl" in path.name

    def test_current_span_id_tracks_the_stack(self, tmp_path):
        configure(enabled=True, sink_dir=tmp_path)
        assert current_span_id() is None
        with span("outer") as outer:
            assert current_span_id() == outer.span_id
        assert current_span_id() is None
        reset()


class TestDisabledTracer:
    def test_disabled_emits_nothing(self, tmp_path):
        configure(enabled=False, sink_dir=tmp_path)
        with span("sweep"):
            counter("c", 1.0)
        assert list(tmp_path.glob("events*.jsonl")) == []

    def test_disabled_span_is_the_shared_singleton(self):
        configure(enabled=False)
        assert span("a") is NULL_SPAN
        assert span("b") is NULL_SPAN

    def test_env_flag_gates(self, monkeypatch):
        monkeypatch.setenv(core.ENV_FLAG, "1")
        assert enabled()
        monkeypatch.setenv(core.ENV_FLAG, "0")
        assert not enabled()
        monkeypatch.delenv(core.ENV_FLAG)
        assert not enabled()

    def test_disabled_hot_path_is_allocation_free(self):
        configure(enabled=False)
        # Warm every code path (and the env memo) before tracing.
        for _ in range(3):
            with span("hot"):
                pass
            counter("c", 1.0)
        tracemalloc.start()
        try:
            for _ in range(2000):
                with span("hot"):
                    pass
                counter("c", 1.0)
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        core_file = core.__file__
        spent = sum(
            stat.size for stat in snapshot.statistics("filename")
            if stat.traceback[0].filename == core_file
        )
        assert spent == 0, f"disabled tracer allocated {spent} bytes"


class TestSchemaValidator:
    def test_rejects_malformed_records(self):
        assert validate_record([]) == ["record: not a JSON object"]
        bad = {"schema": "nope", "type": "span", "name": "", "ts": float("nan"),
               "pid": "x", "host": "h", "worker": "w", "attrs": [],
               "span_id": "", "duration_seconds": -1, "status": "meh"}
        problems = validate_record(bad)
        assert any("schema" in p for p in problems)
        assert any("'ts'" in p for p in problems)
        assert any("span_id" in p for p in problems)
        assert any("duration_seconds" in p for p in problems)
        assert any("status" in p for p in problems)

    def test_accepts_real_records(self, tmp_path):
        configure(enabled=True, sink_dir=tmp_path, worker="w1")
        with span("s", {"k": "v", "n": 1, "f": 0.5, "b": True, "z": None}):
            pass
        reset()
        (record,) = read_events(tmp_path)
        assert validate_record(record) == []

    def test_validator_flags_corrupt_lines(self, tmp_path):
        (tmp_path / "events-h-1.jsonl").write_text('{"broken\n\n{}\n')
        count, problems = validate_events_dir(tmp_path)
        assert count == 1  # only the parseable (but invalid) line counts
        assert any("unparseable" in p for p in problems)
        assert any("blank line" in p for p in problems)
