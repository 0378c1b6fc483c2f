"""The PR's acceptance gates: bit-identity and the two-worker telemetry drill.

* Telemetry may never perturb results: a sweep with tracing on produces
  ``PlatformResult`` records byte-identical to one with tracing off.
* A two-worker ``repro dispatch`` fleet with ``REPRO_TELEMETRY=1`` leaves a
  schema-valid event log whose span tree covers every executed cell,
  ``repro status`` reports the queue complete, and the merged report CSVs
  byte-match a telemetry-off serial sweep.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.runner import RunManifest, SweepSpec, run_sweep
from repro.runner.dispatch import LeaseQueue, run_dispatch_worker
from repro.telemetry import configure, reset
from repro.telemetry.schema import (
    cell_coverage,
    read_events,
    validate_events_dir,
)

_REPO_ROOT = Path(__file__).resolve().parent.parent.parent


def _small_spec(**kwargs):
    defaults = dict(
        platforms=["ZnG-base", "ZnG"],
        workloads=["betw-back", "bfs1"],
        scale=0.06,
        warps_per_sm=2,
        memory_instructions_per_warp=12,
    )
    defaults.update(kwargs)
    return SweepSpec.create(**defaults)


class TestBitIdentity:
    def test_results_identical_with_telemetry_on_and_off(self, tmp_path):
        spec = _small_spec()
        configure(enabled=True, sink_dir=tmp_path / "events", worker="w1")
        traced = run_sweep(spec, workers=1, cache=False)
        reset()
        plain = run_sweep(spec, workers=1, cache=False)

        traced_records = {run.key: run.result.to_record() for run in traced}
        plain_records = {run.key: run.result.to_record() for run in plain}
        assert traced_records == plain_records
        # And the traced run actually traced: every cell left a span.
        events = read_events(tmp_path / "events")
        assert cell_coverage(events) == {
            (cell.platform, cell.workload, cell.override_set.label)
            for cell in spec.cells()
        }

    def test_lease_steal_emits_structured_event(self, tmp_path):
        clock = [1000.0]
        spec = _small_spec()
        configure(enabled=True, sink_dir=tmp_path / "events", worker="thief")
        try:
            queue = LeaseQueue(tmp_path / "q", lease_ttl_seconds=5,
                               clock=lambda: clock[0])
            queue.ensure(spec)
            key = min(cell.cache_key() for cell in spec.cells())
            assert queue.try_claim(key, "victim") is not None
            clock[0] += 6.0  # victim never heartbeats
            lease = queue.try_claim(key, "thief")
            assert lease is not None and lease.generation == 2
        finally:
            reset()
        events = read_events(tmp_path / "events")
        (stolen,) = [e for e in events if e["name"] == "lease.stolen"]
        assert stolen["type"] == "event"
        assert stolen["attrs"]["victim_owner"] == "victim"
        assert stolen["attrs"]["victim_generation"] == 1
        assert stolen["attrs"]["thief_owner"] == "thief"
        assert stolen["attrs"]["generation"] == 2


class TestSweepCliTelemetry:
    def test_sweep_pins_the_sink_to_a_fresh_cache_dir(
            self, tmp_path, monkeypatch, capsys):
        """Regression: an empty ResultCache is falsy (``__len__``), so
        a truthiness check on ``runner.cache`` used to skip the sink pin and
        the events silently landed in the cwd default instead."""
        from repro.__main__ import main
        from repro.telemetry import ENV_FLAG

        monkeypatch.setenv(ENV_FLAG, "1")
        monkeypatch.chdir(tmp_path)  # a cwd-default leak would be visible
        cache_dir = tmp_path / "cache"
        assert main([
            "sweep", "--platforms", "ZnG-base", "--workloads", "betw-back",
            "--workers", "1", "--scale", "0.05", "--warps", "2",
            "--cache-dir", str(cache_dir),
            "--manifest", str(cache_dir / "manifest.json"),
        ]) == 0
        events = read_events(cache_dir / "telemetry")
        assert cell_coverage(events) == {("ZnG-base", "betw-back", "default")}
        assert not (tmp_path / ".repro-cache" / "telemetry").exists()

        # With no dispatch queue, status auto-discovers manifest*.json.
        capsys.readouterr()
        assert main(["status", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out and "state: complete" in out


class TestStatusCli:
    def test_status_on_a_finished_queue(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = _small_spec()
        report = run_dispatch_worker(spec, cache=tmp_path, owner="w1")
        assert report.complete
        assert main(["status", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "state: complete" in out
        assert f"done {len(spec)}" in out

    def test_status_json_snapshot(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = _small_spec()
        run_dispatch_worker(spec, cache=tmp_path, owner="w1")
        assert main(["status", "--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (queue,) = payload["queues"]
        assert queue["complete"] and queue["state"] == "complete"
        assert queue["spec_fingerprint"] == spec.fingerprint()

    def test_status_validate_gates_the_event_log(self, tmp_path, capsys):
        from repro.__main__ import main

        telemetry = tmp_path / "telemetry"
        telemetry.mkdir(parents=True)
        configure(enabled=True, sink_dir=telemetry, worker="w1")
        from repro.telemetry import event

        event("ping")
        reset()
        assert main(["status", "--cache-dir", str(tmp_path),
                     "--validate"]) == 0
        assert "1 records" in capsys.readouterr().out

        (telemetry / "events-h-2.jsonl").write_text("not json\n")
        assert main(["status", "--cache-dir", str(tmp_path),
                     "--validate"]) == 1
        assert "TELEMETRY VIOLATION" in capsys.readouterr().out


class TestTwoWorkerTelemetryAcceptance:
    """A 2-worker fleet with REPRO_TELEMETRY=1, checked end to end."""

    def test_fleet_run_is_traced_and_byte_identical(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.analysis.reporting import (
            compare_csv_dirs,
            report_from_manifests,
            write_report,
        )

        cache_dir = tmp_path / "cache"
        # Must match the CLI flags below exactly (the dispatch CLI has no
        # --mem-insts flag, so the spec keeps the 64 default).
        spec = _small_spec(memory_instructions_per_warp=64)
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(_REPO_ROOT / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        env["REPRO_TELEMETRY"] = "1"
        env.pop("REPRO_TELEMETRY_DIR", None)
        env.pop("REPRO_TELEMETRY_WORKER", None)
        argv = [
            sys.executable, "-m", "repro", "dispatch",
            "--platforms", "ZnG-base,ZnG",
            "--workloads", "betw-back,bfs1",
            "--scale", "0.06", "--warps", "2",
            "--cache-dir", str(cache_dir),
            "--lease-ttl", "10", "--poll-interval", "0.1",
        ]
        workers = [
            subprocess.Popen(
                argv + ["--owner", f"worker-{i}"],
                cwd=_REPO_ROOT, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
            for i in (1, 2)
        ]
        for proc in workers:
            out, _ = proc.communicate(timeout=600)
            assert proc.returncode == 0, f"worker failed:\n{out}"

        # The CLI's spec must be the in-test spec (queue dir pins it).
        queue_root = cache_dir / "dispatch" / spec.fingerprint()[:16]
        assert queue_root.is_dir(), "CLI flags diverged from the test spec"

        # 1. Schema-valid event log whose span tree covers every cell.
        telemetry_dir = cache_dir / "telemetry"
        count, problems = validate_events_dir(telemetry_dir)
        assert problems == [], "\n".join(problems)
        assert count > 0
        events = read_events(telemetry_dir)
        # The cells that were *executed* (not cache-served) left cell spans;
        # with a cold cache that is every cell of the grid.
        expected = {(c.platform, c.workload, c.override_set.label)
                    for c in spec.cells()}
        assert cell_coverage(events) == expected
        workers_seen = {e["worker"] for e in events}
        assert workers_seen <= {"worker-1", "worker-2"}
        # Both processes wrote their own files; none interleaved.
        assert len(list(telemetry_dir.glob("events*.jsonl"))) >= 1

        # 2. repro status reports the queue complete.
        assert main(["status", "--cache-dir", str(cache_dir),
                     "--validate"]) == 0
        status_out = capsys.readouterr().out
        assert "state: complete" in status_out
        assert "0 schema violation(s)" in status_out

        # 3. Report CSVs byte-identical to a telemetry-off serial sweep,
        #    with the timeline artifacts tucked into telemetry/.
        fleet_out = tmp_path / "fleet-report"
        written = report_from_manifests(
            [cache_dir / "manifest.json"], fleet_out,
            plots=False, html_report=False)
        assert "telemetry/timeline.html" in written
        serial_out = tmp_path / "serial-report"
        serial = run_sweep(spec, workers=1, cache=False)
        write_report(serial, serial_out, plots=False, html_report=False)
        drift = compare_csv_dirs(fleet_out, serial_out)
        assert not drift, "\n".join(drift)
