"""Telemetry acceptance: bit-identity and the two-worker traced sweep.

* Telemetry may never perturb results: a sweep with tracing on produces
  ``PlatformResult`` records byte-identical to one with tracing off.
* A ``repro sweep --workers 2`` of the golden grid with ``REPRO_TELEMETRY=1``
  leaves a schema-valid event log whose span tree covers every cell,
  ``repro status`` reports the manifest complete, and the report CSVs
  byte-match the committed goldens, with the timeline artifacts next to them.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.runner import SweepRunner, SweepSpec, run_sweep
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

        # status auto-discovers manifest*.json in the cache root.
        capsys.readouterr()
        assert main(["status", "--cache-dir", str(cache_dir)]) == 0
        out = capsys.readouterr().out
        assert "manifest" in out and "state: complete" in out


class TestStatusCli:
    def _finished_sweep(self, tmp_path):
        spec = _small_spec()
        SweepRunner(workers=1, cache=tmp_path).run(
            spec, manifest_path=tmp_path / "manifest.json")
        return spec

    def test_status_on_a_finished_sweep(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = self._finished_sweep(tmp_path)
        assert main(["status", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "state: complete" in out
        assert f"cells {len(spec)} (ok {len(spec)})" in out

    def test_status_json_snapshot(self, tmp_path, capsys):
        from repro.__main__ import main

        spec = self._finished_sweep(tmp_path)
        assert main(["status", "--cache-dir", str(tmp_path), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        (manifest,) = payload["manifests"]
        assert manifest["complete"] and manifest["pending"] == 0
        assert manifest["spec_fingerprint"] == spec.fingerprint()

    def test_status_validate_gates_the_event_log(self, tmp_path, capsys):
        from repro.__main__ import main

        telemetry = tmp_path / "telemetry"
        telemetry.mkdir(parents=True)
        configure(enabled=True, sink_dir=telemetry, worker="w1")
        from repro.telemetry import counter

        counter("ping", 1)
        reset()
        assert main(["status", "--cache-dir", str(tmp_path),
                     "--validate"]) == 0
        assert "1 records" in capsys.readouterr().out

        (telemetry / "events-h-2.jsonl").write_text("not json\n")
        assert main(["status", "--cache-dir", str(tmp_path),
                     "--validate"]) == 1
        assert "TELEMETRY VIOLATION" in capsys.readouterr().out


class TestTwoWorkerTelemetryAcceptance:
    """A traced 2-worker sweep of the golden grid, checked end to end."""

    def test_two_worker_sweep_is_traced_and_byte_identical(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.analysis.reporting import golden_spec

        cache_dir = tmp_path / "cache"
        env = dict(os.environ)
        env["PYTHONPATH"] = (str(_REPO_ROOT / "src") + os.pathsep
                             + env.get("PYTHONPATH", ""))
        env["REPRO_TELEMETRY"] = "1"
        env.pop("REPRO_TELEMETRY_DIR", None)
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--preset", "fig10",
             "--scale", "0.1", "--workers", "2", "--cache-dir", str(cache_dir)],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=600)
        assert completed.returncode == 0, completed.stdout + completed.stderr

        # 1. Schema-valid event log whose span tree covers every cell.
        telemetry_dir = cache_dir / "telemetry"
        count, problems = validate_events_dir(telemetry_dir)
        assert problems == [], "\n".join(problems)
        assert count > 0
        events = read_events(telemetry_dir)
        assert cell_coverage(events) == {
            (c.platform, c.workload, c.override_set.label)
            for c in golden_spec().cells()}
        # The parent's sweep span and the pool workers' cell spans.
        assert len({e["worker"] for e in events}) >= 2

        # 2. repro status reports the manifest complete.
        assert main(["status", "--cache-dir", str(cache_dir),
                     "--validate"]) == 0
        status_out = capsys.readouterr().out
        assert "state: complete" in status_out
        assert "0 schema violation(s)" in status_out

        # 3. Report CSVs byte-identical to the goldens, with the timeline
        #    artifacts tucked into telemetry/.
        out_dir = tmp_path / "report"
        assert main(["report", str(cache_dir / "manifest.json"), "--out",
                     str(out_dir), "--check", "--no-plots", "--no-html"]) == 0
        assert "golden gate passed" in capsys.readouterr().out
        assert (out_dir / "telemetry" / "spans.csv").stat().st_size > 0
        assert (out_dir / "telemetry" / "timeline.html").stat().st_size > 0
