"""``repro status``: manifest snapshots of finished and partial sweeps."""

import json

from repro.__main__ import main
from repro.runner import ResultCache, RunManifest, SweepRunner, SweepSpec
from repro.runner.manifest import manifest_status, render_manifest_status


def _small_spec():
    return SweepSpec.create(
        platforms=["ZnG-base", "ZnG"], workloads=["betw-back", "bfs1"],
        scale=0.06, warps_per_sm=2, memory_instructions_per_warp=12)


def _killed_sweep(root, lost=2):
    """A finished sweep rewound to what a SIGKILL leaves: ``lost`` cells
    back to ``pending`` with their cache entries gone."""
    path = root / "manifest.json"
    SweepRunner(workers=1, cache=root).run(_small_spec(), manifest_path=path)
    manifest = RunManifest.load(path)
    for cell in manifest.cells[:lost]:
        cell.status = "pending"
        ResultCache(root).path_for(cell.cache_key).unlink()
    manifest.write()
    return path


class TestManifestStatus:
    def test_counts_by_status(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "spec_fingerprint": "a" * 64,
            "cells": [{"status": "ok"}, {"status": "ok"},
                      {"status": "pending"}, {"status": "failed"}],
        }))
        status = manifest_status(path)
        assert status["cells"] == 4 and status["pending"] == 1
        assert not status["complete"]
        text = render_manifest_status(status)
        assert "state: incomplete" in text and "ok 2" in text

    def test_unreadable_manifest(self, tmp_path):
        assert manifest_status(tmp_path / "nope.json") is None
        (tmp_path / "list.json").write_text("[]")
        assert manifest_status(tmp_path / "list.json") is None

    def test_killed_sweep_is_incomplete(self, tmp_path):
        status = manifest_status(_killed_sweep(tmp_path, lost=2))
        assert status["counts"] == {"ok": 2, "pending": 2}
        assert status["pending"] == 2 and not status["complete"]
        assert status["spec_fingerprint"] == _small_spec().fingerprint()
        text = render_manifest_status(status)
        assert "cells 4 (ok 2, pending 2)" in text
        assert "state: incomplete" in text

    def test_failed_cells_leave_nothing_pending(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "spec_fingerprint": "b" * 64,
            "cells": [{"status": "ok"}, {"status": "failed"}],
        }))
        status = manifest_status(path)
        assert status["counts"] == {"failed": 1, "ok": 1}
        assert status["complete"]
        assert "(failed 1, ok 1)" in render_manifest_status(status)

    def test_manifest_without_cells_is_not_complete(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"spec_fingerprint": "c" * 64, "cells": []}))
        status = manifest_status(path)
        assert status["cells"] == 0 and not status["complete"]


class TestStatusCommand:
    def test_lists_every_shard_manifest_in_the_cache_dir(self, tmp_path,
                                                         capsys):
        spec = _small_spec()
        for index in range(2):
            SweepRunner(workers=1, cache=tmp_path).run(
                spec.shard(index, 2),
                manifest_path=tmp_path / f"manifest.shard-{index + 1}-of-2.json")
        assert main(["status", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert out.count("state: complete") == 2
        assert "manifest.shard-1-of-2.json" in out
        assert "manifest.shard-2-of-2.json" in out

    def test_no_manifest_is_reported_not_raised(self, tmp_path, capsys):
        assert main(["status", "--cache-dir", str(tmp_path)]) == 0
        assert "no manifest*.json under" in capsys.readouterr().out

    def test_watch_polls_until_the_resume_finishes(self, tmp_path, capsys,
                                                   monkeypatch):
        import time

        from repro.runner import resume_sweep

        path = _killed_sweep(tmp_path, lost=1)
        sleeps = []

        def resume_instead_of_sleeping(seconds):
            sleeps.append(seconds)
            resume_sweep(path, workers=1)

        monkeypatch.setattr(time, "sleep", resume_instead_of_sleeping)
        assert main(["status", "--cache-dir", str(tmp_path), "--watch",
                     "--interval", "0.5"]) == 0
        assert sleeps == [0.5]
        first, second = capsys.readouterr().out.split("\n\n")
        assert "(ok 3, pending 1)" in first and "state: incomplete" in first
        assert "(ok 4)" in second and "state: complete" in second
