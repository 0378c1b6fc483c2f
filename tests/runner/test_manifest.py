"""Run manifests: round-trip, failure recording, resume, and merge checks."""

import json
import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import (
    MANIFEST_SCHEMA,
    ManifestError,
    MergeError,
    ResultCache,
    RunManifest,
    SweepExecutionError,
    SweepRunner,
    SweepSpec,
    merge_manifests,
    resume_sweep,
    run_sweep,
)


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


def _run_with_manifest(tmp_path, spec=None, name="manifest.json", workers=1):
    spec = spec or _small_spec()
    manifest_path = tmp_path / name
    result = SweepRunner(workers=workers, cache=tmp_path).run(
        spec, manifest_path=manifest_path)
    return spec, manifest_path, result


class TestManifestRoundTrip:
    def test_written_manifest_loads_back(self, tmp_path):
        spec, path, _ = _run_with_manifest(tmp_path)
        manifest = RunManifest.load(path)
        assert manifest.spec_fingerprint == spec.fingerprint()
        assert manifest.shard_index == 0 and manifest.shard_count == 1
        assert manifest.counts() == {"ok": len(spec), "failed": 0, "pending": 0}
        assert manifest.elapsed_seconds > 0.0
        assert {cell.cache_key for cell in manifest.cells} == \
            {cell.cache_key() for cell in spec.cells()}

    def test_schema_field_is_versioned(self, tmp_path):
        _, path, _ = _run_with_manifest(tmp_path)
        payload = json.loads(path.read_text())
        assert payload["schema"] == MANIFEST_SCHEMA
        assert payload["shard"] == {"index": 0, "count": 1}

    def test_spec_reconstruction_is_exact(self, tmp_path):
        spec = _small_spec(
            overrides={"reg16": {"register_cache.registers_per_plane": 16}},
            seed=7,
        )
        _, path, _ = _run_with_manifest(tmp_path, spec=spec)
        rebuilt = RunManifest.load(path).spec()
        assert rebuilt == spec
        assert rebuilt.fingerprint() == spec.fingerprint()
        assert [c.cache_key() for c in rebuilt.cells()] == \
            [c.cache_key() for c in spec.cells()]

    def test_base_config_survives_round_trip(self, tmp_path):
        from repro.config import default_config
        from repro.runner import apply_overrides

        base = apply_overrides(default_config(), {"znand.channels": 32})
        spec = _small_spec(platforms=["ZnG"], workloads=["bfs1"], base_config=base)
        _, path, _ = _run_with_manifest(tmp_path, spec=spec)
        rebuilt = RunManifest.load(path).spec()
        assert rebuilt.base_config == base
        assert rebuilt.cells()[0].cache_key() == spec.cells()[0].cache_key()

    def test_sharded_manifest_records_coordinates(self, tmp_path):
        spec = _small_spec()
        path = tmp_path / "m.json"
        SweepRunner(workers=1, cache=tmp_path).run(
            spec.shard(1, 3), manifest_path=path)
        manifest = RunManifest.load(path)
        assert (manifest.shard_index, manifest.shard_count) == (1, 3)
        assert len(manifest.cells) == len(spec.shard(1, 3))

    def test_load_rejects_garbage_and_wrong_schema(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ManifestError):
            RunManifest.load(bad)
        bad.write_text(json.dumps({"schema": "repro-run-manifest-v0"}))
        with pytest.raises(ManifestError):
            RunManifest.load(bad)
        with pytest.raises(ManifestError):
            RunManifest.load(tmp_path / "nope.json")

    def test_manifest_with_a_dispatch_block_loads_merges_and_reports(
            self, tmp_path):
        """Manifests written by the retired lease queue carry a ``dispatch``
        provenance block under the same schema; they stay readable."""
        from repro.analysis.reporting import report_from_manifests

        spec, path, result = _run_with_manifest(tmp_path)
        payload = json.loads(path.read_text())
        payload["dispatch"] = {
            "schema": "repro-dispatch-v1",
            "queue": str(tmp_path / "dispatch" / spec.fingerprint()[:16]),
            "workers": ["survivor-1", "survivor-2"],
            "executed": len(spec),
            "cache_served": 0,
            "failed": 0,
            "stolen_leases": 1,
        }
        path.write_text(json.dumps(payload))

        manifest = RunManifest.load(path)
        assert manifest.counts()["ok"] == len(spec)
        assert "dispatch" not in manifest.to_payload()
        assert merge_manifests([path]).stats_dicts() == result.stats_dicts()
        written = report_from_manifests([path], tmp_path / "report", plots=False)
        assert "fig10.csv" in written
        assert "stolen lease" not in written["report.html"].read_text()

    def test_worker_fields_round_trip(self, tmp_path):
        _, path, _ = _run_with_manifest(tmp_path)
        manifest = RunManifest.load(path)
        assert all(cell.worker_pid == os.getpid() for cell in manifest.cells)
        assert all(0.0 <= cell.start_seconds <= manifest.elapsed_seconds
                   for cell in manifest.cells)
        copy = tmp_path / "copy.json"
        manifest.write(copy)
        assert RunManifest.load(copy).cells == manifest.cells

    def test_cache_served_cells_record_no_worker(self, tmp_path):
        spec, _, _ = _run_with_manifest(tmp_path)
        _, path, _ = _run_with_manifest(tmp_path, spec=spec, name="again.json")
        manifest = RunManifest.load(path)
        assert all(cell.from_cache for cell in manifest.cells)
        assert {(c.start_seconds, c.worker_pid) for c in manifest.cells} == {(None, None)}

    def test_load_rejects_a_malformed_worker_pid(self, tmp_path):
        _, path, _ = _run_with_manifest(tmp_path)
        payload = json.loads(path.read_text())
        payload["cells"][0]["worker_pid"] = "worker-1"
        path.write_text(json.dumps(payload))
        with pytest.raises(ManifestError, match="malformed manifest cell"):
            RunManifest.load(path)

    def test_manifest_without_worker_fields_loads_merges_and_reports(
            self, tmp_path):
        """Manifests written before cells recorded their start and worker
        pid stay readable; their cells draw no timeline bar."""
        from repro.analysis.reporting import report_from_manifests

        spec, path, result = _run_with_manifest(tmp_path)
        payload = json.loads(path.read_text())
        for cell in payload["cells"]:
            del cell["start_seconds"], cell["worker_pid"]
        path.write_text(json.dumps(payload))

        manifest = RunManifest.load(path)
        assert manifest.counts()["ok"] == len(spec)
        assert {(c.start_seconds, c.worker_pid) for c in manifest.cells} == {(None, None)}
        assert merge_manifests([path]).stats_dicts() == result.stats_dicts()
        written = report_from_manifests([path], tmp_path / "report", plots=False)
        assert "fig10.csv" in written
        timeline = written["timeline.html"].read_text()
        assert "class='cell'" not in timeline and "class='lane'" not in timeline


class TestFailureRecording:
    def _broken_execute(self, monkeypatch, broken_platform="ZnG-base"):
        from repro.platforms.base import GPUSSDPlatform
        from repro.runner import runner as runner_module

        real = GPUSSDPlatform.execute

        def explode(name, trace, config=None):
            if name == broken_platform:
                raise RuntimeError(f"injected failure for {name}")
            return real(name, trace, config)

        monkeypatch.setattr(
            runner_module.GPUSSDPlatform, "execute", staticmethod(explode))

    def test_record_mode_keeps_sweeping(self, tmp_path, monkeypatch):
        self._broken_execute(monkeypatch)
        spec = _small_spec()
        path = tmp_path / "manifest.json"
        result = SweepRunner(workers=1, cache=tmp_path).run(
            spec, manifest_path=path, on_error="record")
        assert len(result.failed) == 2  # ZnG-base x 2 workloads
        assert len(result) == len(spec) - 2
        assert all("injected failure" in failure.error for failure in result.failed)
        manifest = RunManifest.load(path)
        assert manifest.counts() == {"ok": 2, "failed": 2, "pending": 0}
        failed = [cell for cell in manifest.cells if cell.status == "failed"]
        assert all(cell.platform == "ZnG-base" for cell in failed)
        assert all(cell.error and "injected failure" in cell.error
                   for cell in failed)

    def test_a_failed_cell_records_its_worker(self, tmp_path, monkeypatch):
        self._broken_execute(monkeypatch)
        path = tmp_path / "manifest.json"
        SweepRunner(workers=1, cache=tmp_path).run(
            _small_spec(), manifest_path=path, on_error="record")
        failed = [c for c in RunManifest.load(path).cells if c.status == "failed"]
        assert failed and all(c.worker_pid == os.getpid() for c in failed)
        assert all(c.start_seconds is not None and c.start_seconds >= 0.0 for c in failed)

    def test_raise_mode_raises_with_manifest_written(self, tmp_path, monkeypatch):
        self._broken_execute(monkeypatch)
        path = tmp_path / "manifest.json"
        with pytest.raises(SweepExecutionError):
            SweepRunner(workers=1, cache=tmp_path).run(
                _small_spec(), manifest_path=path, on_error="raise")
        manifest = RunManifest.load(path)
        assert manifest.counts()["failed"] >= 1

    def test_resume_after_failure_completes_the_sweep(self, tmp_path, monkeypatch):
        self._broken_execute(monkeypatch)
        spec = _small_spec()
        path = tmp_path / "manifest.json"
        SweepRunner(workers=1, cache=tmp_path).run(
            spec, manifest_path=path, on_error="record")
        monkeypatch.undo()

        resumed = resume_sweep(path, workers=1)
        assert resumed.cache_hits == 2 and resumed.cache_misses == 2
        assert not resumed.failed and len(resumed) == len(spec)
        assert RunManifest.load(path).counts()["ok"] == len(spec)
        assert resumed.stats_dicts() == run_sweep(spec, workers=1).stats_dicts()

    def test_bad_on_error_value_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            SweepRunner(workers=1).run(_small_spec(), on_error="ignore")


class TestResumeAfterKill:
    def test_resume_executes_only_missing_cells(self, tmp_path):
        """Acceptance: after a simulated mid-sweep kill (some cells ok and
        cached, the rest still pending with no cache entry), --resume
        executes exactly the missing cells and reproduces the full sweep."""
        spec = _small_spec()
        path = tmp_path / "manifest.json"
        full = SweepRunner(workers=1, cache=tmp_path).run(spec, manifest_path=path)

        # Rewind two cells to the pre-completion state a SIGKILL leaves.
        manifest = RunManifest.load(path)
        cache = ResultCache(tmp_path)
        killed = manifest.cells[:2]
        for cell in killed:
            cell.status = "pending"
            cache.path_for(cell.cache_key).unlink()
        manifest.write()

        resumed = resume_sweep(path, workers=1)
        assert resumed.cache_misses == 2
        assert resumed.cache_hits == len(spec) - 2
        assert resumed.stats_dicts() == full.stats_dicts()
        assert RunManifest.load(path).counts()["ok"] == len(spec)

    def test_resume_keeps_the_records_of_cells_finished_before_the_kill(
            self, tmp_path):
        """The cells a killed run finished keep that run's record across the
        resume, so the merged timings and the timeline still cover them."""
        from repro.analysis.reporting import report_from_manifests

        spec = _small_spec()
        path = tmp_path / "manifest.json"
        SweepRunner(workers=1, cache=tmp_path).run(spec, manifest_path=path)
        # Hand-build what the kill left: two cells ok with the earlier run's
        # record, two pending with no cache entry.
        manifest = RunManifest.load(path)
        finished, killed = manifest.cells[:2], manifest.cells[2:]
        for offset, cell in enumerate(finished):
            cell.timings = {"trace_build_seconds": 0.25, "simulate_seconds": 2.0}
            cell.elapsed_seconds = 2.25
            cell.start_seconds = 2.25 * offset
            cell.worker_pid = 4242
        for cell in killed:
            cell.status = "pending"
            ResultCache(tmp_path).path_for(cell.cache_key).unlink()
        manifest.write()
        before = {cell.cache_key: cell.to_payload() for cell in finished}

        resumed = resume_sweep(path, workers=1)
        assert resumed.cache_hits == 2 and resumed.cache_misses == 2
        after = RunManifest.load(path)
        assert after.counts()["ok"] == len(spec)
        for key, payload in before.items():
            assert after._by_key[key].to_payload() == payload
        executed = [after._by_key[cell.cache_key] for cell in killed]
        assert all(not cell.from_cache and cell.worker_pid == os.getpid()
                   for cell in executed)

        merged = merge_manifests([path])
        assert merged.cache_hits == 0
        assert merged.simulate_seconds == pytest.approx(
            4.0 + sum(cell.timings["simulate_seconds"] for cell in executed))
        written = report_from_manifests([path], tmp_path / "report", plots=False)
        timeline = written["timeline.html"].read_text()
        assert timeline.count("class='cell'") == len(spec)
        assert ">pid 4242</text>" in timeline

    def test_resume_respects_shard_coordinates(self, tmp_path):
        spec = _small_spec()
        path = tmp_path / "manifest.json"
        SweepRunner(workers=1, cache=tmp_path).run(spec.shard(0, 2),
                                                   manifest_path=path)
        resumed = resume_sweep(path, workers=1)
        assert resumed.shard_index == 0 and resumed.shard_count == 2
        assert len(resumed) == len(spec.shard(0, 2))
        assert resumed.cache_hits == len(resumed)

    def test_resume_finds_cache_next_to_manifest(self, tmp_path):
        """A manifest moved with its cache (artifact download) still resumes:
        the recorded cache_dir is stale but the manifest's directory wins."""
        spec = _small_spec(platforms=["ZnG"], workloads=["bfs1"])
        original = tmp_path / "original"
        _, path, _ = _run_with_manifest(original, spec=spec)
        moved = tmp_path / "downloaded"
        original.rename(moved)
        resumed = resume_sweep(moved / "manifest.json", workers=1)
        assert resumed.cache_hits == len(resumed)


class TestAnyKillPoint:
    """The kill drill's invariants over every point a kill can land on.

    A SIGKILL leaves some cells ``pending`` with no cache entry and the rest
    ``ok`` and cached.  Whichever cells it caught: merge refuses the partial
    manifest, resume runs exactly the lost cells (no cell is lost, no
    finished cell runs twice), and the resumed grid equals the full run.
    """

    @pytest.fixture(scope="class")
    def finished(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("finished")
        _, _, result = _run_with_manifest(root)
        return root, result.stats_dicts()

    @staticmethod
    def _killed_copy(finished, tmp_path_factory, lost, drop_cache=True):
        """A copy of the finished sweep; resume it with ``cache=`` its own
        directory, or it would fall back to the original's cache."""
        root = tmp_path_factory.mktemp("killed") / "cache"
        shutil.copytree(finished[0], root)
        path = root / "manifest.json"
        manifest = RunManifest.load(path)
        for index in lost:
            manifest.cells[index].status = "pending"
            if drop_cache:
                ResultCache(root).path_for(
                    manifest.cells[index].cache_key).unlink()
        manifest.write()
        return path

    @settings(max_examples=10, deadline=None)
    @given(lost=st.sets(st.integers(0, len(_small_spec()) - 1)))
    def test_resume_reruns_exactly_the_lost_cells(
            self, finished, tmp_path_factory, lost):
        path = self._killed_copy(finished, tmp_path_factory, lost)
        resumed = resume_sweep(path, workers=1, cache=path.parent)
        assert resumed.cache_misses == len(lost)
        assert resumed.stats_dicts() == finished[1]
        counts = RunManifest.load(path).counts()
        assert counts["ok"] == len(_small_spec()) and counts["pending"] == 0

    @settings(max_examples=20, deadline=None)
    @given(lost=st.sets(st.integers(0, len(_small_spec()) - 1), min_size=1),
           drop_cache=st.booleans())
    def test_merge_refuses_every_partial_manifest(
            self, finished, tmp_path_factory, lost, drop_cache):
        path = self._killed_copy(finished, tmp_path_factory, lost, drop_cache)
        with pytest.raises(MergeError, match="status 'pending'"):
            merge_manifests([path])

    def test_resume_of_a_finished_sweep_runs_nothing(self, finished,
                                                     tmp_path_factory):
        path = self._killed_copy(finished, tmp_path_factory, lost=())
        before = [(c.cache_key, c.status) for c in RunManifest.load(path).cells]
        resumed = resume_sweep(path, workers=1, cache=path.parent)
        assert resumed.cache_misses == 0
        assert resumed.stats_dicts() == finished[1]
        assert [(c.cache_key, c.status)
                for c in RunManifest.load(path).cells] == before


class TestMergeVerification:
    def _sharded_run(self, tmp_path, count=3, spec=None):
        spec = spec or _small_spec()
        paths = []
        for index in range(count):
            root = tmp_path / f"shard{index}"
            SweepRunner(workers=1, cache=root).run(
                spec.shard(index, count), manifest_path=root / "manifest.json")
            paths.append(root / "manifest.json")
        return spec, paths

    def test_withheld_shard_fails_loudly(self, tmp_path):
        _, paths = self._sharded_run(tmp_path)
        with pytest.raises(MergeError, match="unaccounted"):
            merge_manifests(paths[:2])

    def test_duplicated_shard_fails(self, tmp_path):
        _, paths = self._sharded_run(tmp_path)
        with pytest.raises(MergeError, match="twice"):
            merge_manifests(paths + [paths[0]])

    def test_mismatched_fingerprints_fail(self, tmp_path):
        _, paths_a = self._sharded_run(tmp_path / "a", count=2)
        spec_b = _small_spec(seed=99)
        _, paths_b = self._sharded_run(tmp_path / "b", count=2, spec=spec_b)
        with pytest.raises(MergeError, match="fingerprint"):
            merge_manifests([paths_a[0], paths_b[1]])

    def test_pending_cell_fails(self, tmp_path):
        _, paths = self._sharded_run(tmp_path)
        manifest = RunManifest.load(paths[1])
        manifest.cells[0].status = "pending"
        manifest.write()
        with pytest.raises(MergeError, match="status 'pending'"):
            merge_manifests(paths)

    def test_missing_cache_entry_fails(self, tmp_path):
        _, paths = self._sharded_run(tmp_path)
        manifest = RunManifest.load(paths[0])
        ResultCache(paths[0].parent).path_for(
            manifest.cells[0].cache_key).unlink()
        with pytest.raises(MergeError, match="missing or corrupt"):
            merge_manifests(paths)

    def test_merge_of_unsharded_manifest_validates_a_full_run(self, tmp_path):
        spec, path, result = _run_with_manifest(tmp_path)
        merged = merge_manifests([path])
        assert merged.stats_dicts() == result.stats_dicts()
        assert merged.merged_shards == 1

    def test_no_manifests_rejected(self):
        with pytest.raises(MergeError):
            merge_manifests([])

    def test_merged_result_aggregates_shards(self, tmp_path):
        spec, paths = self._sharded_run(tmp_path)
        merged = merge_manifests(paths)
        assert merged.merged_shards == 3
        assert merged.shard_count is None
        assert merged.elapsed_seconds == pytest.approx(
            sum(RunManifest.load(path).elapsed_seconds for path in paths))
        # Cold shard runs executed every cell: the merge must report the
        # shards' real executed counts and timings, not read as a sweep of
        # cache hits.
        assert not any(run.from_cache for run in merged)
        assert merged.cache_hits == 0 and merged.cache_misses == len(spec)
        assert merged.simulate_seconds > 0.0

    def test_merge_preserves_shard_cache_accounting(self, tmp_path):
        """Re-running a shard warm then merging reports those cells as
        cache-served, executed ones as executed."""
        spec, paths = self._sharded_run(tmp_path, count=2)
        # Re-run shard 0 fully warm so its manifest records cache hits (a
        # fresh run; a resume would keep the executed records).
        SweepRunner(workers=1, cache=paths[0].parent).run(
            spec.shard(0, 2), manifest_path=paths[0])
        merged = merge_manifests(paths)
        warm = len(spec.shard(0, 2))
        assert merged.cache_hits == warm
        executed = sum(1 for run in merged if not run.from_cache)
        assert executed == len(spec) - warm


class TestManifestIsWrittenIncrementally:
    def test_manifest_exists_with_pending_cells_before_execution(self, tmp_path, monkeypatch):
        """The all-pending manifest must hit disk before the first cell runs,
        or a kill during the first cell would leave nothing to resume."""
        from repro.platforms.base import GPUSSDPlatform
        from repro.runner import runner as runner_module

        path = tmp_path / "manifest.json"
        seen = {}

        real = GPUSSDPlatform.execute

        def spy(name, trace, config=None):
            if "counts" not in seen:
                seen["counts"] = RunManifest.load(path).counts()
            return real(name, trace, config)

        monkeypatch.setattr(
            runner_module.GPUSSDPlatform, "execute", staticmethod(spy))
        spec = _small_spec()
        SweepRunner(workers=1, cache=tmp_path).run(spec, manifest_path=path)
        assert seen["counts"]["pending"] == len(spec)
