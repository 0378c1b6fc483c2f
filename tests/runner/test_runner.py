"""Tests for the sweep orchestrator: parallel equivalence and memoization."""

import os
import pickle

import pytest

from repro.runner import ResultCache, SweepRunner, SweepSpec, run_sweep


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


class TestSerialParallelEquivalence:
    def test_parallel_stats_bit_identical_to_serial(self):
        spec = _small_spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=4)
        assert len(serial) == len(parallel) == 4
        # Bit-identical statistics dictionaries, not just close IPC.
        assert serial.stats_dicts() == parallel.stats_dicts()
        assert serial.table("ipc") == parallel.table("ipc")
        assert serial.table("cycles") == parallel.table("cycles")

    def test_rerun_reproduces_exactly(self):
        spec = _small_spec()
        assert run_sweep(spec).stats_dicts() == run_sweep(spec).stats_dicts()

    def test_cells_and_results_are_picklable(self):
        spec = _small_spec()
        cell = spec.cells()[0]
        assert pickle.loads(pickle.dumps(cell)) == cell
        result = run_sweep(_small_spec(platforms=["ZnG-base"], workloads=["bfs1"]))
        run = result.runs[0]
        clone = pickle.loads(pickle.dumps(run.result))
        assert clone.stats.as_dict() == run.result.stats.as_dict()


class TestMemoization:
    def test_second_run_served_from_cache(self, tmp_path):
        spec = _small_spec()
        first = SweepRunner(workers=2, cache=tmp_path).run(spec)
        assert first.cache_hits == 0 and first.cache_misses == len(spec)

        second = SweepRunner(workers=2, cache=tmp_path).run(spec)
        assert second.cache_misses == 0
        assert second.cache_hits == len(spec)
        assert second.stats_dicts() == first.stats_dicts()

    def test_ablation_rerun_is_incremental(self, tmp_path):
        base = _small_spec(platforms=["ZnG-base"])
        SweepRunner(cache=tmp_path).run(base)
        # Adding a platform re-runs only the new cells.
        extended = _small_spec(platforms=["ZnG-base", "ZnG"])
        rerun = SweepRunner(cache=tmp_path).run(extended)
        assert rerun.cache_hits == len(base)
        assert rerun.cache_misses == len(extended) - len(base)

    def test_config_override_misses_cache(self, tmp_path):
        spec = _small_spec(platforms=["ZnG"], workloads=["betw-back"])
        SweepRunner(cache=tmp_path).run(spec)
        ablated = _small_spec(
            platforms=["ZnG"],
            workloads=["betw-back"],
            overrides={"reg16": {"register_cache.registers_per_plane": 16}},
        )
        result = SweepRunner(cache=tmp_path).run(ablated)
        assert result.cache_hits == 0

    def test_cache_disabled_never_touches_disk(self, tmp_path):
        runner = SweepRunner(workers=1, cache=False)
        runner.run(_small_spec(platforms=["ZnG-base"], workloads=["bfs1"]))
        assert runner.cache is None
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_entry_recomputed_in_sweep(self, tmp_path):
        spec = _small_spec(platforms=["ZnG-base"], workloads=["bfs1"])
        first = SweepRunner(cache=tmp_path).run(spec)
        cache = ResultCache(tmp_path)
        entry = next(cache.root.glob("*/*.json"))
        entry.write_text("not json at all {")

        recovered = SweepRunner(cache=tmp_path).run(spec)
        assert recovered.cache_hits == 0 and recovered.cache_misses == 1
        assert recovered.stats_dicts() == first.stats_dicts()
        # ...and the repaired entry hits again afterwards.
        third = SweepRunner(cache=tmp_path).run(spec)
        assert third.cache_hits == len(spec)


class TestWorkerCount:
    @pytest.mark.parametrize("workers", [0, -1, 1.5, True])
    def test_rejects_a_bad_worker_count(self, workers):
        with pytest.raises(ValueError, match="workers must be an int >= 1"):
            SweepRunner(workers=workers)

    @pytest.mark.parametrize("workers", [
        0, -1, 1.5, True, float("nan"), float("inf"), "2", None])
    def test_bad_worker_count_raises_before_anything_is_written(
            self, tmp_path, workers):
        with pytest.raises(ValueError, match="workers must be an int >= 1"):
            SweepRunner(workers=workers, cache=tmp_path / "cache").run(
                _small_spec(), manifest_path=tmp_path / "manifest.json")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("on_error", ["ignore", "RECORD", None])
    def test_bad_on_error_raises_before_the_manifest_is_written(
            self, tmp_path, on_error):
        runner = SweepRunner(workers=1, cache=tmp_path / "cache")
        with pytest.raises(ValueError, match="on_error must be"):
            runner.run(_small_spec(), manifest_path=tmp_path / "manifest.json",
                       on_error=on_error)
        assert not (tmp_path / "manifest.json").exists()
        assert not any(runner.cache.root.rglob("*.json"))

    def test_keeps_a_valid_worker_count(self):
        assert SweepRunner(workers=3).workers == 3


class TestSweepResultAccessors:
    def test_get_and_table(self):
        result = run_sweep(_small_spec())
        assert result.get("ZnG", "betw-back") is not None
        assert result.get("ZnG", "nope") is None
        table = result.table("ipc")
        assert set(table) == {"betw-back", "bfs1"}
        assert set(table["bfs1"]) == {"ZnG-base", "ZnG"}

    def test_serial_cells_run_here_one_after_another(self, tmp_path):
        from repro.runner import RunManifest

        path = tmp_path / "manifest.json"
        SweepRunner(workers=1, cache=None).run(_small_spec(), manifest_path=path)
        cells = sorted(RunManifest.load(path).cells, key=lambda c: c.start_seconds)
        assert {cell.worker_pid for cell in cells} == {os.getpid()}
        for before, after in zip(cells, cells[1:]):
            assert before.start_seconds + before.elapsed_seconds <= after.start_seconds

    def test_every_record_names_its_cell(self):
        """A mix keeps its read half's spec and a parametric token its
        family's; the record still carries the cell's token."""
        spec = _small_spec(workloads=["bfs1", "betw-back", "kv-lookup:get_ratio=0.3"])
        result = run_sweep(spec)
        assert [run.result.workload for run in result] == [
            run.cell.workload for run in result]
        assert {run.result.workload for run in result} == set(spec.workloads)


class TestParallelSpeedup:
    def test_four_workers_beat_serial(self):
        import time

        spec = SweepSpec.create(
            platforms=["ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG"],
            workloads=["betw-back", "bfs1-gaus", "pr-gaus"],
            scale=0.15,
            warps_per_sm=4,
        )
        start = time.perf_counter()
        serial = run_sweep(spec, workers=1)
        serial_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        parallel = run_sweep(spec, workers=4)
        parallel_elapsed = time.perf_counter() - start
        assert serial.stats_dicts() == parallel.stats_dicts()
        # The wall-clock bound needs a core per worker to mean anything.
        if (os.cpu_count() or 1) >= 4:
            assert parallel_elapsed <= 0.6 * serial_elapsed


class TestCellFailureDiscardsPool:
    def test_raise_mode_terminates_pool_so_no_ghost_work_survives(self, monkeypatch):
        """Raising out of a parallel sweep abandons the result iterator with
        cells still queued; the pool must be discarded (terminating them),
        not left cached, or ghost simulations keep burning the workers."""
        from repro.runner import SweepExecutionError, shutdown_worker_pools
        from repro.runner import runner as runner_module

        def explode(name, trace, config=None):
            raise RuntimeError("injected cell failure")

        monkeypatch.setattr(
            runner_module.GPUSSDPlatform, "execute", staticmethod(explode))
        # A pool forked before the patch would not see it — start fresh.
        shutdown_worker_pools()
        runner = SweepRunner(workers=2, cache=False)
        try:
            with pytest.raises(SweepExecutionError):
                runner.run(_small_spec())
            assert runner_module._POOLS.get(2) is None
        finally:
            shutdown_worker_pools()


class TestSharedPoolRecovery:
    def test_dead_pool_is_replaced_not_cached(self):
        """A broken shared pool must be discarded after a failed dispatch so
        later sweeps recover with a fresh fork instead of failing forever."""
        from repro.runner import runner as runner_module
        from repro.runner import shutdown_worker_pools

        spec = _small_spec()
        runner = SweepRunner(workers=2, cache=False)
        try:
            assert len(runner.run(spec)) == len(spec)
            dead = runner_module._POOLS[2]
            dead.terminate()
            dead.join()
            with pytest.raises(Exception):
                runner.run(spec)
            assert runner_module._POOLS.get(2) is not dead
            recovered = runner.run(spec)
            assert len(recovered) == len(spec)
        finally:
            shutdown_worker_pools()
