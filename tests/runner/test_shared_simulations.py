"""Cells with equal simulation inputs share one simulation per sweep."""

import json
import os

import pytest

from repro.platforms.base import GPUSSDPlatform
from repro.runner import (
    ResultCache,
    RunManifest,
    SweepExecutionError,
    SweepRunner,
    SweepSpec,
    resume_sweep,
)
from repro.runner import runner as runner_module
from repro.runner.spec import build_cell_trace

#: ``--set``-style points: two restate a Table I default, two ablate.  ZnG-base
#: pins its register knob, so its registers_per_plane=16 point restates its
#: default too.
POINTS = {
    "default": {},
    "registers_per_plane=8": {"register_cache.registers_per_plane": 8},
    "registers_per_plane=16": {"register_cache.registers_per_plane": 16},
    "znand.channels=16": {"znand.channels": 16},
    "znand.channels=8": {"znand.channels": 8},
}


def _spec():
    return SweepSpec.create(
        platforms=["ZnG-base", "ZnG"], workloads=["betw-back"],
        overrides=POINTS, scale=0.06, warps_per_sm=2,
        memory_instructions_per_warp=12)


def _record(result):
    return json.dumps(result.to_record(), sort_keys=True)


def _distinct(spec):
    return len({cell.simulation_key() for cell in spec.cells()})


@pytest.fixture
def executions(monkeypatch):
    """Count the cells the runner simulates in this process."""
    calls = []
    real = runner_module._execute_cell_timed

    def counting(cell):
        calls.append(cell.label)
        return real(cell)

    monkeypatch.setattr(runner_module, "_execute_cell_timed", counting)
    return calls


class TestSimulationKey:
    def test_the_label_and_spelling_do_not_enter_the_key(self):
        cells = {cell.label: cell for cell in _spec().cells()}
        default = cells["ZnG/betw-back"]
        restated = cells["ZnG/betw-back/registers_per_plane=8"]
        ablated = cells["ZnG/betw-back/registers_per_plane=16"]
        assert restated.simulation_key() == default.simulation_key()
        assert restated.cache_key() != default.cache_key()
        assert ablated.simulation_key() != default.simulation_key()
        assert _distinct(_spec()) == 5

    def test_both_keys_come_from_one_unmutated_descriptor(self):
        cell = _spec().cells()[1]
        descriptor = cell.descriptor()
        before = json.dumps(descriptor, sort_keys=True)
        cell.simulation_key()
        cell.cache_key()
        assert cell.descriptor() is descriptor
        assert json.dumps(descriptor, sort_keys=True) == before
        assert "override_label" in descriptor and "overrides" in descriptor


class TestOneSimulationPerKey:
    def test_one_simulation_runs_per_distinct_key(self, executions):
        spec = _spec()
        result = SweepRunner(workers=1).run(spec)
        assert len(result) == len(spec) == 10
        assert len(executions) == result.simulated == _distinct(spec)

    def test_every_cell_equals_its_own_execution(self):
        result = SweepRunner(workers=1).run(_spec())
        for run in result.runs:
            cell = run.cell
            alone = GPUSSDPlatform.execute(
                cell.platform, build_cell_trace(cell), cell.resolved_config())
            assert _record(run.result) == _record(alone), cell.label
        for part in ("self", "stats", "extra", "latency_breakdown"):
            objects = [run.result if part == "self" else getattr(run.result, part)
                       for run in result.runs]
            assert len({id(value) for value in objects}) == len(objects), part

    def test_serial_and_two_workers_agree(self):
        spec = _spec()
        serial = SweepRunner(workers=1).run(spec)
        parallel = SweepRunner(workers=2).run(spec)
        assert ([(run.key, _record(run.result)) for run in serial.runs]
                == [(run.key, _record(run.result)) for run in parallel.runs])
        assert serial.simulated == parallel.simulated == _distinct(spec)


class TestCacheAndManifest:
    def test_every_cell_gets_its_own_entry_and_a_warm_rerun_hits_all(
            self, tmp_path):
        spec = _spec()
        cold = SweepRunner(workers=2, cache=tmp_path).run(spec)
        cache = ResultCache(tmp_path)
        assert len(cache) == len(spec)
        for cell in spec.cells():
            entry = json.loads(cache.path_for(cell.cache_key()).read_text())
            assert entry["cell"]["override_label"] == cell.override_set.label
        warm = SweepRunner(workers=2, cache=tmp_path).run(spec)
        assert warm.cache_hits == len(spec) and warm.simulated == 0
        assert ([_record(run.result) for run in warm.runs]
                == [_record(run.result) for run in cold.runs])

    def test_a_follower_records_its_leads_worker_and_no_timings(self, tmp_path):
        spec = _spec()
        path = tmp_path / "manifest.json"
        SweepRunner(workers=1, cache=tmp_path).run(spec, manifest_path=path)
        manifest = RunManifest.load(path)
        assert manifest.counts()["ok"] == len(spec)
        by_key = {record.cache_key: record for record in manifest.cells}
        leads = {}
        for cell in spec.cells():
            record = by_key[cell.cache_key()]
            assert not record.from_cache
            lead = leads.setdefault(cell.simulation_key(), record)
            if record is lead:
                assert set(record.timings) == {
                    "trace_build_seconds", "simulate_seconds"}
                continue
            assert record.timings == {} and record.elapsed_seconds == 0.0
            assert record.start_seconds == lead.start_seconds
            assert record.worker_pid == lead.worker_pid == os.getpid()

    def test_a_resumed_run_fills_a_follower_from_its_leads_entry(
            self, tmp_path, executions):
        spec = _spec()
        path = tmp_path / "manifest.json"
        first = SweepRunner(workers=1, cache=tmp_path).run(spec, manifest_path=path)
        # A kill between the lead's and the follower's cache put leaves the
        # follower pending with no entry of its own.
        follower = next(cell for cell in spec.cells()
                        if cell.label == "ZnG/betw-back/znand.channels=16")
        ResultCache(tmp_path).path_for(follower.cache_key()).unlink()
        payload = json.loads(path.read_text())
        for record in payload["cells"]:
            if record["cache_key"] == follower.cache_key():
                record.update(status="pending", timings={}, elapsed_seconds=0.0,
                              start_seconds=None, worker_pid=None)
        path.write_text(json.dumps(payload))
        del executions[:]

        resumed = resume_sweep(path, workers=1)
        assert executions == [] and resumed.simulated == 0
        assert resumed.cache_hits == len(spec)
        assert ResultCache(tmp_path).path_for(follower.cache_key()).exists()
        assert ([_record(run.result) for run in resumed.runs]
                == [_record(run.result) for run in first.runs])
        record = RunManifest.load(path)._by_key[follower.cache_key()]
        assert record.status == "ok" and record.from_cache


class TestFailingLead:
    @pytest.fixture
    def broken(self, monkeypatch):
        real = GPUSSDPlatform.execute

        def explode(name, trace, config=None):
            if name == "ZnG-base":
                raise RuntimeError("injected failure")
            return real(name, trace, config)

        monkeypatch.setattr(
            runner_module.GPUSSDPlatform, "execute", staticmethod(explode))

    def test_record_mode_fails_every_follower(self, tmp_path, broken, executions):
        spec = _spec()
        path = tmp_path / "manifest.json"
        result = SweepRunner(workers=1, cache=tmp_path).run(
            spec, manifest_path=path, on_error="record")
        doomed = {cell.label for cell in spec.cells() if cell.platform == "ZnG-base"}
        assert {failure.label for failure in result.failed} == doomed
        errors = {}
        for failure in result.failed:
            errors.setdefault(failure.cell.simulation_key(), set()).add(failure.error)
        assert len(errors) == 2
        assert all(len(group) == 1 for group in errors.values())
        assert len(executions) == _distinct(spec)
        statuses = {record.label: record.status
                    for record in RunManifest.load(path).cells}
        assert {label for label, status in statuses.items()
                if status == "failed"} == doomed
        assert len(ResultCache(tmp_path)) == len(spec) - len(doomed)

    def test_raise_mode_fails_the_group_before_raising(self, tmp_path, broken):
        spec = _spec()
        path = tmp_path / "manifest.json"
        with pytest.raises(SweepExecutionError, match="ZnG-base/betw-back failed"):
            SweepRunner(workers=1, cache=tmp_path).run(
                spec, manifest_path=path, on_error="raise")
        lead = spec.cells()[0]
        group = {cell.cache_key() for cell in spec.cells()
                 if cell.simulation_key() == lead.simulation_key()}
        assert len(group) == 4
        failed = {record.cache_key for record in RunManifest.load(path).cells
                  if record.status == "failed"}
        assert failed == group
