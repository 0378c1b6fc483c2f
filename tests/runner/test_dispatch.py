"""Dispatch fabric: lease-queue workers, manifests, and the kill-a-worker gate.

The acceptance test at the bottom is the PR's contract: three ``repro
dispatch`` worker processes share one queue, one of them is SIGKILLed while
holding a lease it never heartbeats, the survivors steal the expired lease,
the grid completes, and the merged report CSVs are byte-identical to the
committed serial-sweep goldens in ``tests/data/report/``.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.runner import (
    DispatchError,
    DispatchWorker,
    RunManifest,
    SweepSpec,
    merge_manifests,
    run_dispatch_worker,
    run_sweep,
)
from repro.runner.dispatch import LeaseQueue

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


class TestDispatchWorker:
    def test_single_worker_completes_grid(self, tmp_path):
        spec = _small_spec()
        report = run_dispatch_worker(spec, cache=tmp_path, owner="w1")
        assert report.complete
        assert report.executed == len(spec)
        assert report.cache_served == 0 and report.stolen == 0
        assert not report.failed
        assert report.manifest_path is not None and report.manifest_path.exists()

    def test_manifest_carries_dispatch_provenance(self, tmp_path):
        spec = _small_spec()
        report = run_dispatch_worker(spec, cache=tmp_path, owner="w1")
        manifest = RunManifest.load(report.manifest_path)
        assert manifest.dispatch is not None
        assert manifest.dispatch["schema"] == "repro-dispatch-v1"
        assert manifest.dispatch["workers"] == ["w1"]
        assert manifest.dispatch["executed"] == len(spec)
        assert manifest.dispatch["stolen_leases"] == 0
        # And the block survives a round-trip through provenance().
        assert manifest.provenance()["dispatch"]["workers"] == ["w1"]

    def test_second_worker_is_idempotent(self, tmp_path):
        spec = _small_spec()
        first = run_dispatch_worker(spec, cache=tmp_path, owner="w1")
        second = run_dispatch_worker(spec, cache=tmp_path, owner="w2")
        assert second.complete
        assert second.executed == 0 and second.cache_served == 0
        # The finalized manifest is a pure function of the done markers:
        # whoever rewrites it produces identical bytes.
        assert first.manifest_path == second.manifest_path

    def test_warm_cache_is_served_without_leasing(self, tmp_path):
        spec = _small_spec()
        run_sweep(spec, workers=1, cache=tmp_path)
        report = run_dispatch_worker(spec, cache=tmp_path, owner="w1")
        assert report.complete
        assert report.executed == 0
        assert report.cache_served == len(spec)
        manifest = RunManifest.load(report.manifest_path)
        assert manifest.dispatch["cache_served"] == len(spec)
        # Cache-served commits never needed a lease: generation 0 throughout.
        queue = DispatchWorker(spec, cache=tmp_path).queue
        for cell in spec.cells():
            assert queue.done_record(cell.cache_key())["generation"] == 0

    def test_dispatch_grid_matches_serial_sweep(self, tmp_path):
        """The completed grid is bit-identical to a plain serial sweep."""
        spec = _small_spec()
        report = run_dispatch_worker(spec, cache=tmp_path / "d", owner="w1")
        merged = merge_manifests([report.manifest_path])
        serial = run_sweep(spec, workers=1, cache=False)
        for metric in ("ipc", "cycles"):
            assert merged.table(metric) == serial.table(metric)

    def test_max_cells_budget_stops_early(self, tmp_path):
        spec = _small_spec()
        report = run_dispatch_worker(
            spec, cache=tmp_path, owner="w1", max_cells=1)
        assert report.committed == 1
        assert not report.complete
        finisher = run_dispatch_worker(spec, cache=tmp_path, owner="w2")
        assert finisher.complete
        assert finisher.executed == len(spec) - 1

    def test_failed_cell_is_committed_and_reported(self, tmp_path, monkeypatch):
        import repro.runner.dispatch as dispatch_mod

        spec = _small_spec()
        real = dispatch_mod._execute_cell_timed
        doomed = min(cell.cache_key() for cell in spec.cells())

        def flaky(cell):
            if cell.cache_key() == doomed:
                raise RuntimeError("injected cell failure")
            return real(cell)

        monkeypatch.setattr(dispatch_mod, "_execute_cell_timed", flaky)
        report = run_dispatch_worker(spec, cache=tmp_path, owner="w1")
        assert report.complete  # failure is a committed outcome, not a hang
        assert len(report.failed) == 1
        manifest = RunManifest.load(report.manifest_path)
        assert manifest.counts().get("failed") == 1
        assert manifest.dispatch["failed"] == 1
        [failed_cell] = [c for c in manifest.cells if c.status == "failed"]
        assert "injected cell failure" in failed_cell.error

    def test_dispatch_requires_a_cache(self):
        with pytest.raises(DispatchError):
            DispatchWorker(_small_spec(), cache=False)

    @pytest.mark.parametrize("knob, value", [
        ("lease_ttl_seconds", float("inf")),
        ("lease_ttl_seconds", float("nan")),
        ("lease_ttl_seconds", 0.0),
        ("lease_ttl_seconds", 1e300),
        ("poll_interval_seconds", -1.0),
        ("poll_interval_seconds", 0.0),
        ("poll_interval_seconds", float("nan")),
        ("stall_after_claim_seconds", -5.0),
        ("stall_after_claim_seconds", float("nan")),
        ("stall_after_claim_seconds", float("inf")),
        ("max_cells", 0),
        ("max_cells", -3),
        ("max_cells", 1.5),
        ("max_cells", True),
    ])
    def test_bad_knob_raises_before_any_lease_is_claimed(
            self, tmp_path, knob, value):
        with pytest.raises(ValueError, match="must be a"):
            run_dispatch_worker(_small_spec(), cache=tmp_path, owner="w1",
                                **{knob: value})
        assert not list(tmp_path.rglob("leases/*"))

    def test_queue_rejects_a_different_spec(self, tmp_path):
        queue = LeaseQueue(tmp_path / "q", lease_ttl_seconds=5)
        queue.ensure(_small_spec())
        with pytest.raises(DispatchError, match="one queue dir per sweep"):
            queue.ensure(_small_spec(seed=2))


class TestStolenLease:
    def test_expired_lease_is_stolen_and_grid_completes(self, tmp_path):
        """In-process fault injection: a claimed-then-abandoned lease."""
        clock = [1000.0]
        spec = _small_spec()
        worker = DispatchWorker(
            spec, cache=tmp_path, owner="thief", lease_ttl_seconds=5,
            poll_interval_seconds=0.01, clock=lambda: clock[0])
        worker.queue.ensure(spec)
        victim_key = min(cell.cache_key() for cell in spec.cells())
        lease = worker.queue.try_claim(victim_key, "victim")
        assert lease is not None and lease.generation == 1
        clock[0] += 6.0  # the victim never heartbeats; its lease expires
        report = worker.run()
        assert report.complete
        assert report.stolen == 1
        manifest = RunManifest.load(report.manifest_path)
        assert manifest.dispatch["stolen_leases"] == 1
        assert worker.queue.done_record(victim_key)["generation"] == 2


def _dispatch_argv(cache_dir, owner, extra=()):
    return [
        sys.executable, "-m", "repro", "dispatch",
        "--preset", "fig10", "--scale", "0.1",
        "--cache-dir", str(cache_dir),
        "--lease-ttl", "3", "--poll-interval", "0.1",
        "--owner", owner,
        *extra,
    ]


def _subprocess_env():
    env = dict(os.environ)
    src = str(_REPO_ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestKillAWorkerAcceptance:
    """The PR's acceptance gate, exactly as the CI job runs it."""

    def test_sigkilled_worker_only_delays_its_cells(self, tmp_path):
        from repro.analysis.reporting import (
            compare_csv_dirs,
            default_golden_dir,
            golden_spec,
            write_report,
        )

        cache_dir = tmp_path / "cache"
        spec = golden_spec()  # CI's fig10 grid at scale 0.1 — the golden grid
        queue_root = cache_dir / "dispatch" / spec.fingerprint()[:16]
        env = _subprocess_env()

        # Worker 1 is the victim: it claims one lease, then stalls without
        # heartbeating until we SIGKILL it — a worker that died holding work.
        victim = subprocess.Popen(
            _dispatch_argv(cache_dir, "victim",
                           extra=("--stall-after-claim", "600")),
            cwd=_REPO_ROOT, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.monotonic() + 60
            leases_dir = queue_root / "leases"
            while time.monotonic() < deadline:
                if leases_dir.is_dir() and any(leases_dir.iterdir()):
                    break
                if victim.poll() is not None:
                    pytest.fail("victim worker exited before claiming a lease")
                time.sleep(0.05)
            else:
                pytest.fail("victim worker never claimed a lease")
            victim.send_signal(signal.SIGKILL)
        finally:
            if victim.poll() is None:
                victim.kill()
            victim.wait()

        # Workers 2 and 3 must steal the orphaned lease and close the grid.
        survivors = [
            subprocess.Popen(
                _dispatch_argv(cache_dir, f"survivor-{i}"),
                cwd=_REPO_ROOT, env=env,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            )
            for i in (1, 2)
        ]
        outputs = []
        for proc in survivors:
            out, _ = proc.communicate(timeout=600)
            outputs.append(out)
            assert proc.returncode == 0, f"survivor failed:\n{out}"

        manifest_path = cache_dir / "manifest.json"
        assert manifest_path.exists(), "no worker finalized the manifest"
        manifest = RunManifest.load(manifest_path)
        counts = manifest.counts()
        assert counts["ok"] == len(spec)
        assert counts.get("failed", 0) == 0 and counts.get("pending", 0) == 0
        dispatch = manifest.dispatch
        assert dispatch is not None
        assert dispatch["stolen_leases"] >= 1, (
            "the SIGKILLed worker's lease was never stolen: "
            + json.dumps(dispatch))
        # Survivors did all committed work; the victim committed nothing.
        assert set(dispatch["workers"]) <= {"survivor-1", "survivor-2"}

        # The distributed, partially-stolen run reproduces the committed
        # serial-sweep goldens byte for byte.
        merged = merge_manifests([manifest_path])
        derived = tmp_path / "derived"
        write_report(merged, derived, plots=False, html_report=False)
        drift = compare_csv_dirs(derived, default_golden_dir())
        assert not drift, "dispatch run drifted from goldens:\n" + "\n".join(drift)
