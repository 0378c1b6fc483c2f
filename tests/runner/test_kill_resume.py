"""Kill a real ``python -m repro sweep`` mid-run, then resume it.

The manifest is rewritten after every finished cell, so a sweep killed at
any point leaves ``ok`` cells (already in the result cache) and ``pending``
ones.  These drills start the golden grid (the ``fig10`` preset at scale 0.1,
2 workers) in its own process group, poll its manifest from outside, signal
the whole group once at least one cell is ``ok`` and one is ``pending``,
and require ``sweep --resume`` to finish with report CSVs byte-identical to
the committed goldens in ``tests/data/report/``.  The sweep needs no stall
or fault-injection knob: the poll (about every 1 ms) is much faster than
the manifest rewrites (about every 10 ms).
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.__main__ import main

_REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_SHM = Path("/dev/shm")
#: Fresh caches tried before giving up on catching a sweep partly done.
_ATTEMPTS = 5
#: Seconds one attempt's sweep may run before its process group is killed.
_DEADLINE_S = 120


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(_REPO_ROOT / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    env.pop("REPRO_CACHE_DIR", None)
    return env


def _repro(*args):
    return [sys.executable, "-m", "repro", *args]


def _counts(manifest):
    """Cell counts by status, or ``{}`` before the manifest exists."""
    try:
        cells = json.loads(manifest.read_text())["cells"]
    except (OSError, ValueError, KeyError):
        return {}
    counts = {}
    for cell in cells:
        counts[cell["status"]] = counts.get(cell["status"], 0) + 1
    return counts


def _signal_mid_sweep(tmp_path, signum):
    """Signal the golden sweep's process group once it is partly done.

    Returns ``(manifest, returncode, stdout, stderr)`` of the first attempt
    whose manifest was left with ``ok`` and ``pending`` cells.  A sweep that
    finished before the signal landed is retried with a fresh cache.
    """
    for attempt in range(_ATTEMPTS):
        cache_dir = tmp_path / f"cache-{attempt}"
        manifest = cache_dir / "manifest.json"
        proc = subprocess.Popen(
            _repro("sweep", "--preset", "fig10", "--scale", "0.1",
                   "--workers", "2", "--cache-dir", str(cache_dir)),
            cwd=tmp_path, env=_env(), start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        deadline = time.monotonic() + _DEADLINE_S
        try:
            while proc.poll() is None:
                if time.monotonic() > deadline:
                    pytest.fail(f"the sweep still ran after {_DEADLINE_S} s; "
                                f"its process group is killed")
                counts = _counts(manifest)
                if counts.get("ok", 0) >= 1 and counts.get("pending", 0) >= 1:
                    os.killpg(proc.pid, signum)
                    break
                time.sleep(0.001)
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if _counts(manifest).get("pending", 0) >= 1:
            return manifest, proc.returncode, out, err
    pytest.fail(f"no attempt in {_ATTEMPTS} signalled a partly done sweep")


def _resume_and_check_goldens(tmp_path, manifest, capsys):
    """``merge`` refuses the partial manifest; ``--resume`` restores the goldens."""
    capsys.readouterr()
    assert main(["merge", str(manifest)]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and "status 'pending'" in lines[0], lines

    resumed = subprocess.run(
        _repro("sweep", "--resume", str(manifest), "--workers", "2"),
        cwd=tmp_path, env=_env(), capture_output=True, text=True, timeout=300)
    assert resumed.returncode == 0, resumed.stdout + resumed.stderr
    # No traceback, and no resource-tracker warning about leaked segments.
    assert resumed.stderr == ""

    assert main(["report", str(manifest), "--out", str(tmp_path / "report"),
                 "--check", "--no-plots", "--no-html"]) == 0
    assert "golden gate passed" in capsys.readouterr().out


class TestKillAndResume:
    def test_sigkill_mid_sweep_resumes_to_the_goldens(self, tmp_path, capsys):
        segments_before = set(_SHM.glob("repro_trace_*"))
        manifest, returncode, _, _ = _signal_mid_sweep(tmp_path, signal.SIGKILL)
        assert returncode == -signal.SIGKILL
        _resume_and_check_goldens(tmp_path, manifest, capsys)
        # The killed run's trace segments died with its resource tracker;
        # the resume adopts them under the same names and unlinks them.
        assert set(_SHM.glob("repro_trace_*")) <= segments_before

    def test_ctrl_c_exits_130_with_one_line_and_resumes(self, tmp_path, capsys):
        manifest, returncode, out, err = _signal_mid_sweep(tmp_path, signal.SIGINT)
        assert returncode == 130
        assert out == ""
        assert err.splitlines() == [
            f"interrupted; finish the sweep with: python -m repro sweep "
            f"--resume {manifest}"]
        _resume_and_check_goldens(tmp_path, manifest, capsys)


def test_pool_workers_leave_trace_segments_to_the_parent(tmp_path):
    """Forked pool workers share the parent's resource tracker; three
    parallel sweeps in one process must not make it print ``KeyError``s
    for segments a worker unregistered behind the parent's back."""
    script = (
        "from repro.configspace import get_preset\n"
        "from repro.runner import run_sweep\n"
        "for scale in (0.05, 0.06, 0.07):\n"
        "    run_sweep(get_preset('fig10').spec(scale=scale, warps_per_sm=2),"
        " workers=2)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, env=_env(),
        capture_output=True, text=True, timeout=300)
    assert completed.returncode == 0, completed.stderr
    assert "KeyError" not in completed.stderr, completed.stderr
    assert "Traceback" not in completed.stderr, completed.stderr
