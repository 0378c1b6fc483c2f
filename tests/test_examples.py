"""Smoke-run every example script (the examples-coverage satellite).

Each script under ``examples/`` runs in a subprocess from a temporary working
directory, so registry/runner refactors cannot silently break them and a
script that scribbles artifacts does so outside the repository.  The scripts
are deliberately small (seconds each); a hang fails via the timeout.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))


def test_examples_directory_is_populated():
    assert [path.name for path in EXAMPLES] == [
        "ftl_internals.py",
        "full_report.py",
        "graph_analytics.py",
        "motivation_bandwidth.py",
        "power_and_endurance.py",
        "quickstart.py",
        "report_artifacts.py",
        "sensitivity_sweep.py",
    ]


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_smoke(script, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    completed = subprocess.run(
        [sys.executable, str(script)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, (
        f"{script.name} exited {completed.returncode}\n"
        f"--- stdout ---\n{completed.stdout[-2000:]}\n"
        f"--- stderr ---\n{completed.stderr[-2000:]}")
    assert completed.stdout.strip(), f"{script.name} printed nothing"
