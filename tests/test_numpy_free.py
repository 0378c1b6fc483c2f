"""The simulator path runs without numpy.

numpy costs every process that loads it about 14 MB of resident memory and
a fifth of a second of import.  The trace generator, the platforms and the
sweep runner do not need it; the Fig. 8b heat map, the pointer-chase
microbenchmark and the tests still import it where they use it.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

SCRIPT = textwrap.dedent("""
    import runpy
    import sys

    import repro.platforms
    import repro.runner
    import repro.workloads

    sys.argv = ["repro", "sweep", "--preset", "smoke", "--no-cache"]
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as stop:
        assert not stop.code, f"sweep exited with {stop.code!r}"
    print("numpy loaded:", "numpy" in sys.modules)
""")


def test_a_sweep_process_never_imports_numpy(tmp_path):
    completed = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=tmp_path, capture_output=True,
        text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
    assert completed.returncode == 0, completed.stderr
    lines = completed.stdout.splitlines()
    assert "4 cells in" in lines[-2]
    assert lines[-1] == "numpy loaded: False"
