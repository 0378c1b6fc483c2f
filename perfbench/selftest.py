"""Self-test of the benchmark: a tiny-scale pass of every workload.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload, untraced and traced, it asserts that every metric
BENCHMARK.json names is printed with its unit, that the output checks pass,
and that the digests agree (traced with untraced, warm cache with cold).  It
also checks that the command fails, without printing a result, in a copy of
the benchmark that has no simulator sources next to it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run  # noqa: E402

TINY_SCALE = 0.04


def check_workload(name: str, spec: dict) -> None:
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run(name, seed=1, seconds=0.5, trace=trace, scale=TINY_SCALE)
        info = result.pop("info")
        assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
        assert result["correct"], (name, trace, info)
        assert result["failed"] == 0 and result["attempted"] >= 1, result
        expected = {m["name"]: m["unit"] for m in spec[kind]}
        printed = {key: metric["unit"] for key, metric in result["metrics"].items()}
        assert printed == expected, (name, kind, set(printed) ^ set(expected))
        for key, metric in result["metrics"].items():
            assert isinstance(metric["value"], (int, float)), (key, metric)
        if not trace:
            for key in ("wall_s", "setup_s", "host_us_per_access", "peak_rss_mb",
                        "ok_frac"):
                assert result["metrics"][key]["value"] > 0, (name, key)
        json.dumps(result)
        print(f"ok  {name:18s} trace={int(trace)}  {len(printed)} metrics")


def check_fails_without_sources() -> None:
    bare = Path(tempfile.mkdtemp(prefix=".perfbench-bare-", dir=ROOT))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        completed = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "kv-write",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert completed.returncode != 0, completed
    assert "{" not in completed.stdout, completed.stdout
    print("ok  exits with code", completed.returncode, "without simulator sources")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    with run.private_bytecode_cache():
        for workload in spec["workloads"]:
            check_workload(workload["name"], spec)
    check_fails_without_sources()
    return 0


if __name__ == "__main__":
    sys.exit(main())
