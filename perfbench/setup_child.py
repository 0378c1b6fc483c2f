"""One timed set-up of a benchmark workload, in a fresh process.

Run by ``perfbench/run.py``, which reports the median of several.  Prints
``time.perf_counter()`` before and after the simulator import, spec creation
and the trace builds.  The clock is system-wide, so the caller can match the
interval with its host-speed probe's samples.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    args = parser.parse_args()

    started = time.perf_counter()
    from perfbench.workloads import WORKLOADS

    WORKLOADS[args.workload].shrunk(args.scale).set_up(args.seed)
    print(repr(started), repr(time.perf_counter()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
