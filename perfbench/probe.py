"""Host-speed probe: how fast each core runs Python, sampled 100 times a second.

On a VM whose cores are shared with other tenants, each virtual core's speed
changes by up to 2x within seconds, and the two cores change independently.
CPU time tracks wall time exactly, so neither clock removes it.  A probe
process pinned to a core times a fixed half-millisecond loop, sleeps 10 ms and
repeats.  The kernel runs it between slices of whatever else runs on that
core, so the mean loop time over an interval is how slow the core was during
it.  A benchmark unit's time divided by that, times the loop's nominal time,
is the unit's time at a nominal host speed.

Run by :class:`SpeedProbe`; as a script it samples one core until its
standard input is closed, then prints one ``start seconds`` line per sample.
"""

from __future__ import annotations

import argparse
import os
import select
import subprocess
import sys
import time
from typing import Dict, Iterable, List, Sequence, Tuple

#: Loop iterations per sample: 0.4-0.8 ms on the VM the benchmark was sized on.
SAMPLE_ITERATIONS = 3000
#: Seconds the probe sleeps between samples.
SAMPLE_INTERVAL_S = 0.01
#: Seconds one sample takes at the nominal host speed: the fastest samples on
#: the 2-core VM the benchmark was sized on, so scaled times read as times on
#: an undisturbed core.  It is a fixed unit, not a knob.
NOMINAL_SAMPLE_S = 0.0004
#: Samples an interval's speed is averaged over at the least.
MIN_SAMPLES = 5
#: A probe that does not stop within this long after its input closes is killed.
STOP_TIMEOUT_S = 30


def reference_work() -> None:
    """A fixed pure-Python loop that uses nothing from the repository."""
    counts: Dict[int, int] = {}
    for i in range(SAMPLE_ITERATIONS):
        counts[i % 1000] = counts.get(i % 1000, 0) + i


class SpeedProbe:
    """One probe process per core, running while the context is open.

    Samples are read when the context closes; only then can
    :meth:`scale` be called.
    """

    def __init__(self, cores: Iterable[int]) -> None:
        self.cores = sorted(cores)
        self.samples: Dict[int, List[Tuple[float, float]]] = {}
        self._processes: Dict[int, subprocess.Popen] = {}

    def __enter__(self) -> "SpeedProbe":
        try:
            for core in self.cores:
                self._processes[core] = subprocess.Popen(
                    [sys.executable, __file__, "--core", str(core)],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        except BaseException:
            self._stop()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop()

    def _stop(self) -> None:
        processes, self._processes = self._processes, {}
        try:
            for core, process in processes.items():
                out, _ = process.communicate(timeout=STOP_TIMEOUT_S)
                if process.returncode != 0:
                    raise RuntimeError(
                        f"probe on core {core} exited with {process.returncode}")
                self.samples[core] = [tuple(map(float, line.split()))
                                      for line in out.splitlines()]
        finally:
            for process in processes.values():
                if process.poll() is None:
                    process.kill()
                process.wait()

    def scale(self, start: float, end: float, cores: Sequence[int]) -> float:
        """Seconds from ``start`` to ``end`` on ``cores``, at nominal host speed.

        The probes' own running time in the interval is taken out first: on
        each core they ran for that long instead of the benchmark.
        """
        samples = [sample for core in cores for sample in self.samples[core]]
        inside = [d for s, d in samples if start <= s < end]
        busy = sum(inside) / len(cores)
        if len(inside) < MIN_SAMPLES:
            # An interval shorter than a few samples takes the nearest ones.
            middle = (start + end) / 2
            samples.sort(key=lambda sample: abs(sample[0] - middle))
            inside = [d for _, d in samples[:MIN_SAMPLES]]
        if not inside:
            raise RuntimeError("the probe took no samples")
        return (end - start - busy) * NOMINAL_SAMPLE_S / (sum(inside) / len(inside))


def main() -> int:
    parser = argparse.ArgumentParser(description="sample one core's speed")
    parser.add_argument("--core", type=int, required=True)
    args = parser.parse_args()
    os.sched_setaffinity(0, {args.core})
    samples = []
    while True:
        started = time.perf_counter()
        reference_work()
        samples.append(f"{started!r} {time.perf_counter() - started!r}")
        # The benchmark never writes, so readable input means it was closed.
        if select.select([sys.stdin], [], [], SAMPLE_INTERVAL_S)[0]:
            break
    print("\n".join(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
