"""Helpers shared by the per-figure benchmark modules."""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple

from repro.analysis.report import format_figure_table
from repro.configspace import get_preset
from repro.platforms.base import PlatformResult
from repro.runner import SweepSpec, cell_seed, run_sweep
from repro.workloads.multiapp import MultiAppWorkload, build_mix
from repro.workloads.suites import mix_name
from repro.workloads.trace import TraceKnobs

# Benches run sweeps serially and uncached by default so pytest-benchmark
# times real simulation work, not cache reads; pass workers/cache to scale.
BENCH_SEED = 1


def run_once(benchmark, fn: Callable, *args, **kwargs):
    """Time a heavy reproduction exactly once (no warmup rounds)."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


def run_sweep_grid(
    platform_names: Sequence[str],
    mixes: Sequence[Tuple[str, str]],
    scale: float,
    warps_per_sm: int = 12,
    memory_instructions_per_warp: int = 96,
    workers: int = 1,
    cache: object = False,
) -> Dict[str, Dict[str, PlatformResult]]:
    """Run a platform x mix grid through ``repro.runner``.

    Returns ``{mix_name: {platform: PlatformResult}}`` — the shape the figure
    benches tabulate.
    """
    spec = SweepSpec.create(
        platforms=platform_names,
        workloads=[mix_name(*mix) for mix in mixes],
        scale=scale,
        seed=BENCH_SEED,
        warps_per_sm=warps_per_sm,
        memory_instructions_per_warp=memory_instructions_per_warp,
    )
    return run_sweep(spec, workers=workers, cache=cache).grid()


def run_preset(name: str, mixes: Sequence[Tuple[str, str]], scale: float, **fields):
    """Run experiment preset ``name`` on the bench mixes at ``scale``.

    ``fields`` narrow the preset further (``platforms=[...]``); the trace
    knobs stay the preset's.  Returns the :class:`~repro.runner.SweepResult`
    for a ``figure_*_from_result`` pivot.
    """
    spec = get_preset(name).spec(
        workloads=[mix_name(*mix) for mix in mixes], scale=scale, **fields)
    return run_sweep(spec)


def build_bench_mix(
    read_app: str,
    write_app: str,
    scale: float,
    warps_per_sm: int = 12,
    memory_instructions_per_warp: int = 96,
    seed: int = BENCH_SEED,
) -> MultiAppWorkload:
    """Build one co-run mix with the same derived seed the sweep runner uses.

    Seeding through :func:`repro.runner.cell_seed` keeps a hand-built bench
    mix bit-identical to the trace a ``run_sweep_grid`` cell runs, so numbers
    are comparable across the migrated and unmigrated benches.
    """
    return build_mix(read_app, write_app, TraceKnobs(
        scale=scale, seed=cell_seed(seed, f"{read_app}-{write_app}"),
        warps_per_sm=warps_per_sm,
        memory_instructions_per_warp=memory_instructions_per_warp))


def print_table(title: str, rows, value_format: str = "{:.3f}") -> None:
    print()
    print(format_figure_table(title, rows, value_format))
