"""Ablation: number of flash registers per plane.

More registers per plane enlarge the fully-associative write cache and absorb
more of the redundant writes (Fig. 5c), cutting flash programs.

The axis values come from the ``register_cache.registers_per_plane`` ablation
metadata in the config schema and the grid is the ``reg-sweep`` preset, so
this bench, ``python -m repro sweep --preset reg-sweep`` and
``python -m repro config --explain`` all describe the same experiment.
"""

from repro.analysis import sensitivity
from repro.configspace import axis_overrides, get_preset
from repro.runner import run_sweep
from benchmarks.harness import run_once

PATH = "register_cache.registers_per_plane"
#: The canonical schema axis, bounded to keep the bench quick.
REGISTER_VALUES = tuple(
    value for value in sensitivity.axis_values(PATH) if value <= 16)


def _compare(scale):
    spec = get_preset("reg-sweep").spec(
        overrides=axis_overrides(PATH, REGISTER_VALUES), scale=scale)
    results = sensitivity.axis_from_result(run_sweep(spec), PATH)
    return {
        registers: (
            result.extra.get("register_hit_rate", 0.0),
            result.extra.get("register_evictions", 0.0),
            result.ipc,
        )
        for registers, result in results.items()
    }


def test_ablation_register_count(benchmark, bench_scale):
    out = run_once(benchmark, _compare, bench_scale)

    hit_rates = [out[r][0] for r in REGISTER_VALUES]
    # More registers never reduce the register hit rate.
    assert hit_rates == sorted(hit_rates) or max(hit_rates) - min(hit_rates) < 0.1

    print("\nAblation — Registers per plane")
    print(f"  {'registers':10s} {'hit rate':>10s} {'evictions':>10s} {'IPC':>10s}")
    for registers in REGISTER_VALUES:
        hit, evictions, ipc = out[registers]
        print(f"  {registers:>10d} {hit:>10.3f} {evictions:>10.0f} {ipc:>10.4f}")
