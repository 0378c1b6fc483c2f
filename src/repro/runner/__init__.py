"""Experiment-sweep orchestration: declarative grids, parallel cells, caching.

The paper's evaluation is a grid of (platform variant x workload x config
ablation) simulations.  This package runs such grids as fast as the hardware
allows and never runs the same cell twice.

Sweep spec format
-----------------
The paper's grids are declared once, as named experiment presets
(:mod:`repro.configspace.presets`); ``preset.spec(**overrides)`` expands one
into a spec — narrowed to a scale, a platform subset, an override axis —
and the figure and sensitivity tables are pure pivots over the result
(``figures.figure_10_from_result``, ``sensitivity.axis_from_result``, ...)::

    from repro.analysis.figures import figure_10_from_result
    from repro.configspace import get_preset
    from repro.runner import run_sweep

    result = run_sweep(get_preset("fig10").spec(scale=0.1), workers=4)
    figure_10_from_result(result)   # {mix: {platform: normalised IPC}}

An ad-hoc grid is declared with :meth:`SweepSpec.create`::

    from repro.runner import SweepSpec, run_sweep

    spec = SweepSpec.create(
        platforms=["ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG"],
        workloads=["betw-back", "bfs1-gaus", "pr-gaus"],   # or "mixes"/"graph"
        overrides={                                        # optional axis
            "reg8":  {"register_cache.registers_per_plane": 8},
            "reg16": {"register_cache.registers_per_plane": 16},
        },
        scale=0.2, seed=1, warps_per_sm=8,
    )
    result = run_sweep(spec, workers=4, cache=".repro-cache")
    result.table("ipc")      # {workload: {platform: ipc}}

* ``platforms`` — evaluation names (``GDDR5``, ``Hetero``, ``HybridGPU``,
  ``Optane``, ``ZnG-base``, ``ZnG-rdopt``, ``ZnG-wropt``, ``ZnG``).
* ``workloads`` — Table II tokens: a single app (``"betw"``), a co-run mix
  (``"betw-back"``), or a group (``"mixes"``, ``"graph"``, ``"scientific"``).
* ``overrides`` — labelled points on a config axis; each entry maps dotted
  config paths (``"znand.channels"``) to values, applied on top of the
  Table I defaults (or a custom ``base_config``).

Cells are seeded deterministically from ``(seed, workload)`` alone, so every
platform sees the identical trace and serial runs, parallel runs and cached
re-runs are bit-identical.

Sharding, manifests, resume and merge
-------------------------------------
``spec.shard(i, n)`` is the ``i``-th (0-based) of ``n`` deterministic
partitions of the grid — cells ordered by cache key, dealt round-robin — and
runs anywhere a spec does::

    result = run_sweep(spec.shard(0, 3), workers=4, cache=".repro-cache")

A run given a ``manifest_path`` persists a schema-versioned record of every
cell (status/cache key/elapsed), atomically rewritten as cells finish;
:func:`resume_sweep` re-executes only the failed/missing cells of a manifest,
and :func:`merge_manifests` folds N shard manifests + caches back into one
complete, verified ``SweepResult`` (see :mod:`repro.runner.manifest`).  The
CLI front ends are ``sweep --shard I/N``, ``sweep --resume`` and ``merge``.

This is the one way to distribute and resume a grid: shards split it across
hosts, and a sweep killed mid-run (SIGKILL of its whole process group, or
Ctrl-C) resumes from its manifest to results bit-identical to an
uninterrupted run — ``tests/runner/test_kill_resume.py`` kills a real
``python -m repro sweep`` to prove it.

Cache layout
------------
Finished cells are memoized under ``.repro-cache/`` (override with
``cache=<dir>`` or ``$REPRO_CACHE_DIR``)::

    .repro-cache/<key[:2]>/<key>.json

``key`` is the sha256 of the cell's canonical descriptor — resolved config,
platform, workload token, seed and trace knobs — so any config or workload
change misses cleanly instead of aliasing.  Entries are written atomically
and a corrupted entry is dropped and recomputed, never trusted.

The CLI front end is ``python -m repro sweep``.
"""

from repro.runner.cache import (
    CACHE_VERSION,
    ResultCache,
    default_cache_dir,
    open_cache,
)
from repro.runner.runner import (
    CellFailure,
    CellRun,
    SharedTraceStore,
    SweepExecutionError,
    SweepResult,
    SweepRunner,
    run_sweep,
    shutdown_worker_pools,
)
from repro.runner.spec import (
    OverrideSet,
    SweepCell,
    SweepShard,
    SweepSpec,
    apply_overrides,
    build_cell_trace,
    cell_seed,
)
from repro.runner.manifest import (
    MANIFEST_SCHEMA,
    ManifestCell,
    ManifestError,
    MergeError,
    RunManifest,
    default_manifest_name,
    merge_manifests,
    resume_sweep,
)

__all__ = [
    "CACHE_VERSION",
    "CellFailure",
    "CellRun",
    "MANIFEST_SCHEMA",
    "ManifestCell",
    "ManifestError",
    "MergeError",
    "OverrideSet",
    "ResultCache",
    "RunManifest",
    "SharedTraceStore",
    "SweepCell",
    "SweepExecutionError",
    "SweepResult",
    "SweepRunner",
    "SweepShard",
    "SweepSpec",
    "apply_overrides",
    "build_cell_trace",
    "cell_seed",
    "default_cache_dir",
    "default_manifest_name",
    "merge_manifests",
    "open_cache",
    "resume_sweep",
    "run_sweep",
    "shutdown_worker_pools",
]
