"""Sensitivity surfaces over ZnG's design knobs.

The paper explores its design space informally: vary one configuration
parameter, hold the rest at Table I defaults, and compare IPC / bandwidth /
hit rate.  Here each such sweep is declared once, as an experiment preset
(``reg-sweep``, ``l2-sweep``, ``prefetch-sweep``, ``interconnect-sweep``,
``table1-sensitivity``, ... in :mod:`repro.configspace.presets`), run through
:mod:`repro.runner` — parallel, cached, shardable — and pivoted back into a
``{value: PlatformResult}`` surface by the pure functions below::

    spec = get_preset("reg-sweep").spec(scale=0.1)
    surface = axis_from_result(run_sweep(spec),
                               "register_cache.registers_per_plane")

:func:`axis_from_result` reads each cell's override *value* for the path,
never its label, so a sweep merged from shard manifests by ``repro merge``
plugs straight back in.  The axes themselves are not hard-coded: their
canonical values come from the ``ablation`` metadata the config schema
(:mod:`repro.configspace`) carries per field; :func:`axes` enumerates them.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.configspace import SCHEMA
from repro.platforms.base import PlatformResult


def axes() -> Dict[str, Tuple[object, ...]]:
    """Every declared sensitivity axis: ``{dotted path: canonical values}``."""
    return SCHEMA.ablation_axes()


def axis_values(path: str) -> List[object]:
    """The canonical ablation values of one schema axis."""
    values = SCHEMA.get(path).ablation
    if values is None:
        raise KeyError(f"{path} declares no canonical ablation values")
    return list(values)


def axis_from_result(result, path: str) -> Dict[object, PlatformResult]:
    """Pivot an already-run config-axis sweep to ``{value: PlatformResult}``.

    Each cell is keyed by the value its override set gives the dotted
    config ``path``, in spec order; cells whose override set does not touch
    ``path`` are skipped, so one ``table1-sensitivity`` run pivots into
    every one of its axes.  Two cells mapping onto the same value — e.g.
    the same point on two platforms or two workloads — raise
    :class:`ValueError` instead of silently overwriting each other; a
    result with no cell overriding ``path`` raises :class:`KeyError`.
    """
    out: Dict[object, PlatformResult] = {}
    sources: Dict[object, str] = {}
    for run in result:
        overrides = run.cell.override_set.as_mapping()
        if path not in overrides:
            continue
        value = overrides[path]
        if value in out:
            raise ValueError(
                f"ambiguous pivot: cells {sources[value]} and {run.cell.label} "
                f"both map to {path}={value!r}; filter the result so each "
                f"value has exactly one cell")
        out[value] = run.result
        sources[value] = run.cell.label
    if not out:
        raise KeyError(f"sweep result has no cell overriding {path!r}")
    return out
