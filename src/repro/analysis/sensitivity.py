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

from typing import Dict, List, Optional, Tuple

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


def workload_axis_from_result(
    result,
    family: str,
    param: str,
    platform: Optional[str] = None,
) -> Dict[object, PlatformResult]:
    """Pivot a parametric-*workload* sweep back to ``{param value: result}``.

    The workload-axis analogue of :func:`axis_from_result`: tokens are
    resolved through the workload registry, so a plain ``kv-lookup`` row
    contributes the family's default value and ``kv-lookup:zipf=1.1`` its
    override — which is how the ``kv-sweep`` preset (and any merged shard
    result over parameterised tokens) plugs back into a sensitivity surface.
    With multiple platforms in the result, pass ``platform`` to select one.
    Two cells mapping onto the same parameter value — the same token on two
    platforms without a ``platform`` filter, or two tokens differing in
    *another* parameter — raise instead of silently overwriting each other.
    """
    from repro.workloads.registry import (
        family_by_name,
        parse_workload_token,
        resolve_workload,
    )

    family_by_name(family).param(param)  # typos fail with a did-you-mean

    out: Dict[object, PlatformResult] = {}
    sources: Dict[object, Tuple[str, str]] = {}
    for run in result:
        if platform is not None and run.cell.platform != platform:
            continue
        read_app, write_app = parse_workload_token(run.cell.workload)
        if write_app is not None or read_app.startswith("trace:"):
            continue  # mixes and replays carry no single family parameter
        resolved = resolve_workload(read_app)
        if resolved.family is None or resolved.family.name != family:
            continue
        value = resolved.param_mapping()[param]
        source = (run.cell.workload, run.cell.platform)
        if value in out:
            raise ValueError(
                f"ambiguous pivot: cells {sources[value]} and {source} both "
                f"map to {param}={value!r}; pass platform=... and/or filter "
                f"the result so each {param} value has exactly one cell")
        out[value] = run.result
        sources[value] = source
    if not out:
        raise KeyError(
            f"sweep result has no single-workload cells of family "
            f"{family!r}" + (f" on platform {platform!r}" if platform else ""))
    try:
        return dict(sorted(out.items()))
    except TypeError:  # mixed-type parameter values: fall back to text order
        return dict(sorted(out.items(), key=lambda item: str(item[0])))
