"""One-command paper artifacts from sweep manifests, with golden gates.

This module closes the run -> collect -> plot loop as a subsystem:
``python -m repro report <manifest>...`` folds one or more run manifests
(sharded or not) into a completeness-verified
:class:`~repro.runner.runner.SweepResult` and emits the full artifact set
into one output directory:

``metrics.csv``
    One row per cell with every scalar metric — the ground truth every
    other table is derived from.
``fig10.csv`` / ``fig11.csv``
    The paper pivots (normalised IPC; flash-array read bandwidth) via the
    existing ``*_from_result`` functions.
``sensitivity.csv``
    The override-axis pivot, emitted when the sweep carries more than the
    default override set.
``scenarios.csv``
    The workload-family grouping
    (:func:`repro.analysis.figures.scenario_suite_from_result`).
``report.html`` / ``bench.html``
    A static HTML report embedding the tables, the spec
    fingerprint/provenance header, and a bench-trajectory page rendered
    from the history of ``BENCH_sweep.json``.
``*.png``
    Optional matplotlib plots; generation degrades gracefully (a note in
    the HTML, no error) when matplotlib is not installed.

Numbers are gated the way schemas already are: every CSV cell is canonical
text (floats via ``repr`` — the shortest round-trip form, stable across
platforms since CPython 3.1 — never via platform-format ``%g`` rounding),
so the CSVs of a merged shard run are **bit-identical** to the serial
sweep's and diffable in CI.  ``python -m repro report --golden``
re-derives the canonical fixed-seed golden sweep and rewrites
``tests/data/report/``; ``tests/analysis/test_report_golden.py`` fails on
any numeric drift.
"""

from __future__ import annotations

import html
import json
import math
import os
import subprocess
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

#: Where the golden CSVs live, relative to the repo root.
GOLDEN_RELDIR = Path("tests") / "data" / "report"

#: The fixed-seed scaled sweep the goldens are derived from: exactly the
#: grid CI's 3-shard matrix runs (``--preset fig10 --scale 0.1``), so the
#: report over CI's merged manifests is byte-diffable against the goldens.
#: Cheap enough (21 cells, well under a second) to re-run in a unit test.
GOLDEN_PRESET = "fig10"
GOLDEN_SCALE = 0.1

#: The override-axis sweep whose ``sensitivity.csv`` surface is drift-gated.
#: The fig10 grid carries no override axis, so its artifact set never emits
#: a sensitivity table; this companion sweep runs the flash-network width
#: ablation and its goldens live in the ``sensitivity/`` subdirectory (the
#: top-level goldens stay byte-diffable against the fig10-only CI grid).
#: The width axis moves IPC at preset scale, so the surface gates the model.
SENSITIVITY_GOLDEN_PRESET = "flash-width-sweep"
SENSITIVITY_GOLDEN_SUBDIR = "sensitivity"

#: The per-cell scalar metrics ``metrics.csv`` records, in column order.
METRIC_COLUMNS = (
    "ipc",
    "cycles",
    "l2_hit_rate",
    "flash_array_read_bandwidth_gbps",
    "flash_array_total_bandwidth_gbps",
    "memory_bandwidth_gbps",
)


class ReportError(ValueError):
    """A report could not be derived or failed its golden-gate check."""


# ---------------------------------------------------------------------------
# Canonical CSV emission
# ---------------------------------------------------------------------------


def canonical_number(value: Union[int, float]) -> str:
    """Canonical, platform-independent text for one numeric CSV cell.

    Integers render bare; floats render via ``repr``, which CPython
    guarantees to be the *shortest string that round-trips* to the same
    IEEE-754 double — identical on every platform, unlike ``%g``-style
    formatting that silently rounds (and can mask a real numeric drift
    smaller than the format width).  Non-finite values raise: a golden
    artifact with a NaN in it is a bug upstream, not a number to gate on.
    """
    if isinstance(value, bool):  # bool is an int subclass; don't emit "True"
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if not math.isfinite(value):
        raise ReportError(f"non-finite value {value!r} cannot enter a report CSV")
    if value == 0.0:  # normalise -0.0: sign of zero is not science
        return "0.0"
    return repr(value)


def csv_cell(value: object) -> str:
    """One CSV cell: numbers canonical, text RFC-4180-quoted when needed."""
    if isinstance(value, (int, float)):
        return canonical_number(value)
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(
    path: Union[os.PathLike, str],
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
) -> Path:
    """Write one canonical CSV: LF newlines, canonical cells, no trailing junk."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(csv_cell(cell) for cell in header)]
    lines.extend(",".join(csv_cell(cell) for cell in row) for row in rows)
    with open(target, "w", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
    return target


# ---------------------------------------------------------------------------
# Table derivation (SweepResult -> named CSV tables)
# ---------------------------------------------------------------------------


def report_tables(
    result,
    normalize_to: str = "ZnG",
) -> Dict[str, Tuple[List[str], List[List[object]]]]:
    """Derive every CSV table from a sweep result.

    Returns ``{name: (header, rows)}`` with rows in the result's own cell
    order (spec order for serial runs and merged shard runs alike), so the
    emitted bytes are a pure function of the result's numbers.
    """
    from repro.analysis.figures import (
        figure_10_from_result,
        figure_11_from_result,
        scenario_suite_from_result,
    )

    tables: Dict[str, Tuple[List[str], List[List[object]]]] = {}

    metrics_rows: List[List[object]] = []
    for run in result:
        row: List[object] = [
            run.cell.workload,
            run.cell.platform,
            run.cell.override_set.label,
        ]
        row.extend(float(getattr(run.result, metric)) for metric in METRIC_COLUMNS)
        metrics_rows.append(row)
    tables["metrics"] = (
        ["workload", "platform", "override", *METRIC_COLUMNS],
        metrics_rows,
    )

    platforms = list(result.spec.platforms)
    fig10 = figure_10_from_result(result, normalize_to=normalize_to)
    tables["fig10"] = (
        ["workload", *platforms],
        [[workload, *(row.get(p, float("nan")) for p in platforms)]
         for workload, row in fig10.items()],
    )
    fig11 = figure_11_from_result(result)
    tables["fig11"] = (
        ["workload", *platforms],
        [[workload, *(row.get(p, 0.0) for p in platforms)]
         for workload, row in fig11.items()],
    )

    labels = [override.label for override in result.spec.overrides]
    if len(labels) > 1 or (labels and labels[0] != "default"):
        sensitivity_rows = [
            [run.cell.override_set.label, run.cell.workload,
             run.cell.platform, float(run.result.ipc),
             float(run.result.flash_array_read_bandwidth_gbps)]
            for run in result
        ]
        tables["sensitivity"] = (
            ["override", "workload", "platform", "ipc",
             "flash_array_read_bandwidth_gbps"],
            sensitivity_rows,
        )

    suite = scenario_suite_from_result(result)
    scenario_rows = [
        [family, token, platform, value]
        for family, tokens in suite.items()
        for token, cells in tokens.items()
        for platform, value in cells.items()
    ]
    tables["scenarios"] = (
        ["family", "token", "platform", "ipc"],
        scenario_rows,
    )
    return tables


# ---------------------------------------------------------------------------
# Bench trajectory (the history of BENCH_sweep.json)
# ---------------------------------------------------------------------------


def bench_trajectory(
    bench_path: Union[os.PathLike, str, None] = None,
) -> List[Dict[str, object]]:
    """The committed history of ``BENCH_sweep.json``, oldest first.

    Each point is the bench payload plus ``commit`` (12-hex, or
    ``working-tree`` for the current uncommitted file).  History comes from
    ``git log`` over the file; outside a git checkout (or with git missing)
    the list degrades to just the current file — and to empty when even
    that is absent.  Never raises: the trajectory is a page, not a gate.
    """
    path = Path(bench_path) if bench_path is not None else _repo_root() / "BENCH_sweep.json"
    points: List[Dict[str, object]] = []
    try:
        revisions = subprocess.run(
            ["git", "log", "--reverse", "--format=%H", "--", path.name],
            cwd=path.parent, capture_output=True, text=True, timeout=10,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        revisions = []
    for revision in revisions:
        try:
            shown = subprocess.run(
                ["git", "show", f"{revision}:{path.name}"],
                cwd=path.parent, capture_output=True, text=True, timeout=10,
            )
            if shown.returncode != 0:
                continue
            payload = json.loads(shown.stdout)
        except (OSError, subprocess.SubprocessError, ValueError):
            continue
        if isinstance(payload, dict):
            payload = dict(payload)
            payload["commit"] = revision[:12]
            points.append(payload)
    try:
        current = json.loads(path.read_text())
        if isinstance(current, dict):
            if not points or current != {
                k: v for k, v in points[-1].items() if k != "commit"
            }:
                current = dict(current)
                current["commit"] = "working-tree"
                points.append(current)
    except (OSError, ValueError):
        pass
    return points


def _repo_root() -> Path:
    root = Path(__file__).resolve().parents[3]
    return root


def default_golden_dir() -> Path:
    """Where the golden CSVs live in this checkout."""
    return _repo_root() / GOLDEN_RELDIR


# ---------------------------------------------------------------------------
# HTML rendering
# ---------------------------------------------------------------------------

_HTML_STYLE = """
body { font: 14px/1.5 -apple-system, 'Segoe UI', sans-serif; margin: 2rem auto;
       max-width: 72rem; color: #1a1a2e; padding: 0 1rem; }
h1, h2 { font-weight: 600; }
table { border-collapse: collapse; margin: 1rem 0; }
th, td { border: 1px solid #d0d0e0; padding: 0.3rem 0.7rem; text-align: right; }
th:first-child, td:first-child { text-align: left; }
th { background: #f0f0f8; }
code, pre { font: 12px ui-monospace, monospace; background: #f6f6fb;
            padding: 0.1rem 0.3rem; }
.provenance { background: #f6f6fb; border: 1px solid #d0d0e0;
              padding: 0.8rem 1.2rem; }
.note { color: #667; font-style: italic; }
svg { background: #fcfcff; border: 1px solid #d0d0e0; }
"""


def _html_table(header: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    parts = ["<table>", "<tr>"]
    parts.extend(f"<th>{html.escape(str(cell))}</th>" for cell in header)
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        parts.extend(f"<td>{html.escape(csv_cell(cell))}</td>" for cell in row)
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


_TABLE_TITLES = {
    "metrics": "Per-cell metrics",
    "fig10": "Figure 10 — normalised IPC",
    "fig11": "Figure 11 — flash-array read bandwidth (GB/s)",
    "sensitivity": "Sensitivity — override-axis pivot",
    "scenarios": "Scenario suite — grouped by workload family",
}


def render_html_report(
    tables: Mapping[str, Tuple[List[str], List[List[object]]]],
    provenance: Mapping[str, object],
    plot_files: Sequence[str] = (),
    plot_note: str = "",
) -> str:
    """The static ``report.html``: tables, provenance header, plot links."""
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>repro report</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>Reproduction report</h1>",
        "<div class='provenance'><h2>Provenance</h2><table>",
    ]
    for key, value in provenance.items():
        parts.append(
            f"<tr><td>{html.escape(str(key))}</td>"
            f"<td><code>{html.escape(str(value))}</code></td></tr>")
    parts.append("</table></div>")
    if plot_files:
        parts.append("<h2>Plots</h2>")
        for name in plot_files:
            parts.append(
                f"<p><img src='{html.escape(name)}' "
                f"alt='{html.escape(name)}' style='max-width:100%'></p>")
    elif plot_note:
        parts.append(f"<p class='note'>{html.escape(plot_note)}</p>")
    for name, (header, rows) in tables.items():
        parts.append(f"<h2>{html.escape(_TABLE_TITLES.get(name, name))}</h2>")
        parts.append(f"<p class='note'>canonical CSV: <code>{name}.csv</code></p>")
        parts.append(_html_table(header, rows))
    parts.append("<p><a href='bench.html'>Bench trajectory</a></p>")
    parts.append("</body></html>")
    return "\n".join(parts)


def render_bench_html(points: Sequence[Mapping[str, object]]) -> str:
    """The bench-trajectory page: executed cells/sec over the file's history."""
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>bench trajectory</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>Bench trajectory</h1>",
        "<p>History of <code>BENCH_sweep.json</code> (oldest first): the "
        "executed-cells-per-second hot-path number and its phase split.</p>",
    ]
    series = [
        float(point.get("executed_cells_per_sec", 0.0) or 0.0) for point in points
    ]
    if series:
        peak = max(series) or 1.0
        width, height, pad = 640, 160, 8
        step = (width - 2 * pad) / max(1, len(series) - 1)
        coords = [
            (pad + i * step,
             height - pad - (value / peak) * (height - 2 * pad))
            for i, value in enumerate(series)
        ]
        polyline = " ".join(f"{x:.1f},{y:.1f}" for x, y in coords)
        dots = "".join(
            f"<circle cx='{x:.1f}' cy='{y:.1f}' r='3' fill='#335'/>"
            for x, y in coords)
        parts.append(
            f"<svg width='{width}' height='{height}' role='img' "
            f"aria-label='executed cells per second over history'>"
            f"<polyline points='{polyline}' fill='none' stroke='#335' "
            f"stroke-width='1.5'/>{dots}</svg>")
        header = ["commit", "executed_cells_per_sec", "cells_per_sec",
                  "executed_cells", "trace_build_seconds", "simulate_seconds",
                  "elapsed_seconds", "events_processed", "events_per_sec"]
        rows = [[point.get(column, "") for column in header] for point in points]
        parts.append(_html_table(header, rows))
    else:
        parts.append("<p class='note'>No BENCH_sweep.json history available "
                     "(not a git checkout, or the bench has never run).</p>")
    parts.append("<p><a href='report.html'>Back to report</a></p>")
    parts.append("</body></html>")
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# Plots (optional; degrade gracefully without matplotlib)
# ---------------------------------------------------------------------------


def write_plots(
    tables: Mapping[str, Tuple[List[str], List[List[object]]]],
    out_dir: Union[os.PathLike, str],
) -> Tuple[List[str], str]:
    """Write matplotlib bar charts for the figure pivots.

    Returns ``(written file names, note)``; with matplotlib absent the file
    list is empty and the note says so — the report itself must still
    generate (CI installs matplotlib, local dev need not).
    """
    try:
        import matplotlib  # noqa: F401

        matplotlib.use("Agg", force=True)
        import matplotlib.pyplot as plt
    except Exception as error:  # pragma: no cover - exercised without mpl
        return [], f"plots skipped: matplotlib unavailable ({error.__class__.__name__})"

    written: List[str] = []
    out = Path(out_dir)
    for name, title in (("fig10", _TABLE_TITLES["fig10"]),
                        ("fig11", _TABLE_TITLES["fig11"])):
        if name not in tables:
            continue
        header, rows = tables[name]
        platforms = header[1:]
        workloads = [str(row[0]) for row in rows]
        if not workloads:
            continue
        figure, axes = plt.subplots(figsize=(1.8 + 1.1 * len(workloads), 3.2))
        width = 0.8 / max(1, len(platforms))
        for index, platform in enumerate(platforms):
            values = [float(row[1 + index]) for row in rows]
            positions = [i + index * width for i in range(len(workloads))]
            axes.bar(positions, values, width=width, label=platform)
        axes.set_xticks([i + 0.4 - width / 2 for i in range(len(workloads))])
        axes.set_xticklabels(workloads, rotation=20, ha="right")
        axes.set_title(title)
        axes.legend(fontsize=7)
        figure.tight_layout()
        path = out / f"{name}.png"
        figure.savefig(path, dpi=120)
        plt.close(figure)
        written.append(path.name)
    return written, ""


# ---------------------------------------------------------------------------
# End-to-end generation
# ---------------------------------------------------------------------------


def result_provenance(result, manifests=None) -> Dict[str, object]:
    """The provenance header: what ran, from which spec, merged from where."""
    spec = result.spec
    provenance: Dict[str, object] = {
        "spec_fingerprint": spec.fingerprint(),
        "platforms": ", ".join(spec.platforms),
        "workloads": ", ".join(spec.workloads),
        "overrides": ", ".join(o.label for o in spec.overrides),
        "cells": len(result),
        "scale": spec.scale,
        "seed": spec.seed,
    }
    if result.merged_shards is not None:
        provenance["merged_shards"] = result.merged_shards
    if result.shard_count is not None:
        provenance["shard"] = f"{result.shard_index + 1}/{result.shard_count}"
    for manifest in manifests or ():
        summary = manifest.provenance()
        provenance.setdefault("manifest_schema", summary["schema"])
        key = f"manifest[{summary['shard']}]"
        provenance[key] = summary["path"]
        dispatch = summary.get("dispatch")
        if isinstance(dispatch, dict):
            workers = dispatch.get("workers") or []
            provenance[f"dispatch[{summary['shard']}]"] = (
                f"{len(workers)} worker(s): {', '.join(workers)}; "
                f"{dispatch.get('executed', 0)} executed, "
                f"{dispatch.get('cache_served', 0)} from cache, "
                f"{dispatch.get('stolen_leases', 0)} stolen lease(s)")
            remote = dispatch.get("remote_cache")
            if isinstance(remote, dict):
                health = ("DEGRADED" if remote.get("degraded")
                          else "healthy")
                provenance[f"remote-cache[{summary['shard']}]"] = (
                    f"{remote.get('url', '?')} {health}: "
                    f"{remote.get('remote_hits', 0)} remote hit(s), "
                    f"{remote.get('remote_stores', 0)} upload(s), "
                    f"{remote.get('remote_errors', 0)} error(s) "
                    f"(reported by {remote.get('reported_by', '?')})")
    cache_stats = getattr(result, "cache_stats", None) or {}
    if "remote_errors" in cache_stats:
        health = "DEGRADED" if cache_stats.get("degraded") else "healthy"
        provenance["remote-cache"] = (
            f"{cache_stats.get('url', '?')} {health}: "
            f"{cache_stats.get('remote_hits', 0)} remote hit(s), "
            f"{cache_stats.get('remote_stores', 0)} upload(s), "
            f"{cache_stats.get('remote_errors', 0)} error(s)")
    return provenance


def write_report(
    result,
    out_dir: Union[os.PathLike, str],
    manifests=None,
    plots: bool = True,
    html_report: bool = True,
    bench_path: Union[os.PathLike, str, None] = None,
    normalize_to: str = "ZnG",
    telemetry_dirs: Optional[Sequence[Union[os.PathLike, str]]] = None,
) -> Dict[str, Path]:
    """Emit the full artifact set for a sweep result into ``out_dir``.

    Returns ``{artifact name: path}``.  CSV bytes are a pure function of
    the result's numbers; the HTML embeds provenance and may list
    machine-local detail (paths, elapsed), so only the CSVs are gated.
    ``telemetry_dirs`` adds ``telemetry/spans.csv`` + ``telemetry/
    timeline.html`` rendered from the event logs found there (skipped when
    empty; the golden gate only compares top-level CSVs, so span timings —
    wall-clock, machine-local — never sit next to the gated numbers).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = report_tables(result, normalize_to=normalize_to)
    written: Dict[str, Path] = {}
    for name, (header, rows) in tables.items():
        written[f"{name}.csv"] = write_csv(out / f"{name}.csv", header, rows)

    if telemetry_dirs:
        from repro.telemetry.timeline import write_timeline_artifacts

        written.update(write_timeline_artifacts(telemetry_dirs, out))

    plot_files: List[str] = []
    plot_note = "plots disabled"
    if plots:
        plot_files, plot_note = write_plots(tables, out)
        for name in plot_files:
            written[name] = out / name
    if html_report:
        provenance = result_provenance(result, manifests)
        report_path = out / "report.html"
        report_path.write_text(
            render_html_report(tables, provenance, plot_files, plot_note))
        written["report.html"] = report_path
        bench_points = bench_trajectory(bench_path)
        bench_file = out / "bench.html"
        bench_file.write_text(render_bench_html(bench_points))
        written["bench.html"] = bench_file
    return written


def report_from_manifests(
    manifest_paths: Sequence[Union[os.PathLike, str]],
    out_dir: Union[os.PathLike, str],
    **kwargs,
) -> Dict[str, Path]:
    """Merge manifests (completeness-verified) and emit the artifact set.

    Telemetry event logs are discovered automatically: each manifest's cache
    root (or its own parent directory) is probed for a ``telemetry/``
    directory with event files, so a dispatch fleet's report grows a
    swimlane without any extra flag.
    """
    from repro.runner.manifest import RunManifest, merge_manifests

    result = merge_manifests(manifest_paths)
    manifests = [RunManifest.load(path) for path in manifest_paths]
    if "telemetry_dirs" not in kwargs:
        discovered: List[Path] = []
        candidates: List[Path] = []
        for manifest, path in zip(manifests, manifest_paths):
            cache_dir = getattr(manifest, "cache_dir", "") or ""
            if cache_dir:
                candidates.append(Path(cache_dir) / "telemetry")
            candidates.append(Path(path).resolve().parent / "telemetry")
        for candidate in candidates:
            if candidate.is_dir() and candidate not in discovered:
                discovered.append(candidate)
        kwargs["telemetry_dirs"] = discovered
    return write_report(result, out_dir, manifests=manifests, **kwargs)


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------


def golden_spec():
    """The golden sweep's declared grid — CI's fig10 matrix, bit for bit."""
    from repro.configspace import get_preset
    from repro.runner import SweepSpec

    preset = get_preset(GOLDEN_PRESET)
    return SweepSpec.create(
        platforms=list(preset.platforms),
        workloads=list(preset.workloads),
        overrides=preset.override_axis() or None,
        scale=GOLDEN_SCALE,
        seed=preset.seed,
        warps_per_sm=preset.warps_per_sm,
        memory_instructions_per_warp=preset.memory_instructions_per_warp,
    )


def golden_result(workers: int = 1):
    """Run the canonical fixed-seed scaled sweep the goldens derive from."""
    from repro.runner import run_sweep

    return run_sweep(golden_spec(), workers=workers, cache=False)


def sensitivity_golden_spec():
    """The override-axis sweep behind the ``sensitivity/`` goldens."""
    from repro.configspace import get_preset

    return get_preset(SENSITIVITY_GOLDEN_PRESET).spec()


def sensitivity_golden_result(workers: int = 1):
    """Run the fixed-seed override-axis sweep the sensitivity goldens gate."""
    from repro.runner import run_sweep

    return run_sweep(sensitivity_golden_spec(), workers=workers, cache=False)


def default_sensitivity_golden_dir() -> Path:
    """Where the sensitivity-surface goldens live in this checkout."""
    return default_golden_dir() / SENSITIVITY_GOLDEN_SUBDIR


def write_goldens(
    out_dir: Union[os.PathLike, str, None] = None, workers: int = 1
) -> Dict[str, Path]:
    """(Re)write the golden CSVs under ``tests/data/report/``.

    Only the CSVs: goldens gate numbers, not presentation, so HTML and
    plots stay out of the golden directory.  The override-axis sweep's
    artifact set (including ``sensitivity.csv``) goes into the
    ``sensitivity/`` subdirectory, keyed by its own grid.
    """
    out = Path(out_dir) if out_dir is not None else _repo_root() / GOLDEN_RELDIR
    written = write_report(
        golden_result(workers=workers), out, plots=False, html_report=False)
    sensitivity_written = write_report(
        sensitivity_golden_result(workers=workers),
        out / SENSITIVITY_GOLDEN_SUBDIR,
        plots=False,
        html_report=False,
    )
    for name, path in sensitivity_written.items():
        written[f"{SENSITIVITY_GOLDEN_SUBDIR}/{name}"] = path
    return written


def compare_csv_dirs(
    derived_dir: Union[os.PathLike, str],
    golden_dir: Union[os.PathLike, str],
) -> List[str]:
    """Byte-compare every golden CSV against its freshly derived twin.

    Returns human-readable drift messages (empty = gate passes).  Extra
    non-CSV files in either directory are ignored; a golden CSV missing
    from the derived set, a derived CSV missing from the goldens, and any
    byte difference are all drift.
    """
    derived, golden = Path(derived_dir), Path(golden_dir)
    drift: List[str] = []
    golden_names = sorted(p.name for p in golden.glob("*.csv"))
    derived_names = sorted(p.name for p in derived.glob("*.csv"))
    if not golden_names:
        return [f"no golden CSVs under {golden} — regenerate with "
                f"`python -m repro report --golden`"]
    for name in golden_names:
        if name not in derived_names:
            drift.append(f"{name}: present in goldens, not derived")
            continue
        golden_bytes = (golden / name).read_bytes()
        derived_bytes = (derived / name).read_bytes()
        if golden_bytes != derived_bytes:
            drift.append(_first_difference(name, golden_bytes, derived_bytes))
    for name in derived_names:
        if name not in golden_names:
            drift.append(f"{name}: derived but missing from goldens "
                         f"(regenerate with `python -m repro report --golden`)")
    return drift


def _first_difference(name: str, golden: bytes, derived: bytes) -> str:
    golden_lines = golden.decode(errors="replace").splitlines()
    derived_lines = derived.decode(errors="replace").splitlines()
    for number, (expected, got) in enumerate(zip(golden_lines, derived_lines), 1):
        if expected != got:
            return (f"{name}:{number}: golden {expected!r} != derived {got!r}")
    return (f"{name}: line count differs "
            f"(golden {len(golden_lines)}, derived {len(derived_lines)})")
