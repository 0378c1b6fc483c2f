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
``report.html``
    A static HTML report embedding the tables and the spec
    fingerprint/provenance header.
``timeline.html``
    When the report is built from manifests: one lane per worker process,
    one bar per executed cell (:func:`render_timeline_html`).
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
import math
import os
from pathlib import Path
from typing import Dict, List, Mapping, Sequence, Tuple, Union

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
    return tables


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


def render_timeline_html(manifests) -> str:
    """Where the workers' wall time went: one lane per worker, one bar per
    executed cell.

    A manifest cell that ran records its start, counted from its run's
    start, its phase timings and its worker's pid.  The shards of a grid ran
    apart, so each shard's lanes start at 0 and a lane is keyed by shard and
    pid.  Cache-served cells, and cells of manifests written before those
    fields existed, draw no bar.  Nor does a cell that shared another cell's
    simulation: it is ``ok`` with no timings.  A failed cell keeps its bar.
    """
    from repro.runner.manifest import STATUS_OK

    lanes: Dict[str, list] = {}
    for manifest in manifests:
        shard = (f"shard {manifest.shard_index + 1}/{manifest.shard_count} "
                 if manifest.shard_count > 1 else "")
        for cell in manifest.cells:
            if cell.from_cache or cell.worker_pid is None or cell.start_seconds is None:
                continue
            if cell.status == STATUS_OK and not cell.timings:
                continue
            lanes.setdefault(f"{shard}pid {cell.worker_pid}", []).append(cell)
    cells = [cell for lane in lanes.values() for cell in lane]
    horizon = max((c.start_seconds + c.elapsed_seconds for c in cells), default=0.0)
    horizon = horizon or 1.0
    width, lane_height, label_width = 900, 26, 170
    scale = (width - label_width - 10) / horizon
    svg: List[str] = []
    table = ["<table><tr><th>worker</th><th>cells</th><th>trace build s</th>"
             "<th>simulate s</th></tr>"]
    for index, lane in enumerate(sorted(lanes)):
        y = 10 + index * lane_height
        svg.append(f"<text class='lane' x='10' y='{y + 17}' font-size='12'>"
                   f"{html.escape(lane)}</text>")
        for cell in lanes[lane]:
            build = cell.timings.get("trace_build_seconds", 0.0)
            x = label_width + cell.start_seconds * scale
            title = html.escape(
                f"{cell.label}: start {cell.start_seconds:.3f} s, trace build "
                f"{build * 1e3:.1f} ms, total {cell.elapsed_seconds * 1e3:.1f} ms")
            svg.append(
                f"<g class='cell'><title>{title}</title>"
                f"<rect x='{x:.1f}' y='{y + 3}' height='{lane_height - 6}' "
                f"width='{max(cell.elapsed_seconds * scale, 1.0):.1f}' fill='#335c81'/>"
                f"<rect x='{x:.1f}' y='{y + 3}' height='{lane_height - 6}' "
                f"width='{build * scale:.1f}' fill='#e09f3e'/></g>")
        totals = [sum(c.timings.get(phase, 0.0) for c in lanes[lane])
                  for phase in ("trace_build_seconds", "simulate_seconds")]
        table.append(
            f"<tr><td>{html.escape(lane)}</td><td>{len(lanes[lane])}</td>"
            + "".join(f"<td>{total:.3f}</td>" for total in totals) + "</tr>")
    table.append("</table>")
    return "\n".join([
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        f"<title>sweep timeline</title><style>{_HTML_STYLE}</style></head><body>",
        "<h1>Sweep timeline</h1>",
        f"<p>{len(cells)} executed cells on {len(lanes)} worker lane(s) over "
        f"{horizon:.3f} s. Orange is trace build, blue is simulation; hover a "
        "bar for its cell.</p>",
        f"<svg width='{width}' height='{20 + lane_height * len(lanes)}' role='img' "
        f"aria-label='per-worker cell timeline'>{''.join(svg)}</svg>",
        *table,
        "<p><a href='report.html'>Back to report</a></p></body></html>",
    ])


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
        "scale": spec.knobs.scale,
        "seed": spec.knobs.seed,
    }
    if result.merged_shards is not None:
        provenance["merged_shards"] = result.merged_shards
    if result.shard_count is not None:
        provenance["shard"] = f"{result.shard_index + 1}/{result.shard_count}"
    for manifest in manifests or ():
        summary = manifest.provenance()
        provenance.setdefault("manifest_schema", summary["schema"])
        provenance[f"manifest[{summary['shard']}]"] = summary["path"]
    return provenance


def write_report(
    result,
    out_dir: Union[os.PathLike, str],
    manifests=None,
    plots: bool = True,
    html_report: bool = True,
    normalize_to: str = "ZnG",
) -> Dict[str, Path]:
    """Emit the full artifact set for a sweep result into ``out_dir``.

    Returns ``{artifact name: path}``.  CSV bytes are a pure function of
    the result's numbers; the HTML embeds provenance and may list
    machine-local detail (paths, elapsed, the timeline), so only the CSVs
    are gated.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    tables = report_tables(result, normalize_to=normalize_to)
    written: Dict[str, Path] = {}
    for name, (header, rows) in tables.items():
        written[f"{name}.csv"] = write_csv(out / f"{name}.csv", header, rows)

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
        if manifests:
            timeline_path = out / "timeline.html"
            timeline_path.write_text(render_timeline_html(manifests))
            written["timeline.html"] = timeline_path
    return written


def report_from_manifests(
    manifest_paths: Sequence[Union[os.PathLike, str]],
    out_dir: Union[os.PathLike, str],
    **kwargs,
) -> Dict[str, Path]:
    """Merge manifests (completeness-verified) and emit the artifact set."""
    from repro.runner.manifest import RunManifest, merge_manifests

    result = merge_manifests(manifest_paths)
    manifests = [RunManifest.load(path) for path in manifest_paths]
    return write_report(result, out_dir, manifests=manifests, **kwargs)


# ---------------------------------------------------------------------------
# Goldens
# ---------------------------------------------------------------------------


def golden_spec():
    """The golden sweep's declared grid — CI's fig10 matrix, bit for bit."""
    from repro.configspace import get_preset

    return get_preset(GOLDEN_PRESET).spec(scale=GOLDEN_SCALE)


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
