"""Render a span log into report artifacts: ``spans.csv`` + ``timeline.html``.

``repro report`` calls :func:`write_timeline_artifacts` when it finds
telemetry event files next to the manifests it was given.  Both artifacts
go into the report's ``telemetry/`` *subdirectory*: the golden gate
(:func:`repro.analysis.reporting.compare_csv_dirs`) byte-compares the
top-level CSVs only, and span timings are wall-clock — observational, never
golden-gated — so they must not sit next to the gated numbers.

``spans.csv`` is emitted through the same canonical CSV writer as every
gated table (shortest round-trip floats, LF newlines, RFC-4180 quoting)
with rows deterministically ordered by ``(worker, start, span_id)``, so two
readings of the same event log produce identical bytes.

``timeline.html`` draws one swimlane per worker: each span is a rect
positioned by wall-clock start/duration, coloured by span name, with the
full detail in a hover tooltip.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.telemetry.schema import read_events, span_records

SPANS_HEADER = [
    "worker", "name", "platform", "workload", "override",
    "start_seconds", "duration_seconds", "status", "span_id", "parent_id",
]

#: Deterministic lane colours, assigned to span names in sorted order.
_PALETTE = (
    "#335c81", "#d1495b", "#6a994e", "#e09f3e", "#5f0f40",
    "#386641", "#9a031e", "#0f4c5c", "#bc6c25", "#4a4e69",
)


def collect_events(telemetry_dirs: Sequence) -> List[Dict[str, object]]:
    """All records across several telemetry directories (e.g. one per shard)."""
    events: List[Dict[str, object]] = []
    for directory in telemetry_dirs:
        events.extend(read_events(directory))
    return events


def spans_table(
    events: Sequence[Dict[str, object]],
) -> Tuple[List[str], List[List[object]]]:
    """The canonical ``spans.csv`` table: one row per span record.

    ``start_seconds`` is relative to the earliest span in the log, so the
    table carries no absolute wall-clock dependence beyond durations.
    """
    spans = span_records(events)
    if not spans:
        return SPANS_HEADER, []
    origin = min(float(record.get("ts", 0.0)) for record in spans)
    rows: List[List[object]] = []
    for record in spans:
        attrs = record.get("attrs") or {}
        rows.append([
            str(record.get("worker", "?")),
            str(record.get("name", "?")),
            str(attrs.get("platform", "")),
            str(attrs.get("workload", "")),
            str(attrs.get("override", "")),
            float(record.get("ts", 0.0)) - origin,
            float(record.get("duration_seconds", 0.0)),
            str(record.get("status", "ok")),
            str(record.get("span_id", "")),
            str(record.get("parent_id") or ""),
        ])
    rows.sort(key=lambda row: (row[0], row[5], row[8]))
    return SPANS_HEADER, rows


def render_timeline_html(events: Sequence[Dict[str, object]]) -> str:
    """The per-worker swimlane page for one telemetry log."""
    from repro.analysis.reporting import _HTML_STYLE  # shared look & feel

    spans = span_records(events)
    parts = [
        "<!DOCTYPE html><html><head><meta charset='utf-8'>",
        "<title>telemetry timeline</title>",
        f"<style>{_HTML_STYLE}</style></head><body>",
        "<h1>Telemetry timeline</h1>",
        "<p>One swimlane per worker; spans positioned by wall-clock start "
        "and duration (<code>repro-telemetry-v1</code> span records). Hover "
        "a span for detail.</p>",
    ]
    if not spans:
        parts.append("<p class='note'>No span records found.</p>")
        parts.append("</body></html>")
        return "\n".join(parts)

    origin = min(float(record.get("ts", 0.0)) for record in spans)
    horizon = max(
        float(record.get("ts", 0.0)) + float(record.get("duration_seconds", 0.0))
        for record in spans
    ) - origin
    horizon = horizon or 1e-9
    workers = sorted({str(record.get("worker", "?")) for record in spans})
    names = sorted({str(record.get("name", "?")) for record in spans})
    colors = {
        name: _PALETTE[index % len(_PALETTE)]
        for index, name in enumerate(names)
    }

    width, lane_height, pad, label_w = 900, 26, 10, 180
    height = 2 * pad + lane_height * len(workers)
    chart_w = width - label_w - 2 * pad
    rects: List[str] = []
    for lane, worker in enumerate(workers):
        y = pad + lane * lane_height
        rects.append(
            f"<text x='{pad}' y='{y + lane_height * 0.65:.1f}' "
            f"font-size='12'>{html.escape(worker)}</text>")
        for record in spans:
            if str(record.get("worker", "?")) != worker:
                continue
            start = float(record.get("ts", 0.0)) - origin
            duration = float(record.get("duration_seconds", 0.0))
            x = label_w + pad + (start / horizon) * chart_w
            w = max((duration / horizon) * chart_w, 1.0)
            name = str(record.get("name", "?"))
            attrs = record.get("attrs") or {}
            detail = " ".join(
                f"{key}={attrs[key]}" for key in sorted(attrs)) or "-"
            title = (f"{name} [{worker}] start={start:.3f}s "
                     f"dur={duration * 1000:.2f}ms {detail}")
            rects.append(
                f"<rect x='{x:.1f}' y='{y + 3:.1f}' width='{w:.1f}' "
                f"height='{lane_height - 6}' fill='{colors[name]}' "
                f"fill-opacity='0.8'><title>{html.escape(title)}</title></rect>")
    parts.append(
        f"<svg width='{width}' height='{height}' role='img' "
        f"aria-label='per-worker span swimlane'>{''.join(rects)}</svg>")

    legend = "".join(
        f"<span style='color:{colors[name]}'>&#9632;</span> "
        f"{html.escape(name)} &nbsp; " for name in names)
    parts.append(f"<p>{legend}</p>")

    # Aggregate table: where the workers' time went, by span name.
    totals: Dict[str, List[float]] = {}
    for record in spans:
        entry = totals.setdefault(str(record.get("name", "?")), [0, 0.0])
        entry[0] += 1
        entry[1] += float(record.get("duration_seconds", 0.0))
    parts.append("<h2>Span totals</h2><table>")
    parts.append("<tr><th>span</th><th>count</th><th>total seconds</th>"
                 "<th>mean ms</th></tr>")
    for name in sorted(totals):
        count, total = totals[name]
        parts.append(
            f"<tr><td>{html.escape(name)}</td><td>{count}</td>"
            f"<td>{total:.4f}</td><td>{total / count * 1000:.3f}</td></tr>")
    parts.append("</table>")
    parts.append(f"<p class='note'>{len(spans)} spans, "
                 f"{len(workers)} worker(s), horizon {horizon:.3f}s.</p>")
    parts.append("<p><a href='../report.html'>Back to report</a></p>")
    parts.append("</body></html>")
    return "\n".join(parts)


def write_timeline_artifacts(
    telemetry_dirs: Sequence, out_dir
) -> Dict[str, Path]:
    """Emit ``telemetry/spans.csv`` + ``telemetry/timeline.html`` under ``out_dir``.

    Returns ``{relative name: path}`` — empty when the directories hold no
    events, so callers can splice it into the report's ``written`` mapping
    unconditionally.
    """
    from repro.analysis.reporting import write_csv

    events = collect_events(telemetry_dirs)
    if not events:
        return {}
    out = Path(out_dir) / "telemetry"
    out.mkdir(parents=True, exist_ok=True)
    header, rows = spans_table(events)
    written = {
        "telemetry/spans.csv": write_csv(out / "spans.csv", header, rows),
    }
    timeline = out / "timeline.html"
    timeline.write_text(render_timeline_html(events))
    written["telemetry/timeline.html"] = timeline
    return written
