"""Generate a complete textual reproduction report.

Stitches together every table and figure into one report, suitable for
``python -m repro.analysis.fullreport`` or for regenerating the narrative
parts of EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.analysis import figures, tables
from repro.analysis.report import (
    format_figure_table,
    format_records_table,
    render_report,
)
from repro.configspace.presets import EVAL_PLATFORMS, get_preset
from repro.workloads.suites import mix_name


def _table1_section() -> str:
    lines = ["Table I — System configuration", "=" * 30]
    for subsystem, values in tables.table_1_configuration().items():
        lines.append(f"[{subsystem}]")
        for key, value in values.items():
            lines.append(f"  {key:24s}: {value}")
    return "\n".join(lines)


def _table2_section() -> str:
    # Rows come from the workload registry (all families, parametric ones
    # included) and column widths from the data, so dashed family names like
    # ``kv-lookup`` neither truncate nor misalign.
    return format_records_table(
        "Table II — workload families",
        ["workload", "suite", "read_ratio", "kernels", "params"],
        tables.table_2_workloads(),
        formats={"read_ratio": "{:.2f}"},
    )


def generate_report(
    scale: float = 0.2,
    mixes: Optional[Sequence[Tuple[str, str]]] = None,
) -> str:
    """Build the full report at a given trace scale.

    Figures 5a, 10 and 11 all pivot one sweep over GDDR5 plus the seven
    evaluation platforms, so no cell runs twice.
    """
    from repro.runner import run_sweep

    quick_mixes = list(mixes or [("betw", "back"), ("bfs1", "gaus")])
    result = run_sweep(get_preset("fig10").spec(
        platforms=["GDDR5", *EVAL_PLATFORMS],
        workloads=[mix_name(read, write) for read, write in quick_mixes],
        scale=scale,
    ))
    sections: List[str] = [
        _table1_section(),
        _table2_section(),
        format_figure_table(
            "Figure 1b — Accumulated bandwidth (GB/s)", figures.figure_1b(), "{:.2f}"
        ),
        format_figure_table(
            "Figure 3a — Density (GB/package)",
            {k: v["density_gb"] for k, v in figures.figure_3().items()},
            "{:.2f}",
        ),
        format_figure_table(
            "Figure 3b — Power (W/GB)",
            {k: v["power_w_per_gb"] for k, v in figures.figure_3().items()},
            "{:.2f}",
        ),
        format_figure_table(
            "Figure 4c — Peak throughput (GB/s)", figures.figure_4c(), "{:.2f}"
        ),
        format_figure_table(
            "Figure 5a — Raw Z-NAND degradation (GDDR5/ZnG-base)",
            figures.figure_5a_from_result(result),
            "{:.1f}",
        ),
        format_figure_table(
            "Figure 5b — Read re-accesses per page",
            figures.figure_5b(scale=scale, mixes=quick_mixes),
            "{:.1f}",
        ),
        format_figure_table(
            "Figure 5c — Write redundancy per page",
            figures.figure_5c(scale=scale, mixes=quick_mixes),
            "{:.1f}",
        ),
    ]
    sections.extend(result_sections(result))
    return render_report(sections)


def result_sections(result) -> List[str]:
    """Figure 10/11 sections rendered from an already-run sweep result.

    Works for a live sweep and for one folded together by ``repro merge``
    alike, so the textual report and the ``repro report`` artifacts always
    agree on the numbers.  Figure 10 plots the evaluation platforms and
    Figure 11 the flash-backed ones (the ``fig11`` preset's) that the
    result covers.
    """
    platforms = result.spec.platforms
    evaluated = [p for p in platforms if p in EVAL_PLATFORMS]
    flash = [p for p in get_preset("fig11").platforms if p in platforms]
    return [
        format_figure_table(
            "Figure 10 — Normalised IPC (to ZnG)",
            figures.figure_10_from_result(result, platforms=evaluated or None),
            "{:.3f}",
        ),
        format_figure_table(
            "Figure 11 — Flash-array bandwidth (GB/s)",
            figures.figure_11_from_result(result, platforms=flash or None),
            "{:.2f}",
        ),
    ]


def main() -> None:  # pragma: no cover - CLI entry point
    print(generate_report())


if __name__ == "__main__":  # pragma: no cover
    main()
