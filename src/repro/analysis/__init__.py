"""Analysis layer: metrics, figure/table reproduction and reporting."""

from repro.analysis.metrics import (
    normalized_ipc,
    speedup,
    bandwidth_gbps,
    latency_breakdown_fractions,
)
from repro.analysis.figures import (
    figure_1b,
    figure_3,
    figure_4c,
    figure_4d,
    figure_5a_from_result,
    figure_5b,
    figure_5c,
    figure_5d,
    figure_8b,
    figure_10_from_result,
    figure_11_from_result,
)
from repro.analysis.tables import table_1_configuration, table_2_workloads
from repro.analysis.report import (
    format_figure_table,
    format_records_table,
    render_report,
)
from repro.analysis.reporting import (
    ReportError,
    canonical_number,
    compare_csv_dirs,
    report_from_manifests,
    report_tables,
    write_csv,
    write_goldens,
    write_report,
)

__all__ = [
    "normalized_ipc",
    "speedup",
    "bandwidth_gbps",
    "latency_breakdown_fractions",
    "figure_1b",
    "figure_3",
    "figure_4c",
    "figure_4d",
    "figure_5a_from_result",
    "figure_5b",
    "figure_5c",
    "figure_5d",
    "figure_8b",
    "figure_10_from_result",
    "figure_11_from_result",
    "table_1_configuration",
    "table_2_workloads",
    "format_figure_table",
    "format_records_table",
    "render_report",
    "ReportError",
    "canonical_number",
    "compare_csv_dirs",
    "report_from_manifests",
    "report_tables",
    "write_csv",
    "write_goldens",
    "write_report",
]
