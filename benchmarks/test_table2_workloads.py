"""Bench: regenerate Table II (workload read ratios and kernel counts)."""

from repro.analysis.tables import table_2_workloads

#: Table II of the paper: suite, read ratio and kernel count of each of the
#: sixteen applications.
TABLE_II = {
    "betw": ("graph", 0.98, 11),
    "bfs1": ("graph", 0.95, 7),
    "bfs2": ("graph", 0.99, 9),
    "bfs3": ("graph", 0.88, 10),
    "bfs4": ("graph", 0.97, 12),
    "bfs5": ("graph", 0.99, 6),
    "bfs6": ("graph", 0.97, 7),
    "gc1": ("graph", 0.98, 8),
    "gc2": ("graph", 0.99, 10),
    "sssp3": ("graph", 0.98, 8),
    "deg": ("graph", 1.0, 1),
    "pr": ("graph", 0.99, 53),
    "back": ("scientific", 0.57, 1),
    "gaus": ("scientific", 0.66, 3),
    "FDT": ("scientific", 0.73, 1),
    "gram": ("scientific", 0.75, 3),
}

#: The registered family beyond the paper; it has no read-ratio or
#: kernel-count knob, so its Table II columns are empty.
PARAMETRIC = {"kv-lookup"}


def _cell(value, spec: str) -> str:
    return "-" if value is None else format(value, spec)


def test_table2_workloads(benchmark):
    rows = benchmark(table_2_workloads)
    by_name = {row["workload"]: row for row in rows}
    assert len(by_name) == len(rows)
    assert set(by_name) == set(TABLE_II) | PARAMETRIC
    for name, expected in TABLE_II.items():
        row = by_name[name]
        assert (row["suite"], row["read_ratio"], row["kernels"]) == expected, name
    for name in PARAMETRIC:
        row = by_name[name]
        assert row["suite"] == "parametric", name
        assert row["read_ratio"] is None and row["kernels"] is None, name

    print("\nTable II — GPU benchmarks")
    print(f"  {'workload':20s} {'suite':12s} {'read_ratio':>10s} {'kernels':>8s}")
    for row in rows:
        print(
            f"  {row['workload']:20s} {row['suite']:12s} "
            f"{_cell(row['read_ratio'], '.2f'):>10s} {_cell(row['kernels'], 'd'):>8s}"
        )
