"""Bench: Figure 11 — achieved Z-NAND flash-array bandwidth per platform."""

from repro.analysis.figures import figure_11_from_result
from benchmarks.harness import run_once, run_preset


def _figure_11(scale, mixes):
    return figure_11_from_result(run_preset("fig11", mixes, scale))


def test_fig11_flash_bandwidth(benchmark, bench_scale, bench_mixes):
    data = run_once(benchmark, _figure_11, bench_scale, bench_mixes)

    # HybridGPU's flash-array bandwidth is stuck low; ZnG extracts far more.
    for mix_name, row in data.items():
        assert row["HybridGPU"] < 10.0, mix_name
        assert row["ZnG"] >= row["HybridGPU"], mix_name

    print("\nFigure 11 — Flash-array read bandwidth (GB/s)")
    platforms = ["HybridGPU", "ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG"]
    print(f"  {'mix':12s}" + "".join(f"{p:>12s}" for p in platforms))
    for mix_name, row in data.items():
        print(f"  {mix_name:12s}" + "".join(f"{row[p]:>12.2f}" for p in platforms))
