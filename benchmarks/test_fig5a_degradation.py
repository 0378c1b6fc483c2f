"""Bench: Figure 5a — performance degradation of raw Z-NAND access."""

from repro.analysis.figures import figure_5a_from_result
from benchmarks.harness import print_table, run_once, run_preset


def _figure_5a(scale, mixes):
    # The fig10 grid's trace knobs, narrowed to the two platforms compared.
    return figure_5a_from_result(
        run_preset("fig10", mixes, scale, platforms=["GDDR5", "ZnG-base"]))


def test_fig5a_degradation(benchmark, bench_scale, bench_mixes):
    data = run_once(benchmark, _figure_5a, bench_scale, bench_mixes)
    # Every mix is substantially slower on unbuffered Z-NAND than on GDDR5.
    for name, factor in data.items():
        assert factor > 2.0, f"{name} degradation {factor:.1f} too small"
    print_table("Figure 5a — Perf. degradation (GDDR5 / ZnG-base)", data, "{:.1f}")
    print(f"  geomean degradation: "
          f"{(lambda v: (len(v) and __import__('math').exp(sum(map(__import__('math').log, v))/len(v))))(list(data.values())):.1f}")
