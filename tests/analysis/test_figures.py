"""Tests for the figure-reproduction entry points.

These run at a small scale and check the *shape* of each figure's output,
which is what the reproduction guarantees.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis import figures
from repro.config import DRAM_TECHNOLOGIES
from repro.configspace import get_preset
from repro.runner import run_sweep

QUICK = dict(scale=0.08)
QUICK_MIXES = [("betw", "back"), ("bfs1", "gaus")]
QUICK_TOKENS = ["betw-back", "bfs1-gaus"]


def _quick_result(preset, **fields):
    """Run ``preset`` on the quick mixes at scale 0.08."""
    return run_sweep(get_preset(preset).spec(
        scale=0.08, workloads=QUICK_TOKENS, **fields))


@pytest.fixture(scope="module")
def fig10_result():
    return _quick_result("fig10")


@pytest.fixture(scope="module")
def fig11_result():
    return _quick_result("fig11")


class TestFigure1b:
    def test_gddr5_dominates_components(self):
        data = figures.figure_1b()
        assert data["GDDR5"] > data["DRAM buffer"]
        assert data["GDDR5"] > data["SSD engine"]
        assert data["GDDR5"] > data["Flash channel"]

    def test_all_components_present(self):
        data = figures.figure_1b()
        assert {"GDDR5", "DRAM buffer", "Flash channel", "Flash read",
                "Flash write", "SSD engine"} <= set(data)


class TestFigure3:
    def test_znand_densest(self):
        data = figures.figure_3()
        densities = {k: v["density_gb"] for k, v in data.items()}
        assert densities["Z-NAND"] == max(densities.values())

    def test_gddr5_highest_power(self):
        data = figures.figure_3()
        powers = {k: v["power_w_per_gb"] for k, v in data.items()}
        assert powers["GDDR5"] == max(powers.values())

    def test_znand_lowest_power(self):
        data = figures.figure_3()
        powers = {k: v["power_w_per_gb"] for k, v in data.items()}
        assert powers["Z-NAND"] == min(powers.values())

    @pytest.mark.parametrize("name", list(DRAM_TECHNOLOGIES))
    def test_rows_are_the_technology_constants(self, name):
        tech = DRAM_TECHNOLOGIES[name]
        assert figures.figure_3()[name] == {
            "density_gb": tech.package_capacity_gb,
            "power_w_per_gb": tech.power_w_per_gb,
        }

    def test_znand_provisions_over_100x_the_capacity_per_watt(self):
        data = figures.figure_3()
        gb_per_watt = {k: 1.0 / v["power_w_per_gb"] for k, v in data.items()}
        assert gb_per_watt["Z-NAND"] > 100 * gb_per_watt["GDDR5"]

    def test_64gb_of_znand_draws_less_than_12gb_of_gddr5(self):
        """Section II-B: one 64 GB Z-NAND package at 1.28 W against the
        GPU's 12 GB of GDDR5 at 60 W."""
        data = figures.figure_3()
        znand = 64.0 * data["Z-NAND"]["power_w_per_gb"]
        gddr5 = 12.0 * data["GDDR5"]["power_w_per_gb"]
        assert znand == pytest.approx(1.28)
        assert gddr5 == pytest.approx(60.0)
        assert znand < gddr5


class TestFigure4c:
    def test_gddr5_fastest(self):
        data = figures.figure_4c()
        assert data["GDDR5"] == max(data.values())

    def test_ssd_systems_slowest(self):
        data = figures.figure_4c()
        assert data["HybridGPU"] < data["GDDR5"]
        assert data["ZSSD (GPU-SSD)"] < data["GDDR5"]


class TestFigure4d:
    def test_breakdowns_sum_to_one(self):
        data = figures.figure_4d(scale=0.08)
        for fractions in data.values():
            if fractions:
                assert sum(fractions.values()) == pytest.approx(1.0, abs=1e-6)

    def test_hybrid_gpu_dominated_by_ssd(self):
        data = figures.figure_4d(scale=0.08)
        hybrid = data["HybridGPU"]
        ssd_share = hybrid.get("ssd_engine", 0) + hybrid.get("ssd_dispatcher", 0) + hybrid.get(
            "flash_array", 0
        ) + hybrid.get("dram_buffer", 0)
        assert ssd_share > 0.5


@pytest.fixture(scope="module")
def fig5a_result():
    return _quick_result("fig10", platforms=["GDDR5", "ZnG-base"])


class TestFigure5a:
    def test_degradation_above_one(self, fig5a_result):
        data = figures.figure_5a_from_result(fig5a_result)
        for value in data.values():
            assert value > 1.0

    def test_one_gddr5_over_raw_znand_ratio_per_mix(self, fig5a_result):
        data = figures.figure_5a_from_result(fig5a_result)
        grid = fig5a_result.grid()
        assert list(data) == list(grid)
        for name, results in grid.items():
            assert data[name] == results["GDDR5"].ipc / results["ZnG-base"].ipc

    def test_result_without_gddr5_raises(self, fig10_result):
        with pytest.raises(KeyError, match="GDDR5"):
            figures.figure_5a_from_result(fig10_result)


class TestFigure5bc:
    def test_reaccess_positive(self):
        data = figures.figure_5b(scale=0.08, mixes=QUICK_MIXES)
        assert all(v > 0 for v in data.values())

    def test_write_redundancy_positive(self):
        data = figures.figure_5c(scale=0.08, mixes=QUICK_MIXES)
        assert all(v > 0 for v in data.values())


class TestFigure5d:
    def test_fractions_sum_to_one(self):
        data = figures.figure_5d(scale=0.08)
        for fractions in data.values():
            assert fractions["read"] + fractions["write"] == pytest.approx(1.0)

    def test_deg_mostly_reads(self):
        data = figures.figure_5d(scale=0.08)
        assert data["deg"]["read"] > 0.95


class TestFigure8b:
    def test_heatmap_shape_and_writes(self):
        heatmap = figures.figure_8b(scale=0.08)
        assert isinstance(heatmap, np.ndarray)
        assert heatmap.sum() > 0

    def test_writes_asymmetric(self):
        heatmap = figures.figure_8b(scale=0.15)
        # Different planes should see different write counts.
        assert heatmap.max() > heatmap.min()


class TestFigure10:
    def test_normalized_to_zng(self, fig10_result):
        data = figures.figure_10_from_result(fig10_result)
        for row in data.values():
            assert row["ZnG"] == pytest.approx(1.0)

    def test_zng_beats_hybrid_and_hetero(self, fig10_result):
        """Robust at any scale: ZnG beats the prior-work integrated SSD."""
        data = figures.figure_10_from_result(fig10_result)
        for row in data.values():
            assert row["ZnG"] > row["HybridGPU"]
            assert row["ZnG"] > row["Hetero"]

    def test_optimizations_beat_base(self, fig10_result):
        data = figures.figure_10_from_result(fig10_result)
        for row in data.values():
            assert row["ZnG"] >= row["ZnG-base"]

    def test_platforms_argument_selects_columns(self, fig10_result):
        full = figures.figure_10_from_result(fig10_result)
        subset = figures.figure_10_from_result(
            fig10_result, platforms=["HybridGPU", "ZnG"])
        assert list(subset) == list(full)
        for name, row in subset.items():
            assert row == {p: full[name][p] for p in ["HybridGPU", "ZnG"]}

    def test_zng_best_at_scale(self):
        """The headline ordering (ZnG fastest) emerges under the paper's regime
        of large data sets and high thread-level parallelism."""
        from repro.platforms import build_platform
        from repro.workloads.multiapp import build_mix
        from repro.workloads.trace import TraceKnobs

        mix = build_mix("betw", "back", TraceKnobs(
            scale=0.4, seed=1, warps_per_sm=16,
            memory_instructions_per_warp=96))
        ipc = {
            name: build_platform(name).run(mix.combined).ipc
            for name in ["HybridGPU", "Optane", "ZnG"]
        }
        assert ipc["ZnG"] == max(ipc.values())


class TestFigure11:
    def test_zng_highest_flash_bandwidth(self, fig11_result):
        data = figures.figure_11_from_result(fig11_result)
        for row in data.values():
            assert row["ZnG"] >= row["HybridGPU"]

    def test_columns_are_the_fig11_preset_platforms(self, fig11_result):
        data = figures.figure_11_from_result(fig11_result)
        assert len(data) == len(QUICK_TOKENS)
        for row in data.values():
            assert list(row) == list(get_preset("fig11").platforms)


def _fake_result(grid, platforms):
    """A stand-in for a SweepResult: ``grid`` maps mix -> platform -> fields."""
    runs = {mix: {p: SimpleNamespace(**fields) for p, fields in row.items()}
            for mix, row in grid.items()}
    return SimpleNamespace(grid=lambda: runs,
                           spec=SimpleNamespace(platforms=list(platforms)))


class TestPivots:
    """The figure pivots on hand-made results, one rule at a time."""

    def test_figure_10_divides_by_the_zng_ipc(self):
        result = _fake_result(
            {"m": {"HybridGPU": {"ipc": 1.0}, "ZnG": {"ipc": 4.0}}},
            ["HybridGPU", "ZnG"])
        assert figures.figure_10_from_result(result) == {
            "m": {"HybridGPU": 0.25, "ZnG": 1.0}}

    def test_figure_10_zero_reference_falls_back_to_the_mix_best(self):
        result = _fake_result(
            {"m": {"HybridGPU": {"ipc": 2.0}, "Hetero": {"ipc": 1.0}, "ZnG": {"ipc": 0.0}}},
            ["HybridGPU", "Hetero", "ZnG"])
        assert figures.figure_10_from_result(result) == {
            "m": {"HybridGPU": 1.0, "Hetero": 0.5, "ZnG": 0.0}}

    def test_figure_10_absent_reference_falls_back_to_the_mix_best(self):
        result = _fake_result(
            {"m": {"HybridGPU": {"ipc": 2.0}, "Hetero": {"ipc": 1.0}}},
            ["HybridGPU", "Hetero"])
        assert figures.figure_10_from_result(result) == {
            "m": {"HybridGPU": 1.0, "Hetero": 0.5}}

    def test_figure_10_all_zero_mix_reads_zero(self):
        result = _fake_result(
            {"m": {"HybridGPU": {"ipc": 0.0}, "ZnG": {"ipc": 0.0}}},
            ["HybridGPU", "ZnG"])
        assert figures.figure_10_from_result(result) == {
            "m": {"HybridGPU": 0.0, "ZnG": 0.0}}

    def test_figure_10_normalize_to_picks_the_reference(self):
        result = _fake_result(
            {"m": {"GDDR5": {"ipc": 8.0}, "ZnG": {"ipc": 2.0}}}, ["GDDR5", "ZnG"])
        assert figures.figure_10_from_result(result, normalize_to="GDDR5") == {
            "m": {"GDDR5": 1.0, "ZnG": 0.25}}

    def test_figure_10_platform_missing_from_a_mix_raises(self):
        result = _fake_result({"m": {"ZnG": {"ipc": 1.0}}}, ["HybridGPU", "ZnG"])
        with pytest.raises(KeyError, match="HybridGPU"):
            figures.figure_10_from_result(result)

    def test_figure_11_skips_platforms_missing_from_a_mix(self):
        result = _fake_result(
            {"a": {"HybridGPU": {"flash_array_read_bandwidth_gbps": 1.5},
                   "ZnG": {"flash_array_read_bandwidth_gbps": 6.0}},
             "b": {"ZnG": {"flash_array_read_bandwidth_gbps": 5.0}}},
            ["HybridGPU", "ZnG"])
        assert figures.figure_11_from_result(result) == {
            "a": {"HybridGPU": 1.5, "ZnG": 6.0}, "b": {"ZnG": 5.0}}

    def test_figure_5a_zero_raw_ipc_is_an_unbounded_slowdown(self):
        result = _fake_result(
            {"a": {"GDDR5": {"ipc": 3.0}, "ZnG-base": {"ipc": 0.5}},
             "b": {"GDDR5": {"ipc": 3.0}, "ZnG-base": {"ipc": 0.0}}},
            ["GDDR5", "ZnG-base"])
        assert figures.figure_5a_from_result(result) == {"a": 6.0, "b": float("inf")}


class TestFiguresFromMergedResults:
    """figure_*_from_result plug an already-run (e.g. shard-merged) sweep in."""

    PLATFORMS = ["HybridGPU", "ZnG-base", "ZnG"]

    def _sharded_merge(self, tmp_path, spec):
        from repro.runner import SweepRunner, merge_manifests

        paths = []
        for index in range(2):
            root = tmp_path / f"shard{index}"
            SweepRunner(workers=1, cache=root).run(
                spec.shard(index, 2), manifest_path=root / "manifest.json")
            paths.append(root / "manifest.json")
        return merge_manifests(paths)

    def test_figure_10_from_merged_result_matches_direct_run(self, tmp_path):
        spec = get_preset("fig10").spec(
            scale=0.08, workloads=QUICK_TOKENS, platforms=self.PLATFORMS)
        merged = self._sharded_merge(tmp_path, spec)
        direct = figures.figure_10_from_result(run_sweep(spec))
        assert figures.figure_10_from_result(merged) == direct

    def test_figure_11_from_merged_result_matches_direct_run(self, tmp_path):
        spec = get_preset("fig11").spec(
            scale=0.08, workloads=QUICK_TOKENS, platforms=self.PLATFORMS)
        merged = self._sharded_merge(tmp_path, spec)
        direct = figures.figure_11_from_result(run_sweep(spec))
        assert figures.figure_11_from_result(merged) == direct

    def test_figure_5a_from_merged_result_matches_direct_run(self, tmp_path):
        spec = get_preset("fig10").spec(
            scale=0.08, workloads=QUICK_TOKENS, platforms=["GDDR5", "ZnG-base"])
        merged = self._sharded_merge(tmp_path, spec)
        direct = figures.figure_5a_from_result(run_sweep(spec))
        assert figures.figure_5a_from_result(merged) == direct
