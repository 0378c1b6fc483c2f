"""Integration tests asserting the paper's qualitative result ordering.

These run a shared moderate-scale mix once per session and check the *shape*
of the results (who wins, by roughly what factor), not absolute numbers.
"""

import pytest

from repro.platforms import build_platform
from repro.platforms.zng import PLATFORM_NAMES
from repro.workloads.multiapp import build_mix
from repro.workloads.trace import TraceKnobs


@pytest.fixture(scope="module")
def results():
    # Enough thread-level parallelism for the GPU to hide Z-NAND latency — the
    # regime the paper targets (up to 80 warps/SM).  ZnG's advantage over
    # Optane grows with TLP, so a too-small warp count understates it.
    mix = build_mix("betw", "back", TraceKnobs(
        scale=0.4, seed=1, warps_per_sm=12, memory_instructions_per_warp=96))
    out = {}
    for name in ["GDDR5"] + PLATFORM_NAMES:
        out[name] = build_platform(name).run(mix.combined)
    return out


class TestHeadlineResults:
    def test_zng_beats_hybrid_gpu(self, results):
        """ZnG is several-fold faster than HybridGPU (paper: 7.5x)."""
        speedup = results["ZnG"].ipc / results["HybridGPU"].ipc
        assert speedup > 2.0

    def test_zng_beats_optane(self, results):
        """ZnG exceeds the Optane baseline (paper: ~1.9x bandwidth)."""
        assert results["ZnG"].ipc > results["Optane"].ipc

    def test_optane_beats_hybrid_gpu(self, results):
        """Optane improves on HybridGPU (paper: +186%)."""
        assert results["Optane"].ipc > results["HybridGPU"].ipc

    def test_gddr5_is_fastest(self, results):
        """The resident-DRAM reference bounds every flash/Optane platform."""
        best_non_dram = max(
            results[name].ipc for name in PLATFORM_NAMES
        )
        assert results["GDDR5"].ipc >= best_non_dram


class TestOptimizationContributions:
    def test_write_optimization_is_large(self, results):
        """ZnG-wropt dramatically outperforms the unbuffered base/rdopt."""
        assert results["ZnG-wropt"].ipc > 5 * results["ZnG-base"].ipc

    def test_full_at_least_matches_wropt(self, results):
        assert results["ZnG"].ipc >= 0.9 * results["ZnG-wropt"].ipc

    def test_read_optimization_helps_over_base(self, results):
        """The read optimisation improves on the base once writes are buffered."""
        assert results["ZnG"].ipc >= results["ZnG-wropt"].ipc * 0.9


class TestRawZNandDegradation:
    def test_raw_znand_is_far_slower_than_dram(self, results):
        """Fig. 5a: direct Z-NAND access degrades performance by a large factor."""
        degradation = results["GDDR5"].ipc / results["ZnG-base"].ipc
        assert degradation > 5.0


class TestFlashBandwidth:
    def test_zng_extracts_more_flash_bandwidth(self, results):
        """Fig. 11: ZnG reaches far higher flash-array bandwidth than HybridGPU."""
        assert (
            results["ZnG"].flash_array_read_bandwidth_gbps
            > results["HybridGPU"].flash_array_read_bandwidth_gbps
        )

    def test_hybrid_gpu_flash_bandwidth_low(self, results):
        """HybridGPU's flash-array bandwidth is stuck at a few GB/s."""
        assert results["HybridGPU"].flash_array_read_bandwidth_gbps < 10.0
