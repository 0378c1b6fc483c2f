"""Reproduction entry points for every figure in the paper's evaluation.

The simulated figures (5a, 10, 11) are pure pivots over an already-run
:class:`repro.runner.SweepResult`: declare the grid once as an experiment
preset (``get_preset("fig10").spec(scale=...)``), run it with
:func:`repro.runner.run_sweep` — or merge it from shard manifests — and hand
the result to ``figure_*_from_result``.  One sweep can feed several figures.
The remaining ``figure_*`` functions compute their data directly: analytic
bandwidths, workload characterisation, or a single platform run.

Absolute numbers differ from the paper (different substrate, synthetic
traces); the *shape* — who wins, by roughly what factor, where the
bottleneck sits — is asserted by the benches in ``benchmarks/``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

from repro.config import (
    DRAM_TECHNOLOGIES,
    PlatformConfig,
    default_config,
)
from repro.platforms.base import GPUSSDPlatform
from repro.platforms.zng import build_platform
from repro.workloads.multiapp import build_all_mixes, build_mix
from repro.workloads.suites import ALL_WORKLOADS
from repro.workloads.trace import TraceKnobs

if TYPE_CHECKING:
    import numpy as np

#: Default (small) trace scale used when a caller does not specify one.
DEFAULT_SCALE = 0.25


def _small_knobs(scale: float) -> TraceKnobs:
    """The single-run figures' trace: 2 warps/SM, 48 memory instructions per
    warp, seeded from the workload name."""
    return TraceKnobs(scale=scale, seed=None, warps_per_sm=2,
                      memory_instructions_per_warp=48)


# ---------------------------------------------------------------------------
# Pivots over an already-run sweep
# ---------------------------------------------------------------------------


def figure_10_from_result(
    result,
    platforms: Optional[Sequence[str]] = None,
    normalize_to: str = "ZnG",
) -> Dict[str, Dict[str, float]]:
    """Figure 10: per-mix IPC normalised to ``normalize_to`` (ZnG).

    ``result`` is any :class:`repro.runner.SweepResult` covering the fig10
    platforms x mixes — a live run or one folded together by ``repro merge``
    from N shard manifests; platforms default to the result's own spec.
    Returns ``{mix_name: {platform: normalised_ipc}}``.
    """
    platform_names = list(platforms or result.spec.platforms)
    output: Dict[str, Dict[str, float]] = {}
    for name, results in result.grid().items():
        reference = results[normalize_to].ipc if normalize_to in results else None
        if not reference:  # absent or zero: fall back to the per-mix best
            reference = max(run.ipc for run in results.values()) or 1.0
        output[name] = {p: results[p].ipc / reference for p in platform_names}
    return output


def figure_11_from_result(
    result,
    platforms: Optional[Sequence[str]] = None,
) -> Dict[str, Dict[str, float]]:
    """Figure 11 (flash-array read bandwidth) from an already-run sweep."""
    platform_names = list(platforms or result.spec.platforms)
    return {
        name: {
            platform: results[platform].flash_array_read_bandwidth_gbps
            for platform in platform_names
            if platform in results
        }
        for name, results in result.grid().items()
    }


def figure_5a_from_result(result) -> Dict[str, float]:
    """Figure 5a from an already-run sweep: per-mix slowdown of direct
    Z-NAND accesses (ZnG-base) vs GDDR5.

    ``result`` must cover both platforms.  The paper reports degradations of
    up to ~28x because a 128 B request wastes 97 % of the 4 KB flash page it
    senses.
    """
    degradation: Dict[str, float] = {}
    for name, results in result.grid().items():
        gddr5, raw = results["GDDR5"], results["ZnG-base"]
        degradation[name] = gddr5.ipc / raw.ipc if raw.ipc else float("inf")
    return degradation


def scenario_suite_from_result(
    result,
    metric: str = "ipc",
) -> Dict[str, Dict[str, Dict[str, float]]]:
    """Pivot a registry-workload sweep into ``{family: {token: {platform: v}}}``.

    The figure-style pivot for the open workload axis: rows group by
    workload *family* (``kv-lookup``, ``multi-tenant``, Table II apps, ...)
    with one sub-row per parameterised instance, so a ``scenario-suite`` or
    ``kv-sweep`` run — including one merged from shard manifests — tabulates
    without re-running anything.  Mix cells group under their mix token.
    """
    from repro.workloads.registry import parse_workload_token, resolve_workload

    out: Dict[str, Dict[str, Dict[str, float]]] = {}
    for run in result:
        token = run.cell.workload
        read_app, write_app = parse_workload_token(token)
        if write_app is None and not token.startswith("trace:"):
            family = resolve_workload(read_app).family.name
        else:
            family = token
        out.setdefault(family, {}).setdefault(token, {})[run.cell.platform] = (
            float(getattr(run.result, metric)))
    return out


# ---------------------------------------------------------------------------
# Figure 1b — accumulated bandwidth of HybridGPU components vs GDDR5
# ---------------------------------------------------------------------------


def figure_1b(config: Optional[PlatformConfig] = None) -> Dict[str, float]:
    """Peak bandwidth (GB/s) of GDDR5 vs each HybridGPU component.

    The paper's point: every component of the embedded SSD (DRAM buffer, flash
    channels, flash array write path, SSD engine) sits one to two orders of
    magnitude below the traditional GPU memory subsystem.
    """
    cfg = config or default_config()
    znand = cfg.znand
    engine = cfg.ssd_engine
    flash_channel_total = znand.channel_bandwidth_bytes_per_s * znand.channels
    flash_read = min(znand.accumulated_read_bandwidth_bytes_per_s, flash_channel_total)
    plane_write_bw = znand.page_size_bytes / (znand.program_latency_us * 1e-6)
    flash_write = min(plane_write_bw * znand.total_planes, flash_channel_total)
    return {
        "GDDR5": DRAM_TECHNOLOGIES["GDDR5"].peak_bandwidth_gbps,
        "DRAM buffer": engine.dram_buffer_bandwidth_bytes_per_s / 1e9,
        "Flash channel": flash_channel_total / 1e9,
        "Flash read": flash_read / 1e9,
        "Flash write": flash_write / 1e9,
        "SSD engine": engine.engine_throughput_bytes_per_s / 1e9,
    }


# ---------------------------------------------------------------------------
# Figure 3 — memory density and power consumption
# ---------------------------------------------------------------------------


def figure_3() -> Dict[str, Dict[str, float]]:
    """Per-technology package density (GB) and power (W/GB), Figs 3a/3b."""
    return {
        name: {
            "density_gb": tech.package_capacity_gb,
            "power_w_per_gb": tech.power_w_per_gb,
        }
        for name, tech in DRAM_TECHNOLOGIES.items()
    }


# ---------------------------------------------------------------------------
# Figure 4c — maximum data-access throughput of the memory media
# ---------------------------------------------------------------------------


def figure_4c(config: Optional[PlatformConfig] = None) -> Dict[str, float]:
    """Peak throughput (GB/s) of GDDR5/DDR4/LPDDR4/GPU-SSD/HybridGPU.

    For the two SSD-based systems the data is assumed to reside in the SSD, so
    their throughput is capped by the slowest element of their data path.
    """
    cfg = config or default_config()
    gpu_ssd = min(
        cfg.host.nvme_bandwidth_gbps,
        cfg.host.pcie_bandwidth_gbps,
        cfg.host.host_copy_bandwidth_gbps,
    )
    hybrid = min(
        cfg.ssd_engine.engine_throughput_bytes_per_s / 1e9,
        cfg.ssd_engine.dram_buffer_bandwidth_bytes_per_s / 1e9,
        cfg.znand.channel_bandwidth_bytes_per_s * cfg.znand.channels / 1e9,
    )
    return {
        "GDDR5": DRAM_TECHNOLOGIES["GDDR5"].peak_bandwidth_gbps,
        "DDR4": DRAM_TECHNOLOGIES["DDR4"].peak_bandwidth_gbps,
        "LPDDR4": DRAM_TECHNOLOGIES["LPDDR4"].peak_bandwidth_gbps,
        "ZSSD (GPU-SSD)": gpu_ssd,
        "HybridGPU": hybrid,
    }


# ---------------------------------------------------------------------------
# Figure 4d — memory-access latency breakdown, GPU(DRAM) vs HybridGPU
# ---------------------------------------------------------------------------


def figure_4d(
    scale: float = DEFAULT_SCALE,
    mix: Tuple[str, str] = ("betw", "back"),
    config: Optional[PlatformConfig] = None,
) -> Dict[str, Dict[str, float]]:
    """Latency-breakdown fractions per component for GDDR5 and HybridGPU."""
    workload = build_mix(*mix, _small_knobs(scale))
    return {
        name: GPUSSDPlatform.execute(name, workload.combined, config).breakdown_fractions()
        for name in ("GDDR5", "HybridGPU")
    }


# ---------------------------------------------------------------------------
# Figures 5b / 5c / 5d — workload characterisation
# ---------------------------------------------------------------------------


def figure_5b(
    scale: float = DEFAULT_SCALE, mixes: Optional[Sequence[Tuple[str, str]]] = None
) -> Dict[str, float]:
    """Average read re-accesses per Z-NAND page, per mix (paper average ~42)."""
    return {
        name: mix.combined.mean_read_reaccess
        for name, mix in build_all_mixes(TraceKnobs(scale=scale, seed=None), mixes).items()
    }


def figure_5c(
    scale: float = DEFAULT_SCALE, mixes: Optional[Sequence[Tuple[str, str]]] = None
) -> Dict[str, float]:
    """Average write redundancy per Z-NAND page, per mix (paper average ~65)."""
    return {
        name: mix.combined.mean_write_redundancy
        for name, mix in build_all_mixes(TraceKnobs(scale=scale, seed=None), mixes).items()
    }


def figure_5d(scale: float = DEFAULT_SCALE) -> Dict[str, Dict[str, float]]:
    """Read/write access fraction per single application (Table II workloads)."""
    from repro.workloads.generators import generate_workload

    fractions: Dict[str, Dict[str, float]] = {}
    for name, spec in ALL_WORKLOADS.items():
        trace = generate_workload(spec, _small_knobs(scale))
        read_fraction = trace.measured_read_ratio
        fractions[name] = {"read": read_fraction, "write": 1.0 - read_fraction}
    return fractions


# ---------------------------------------------------------------------------
# Figure 8b — asymmetric writes across channels and planes
# ---------------------------------------------------------------------------


def figure_8b(
    scale: float = DEFAULT_SCALE,
    mix: Tuple[str, str] = ("betw", "back"),
    platform: str = "ZnG-base",
    config: Optional[PlatformConfig] = None,
) -> np.ndarray:
    """Write-count heat map over (channel, plane) after running a mix."""
    workload = build_mix(*mix, _small_knobs(scale))
    built = build_platform(platform, config)
    built.run(workload.combined)
    return built.array.write_heatmap()  # type: ignore[attr-defined]
