"""Reproduction of the paper's configuration and workload tables."""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import GPU_FREQ_HZ, PlatformConfig, default_config


def table_1_configuration(config: Optional[PlatformConfig] = None) -> Dict[str, Dict[str, object]]:
    """Table I: the system configuration of ZnG, grouped by subsystem."""
    cfg = config or default_config()
    gpu, znand, stt, optane = cfg.gpu, cfg.znand, cfg.stt_mram, cfg.optane
    return {
        "GPU": {
            "SMs": gpu.num_sms,
            "frequency_ghz": GPU_FREQ_HZ / 1e9,
            "max_warps_per_sm": gpu.max_warps_per_sm,
            "l1_cache": f"{gpu.l1_size_bytes // 1024}KB, {gpu.l1_assoc}-way, {gpu.l1_sets}-set",
            "l2_cache": f"{gpu.l2_size_bytes // (1024 * 1024)}MB, {gpu.l2_banks} banks, {gpu.l2_assoc}-way",
        },
        "Z-NAND array": {
            "channels": znand.channels,
            "dies_per_package": znand.dies_per_package,
            "planes_per_die": znand.planes_per_die,
            "blocks_per_plane": znand.blocks_per_plane,
            "pages_per_block": znand.pages_per_block,
            "cell_type": "SLC",  # Section II-B: one bit per cell
            "interface_mt_s": znand.interface_mt_per_s,
            "read_latency_us": znand.read_latency_us,
            "program_latency_us": znand.program_latency_us,
            "registers_per_plane": znand.registers_per_plane,
            "io_ports_per_package": znand.io_ports_per_package,
            "capacity_gb": znand.total_capacity_bytes / (1 << 30),
        },
        "STT-MRAM L2": {
            "size_mb": stt.size_bytes // (1024 * 1024),
            "read_latency_cycles": stt.read_latency_cycles,
            "write_latency_cycles": stt.write_latency_cycles,
        },
        "Flash network": {
            "type": "mesh",
            "bus_width_bytes": znand.flash_network_bus_bytes,
        },
        "Optane DC PMM": {
            "tRCD_ns": optane.t_rcd_ns,
            "tCL_ns": optane.t_cl_ns,
            "tRP_ns": optane.t_rp_ns,
            "controllers": optane.controllers,
        },
    }


def table_2_workloads() -> List[Dict[str, object]]:
    """Table II: every registered workload family, the paper's 16 and ``kv-lookup``.

    Rows come from the workload registry.  The sixteen Table II applications
    report their paper-recorded read ratio and kernel count (their family
    defaults); ``kv-lookup``, which has neither knob, carries ``None``.
    """
    from repro.workloads.registry import WORKLOAD_FAMILIES, family_names

    rows: List[Dict[str, object]] = []
    for name in family_names():
        family = WORKLOAD_FAMILIES[name]
        defaults = family.defaults()
        rows.append(
            {
                "workload": name,
                "suite": family.suite,
                "read_ratio": defaults.get("read_ratio"),
                "kernels": defaults.get("kernels"),
                "params": len(family.params),
            }
        )
    return rows
