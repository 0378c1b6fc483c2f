"""Ablation: flash network structure (bus vs mesh).

Section III-B argues the conventional bus-structured flash channel cannot carry
the accumulated Z-NAND bandwidth, motivating the widened mesh.  This bench
compares the per-channel bandwidth and a full ZnG run on each network.

``znand.flash_network_type`` is pinned to ``mesh`` by the ZnG variants' config
deltas (see ``repro.platforms.zng.platform_config``), so the bus variant is produced
by swapping the constructed network objects — the one place the pin is
deliberately bypassed; the configs themselves come from schema-validated
overrides.
"""

from repro.config import default_config
from repro.platforms.zng import ZnGPlatform, ZnGVariant
from repro.runner import apply_overrides
from repro.ssd.flash_network import FlashNetwork
from benchmarks.harness import build_bench_mix, run_once


def _compare(scale):
    config = default_config()
    bus = FlashNetwork(config.znand, network_type="bus")
    mesh = FlashNetwork(config.znand, network_type="mesh")

    mesh_cfg = apply_overrides(config, {"znand.flash_network_type": "mesh"})
    bus_cfg = apply_overrides(config, {"znand.flash_network_type": "bus"})

    mix = build_bench_mix("betw", "back", scale, warps_per_sm=12)
    mesh_result = ZnGPlatform(ZnGVariant.FULL, mesh_cfg).run(mix.combined)
    bus_platform = ZnGPlatform(ZnGVariant.FULL, bus_cfg)
    bus_platform.flash_network = bus  # force the narrow network past the pin
    bus_platform.array.network = bus
    bus_result = bus_platform.run(mix.combined)
    return bus, mesh, bus_result, mesh_result


def test_ablation_flash_network(benchmark, bench_scale):
    bus, mesh, bus_result, mesh_result = run_once(benchmark, _compare, bench_scale)

    assert mesh.per_channel_bandwidth_bytes_per_s > bus.per_channel_bandwidth_bytes_per_s
    # The wider mesh should not be slower than the bus.
    assert mesh_result.ipc >= bus_result.ipc * 0.9

    print("\nAblation — Flash network (bus vs mesh)")
    print(f"  bus  per-channel BW: {bus.per_channel_bandwidth_bytes_per_s / 1e9:.2f} GB/s")
    print(f"  mesh per-channel BW: {mesh.per_channel_bandwidth_bytes_per_s / 1e9:.2f} GB/s")
    print(f"  IPC  bus={bus_result.ipc:.4f}  mesh={mesh_result.ipc:.4f}")
