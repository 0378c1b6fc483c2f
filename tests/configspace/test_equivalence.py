"""Equivalence proofs for the configspace refactor.

Two families of guarantees:

* For every platform (and for representative override scenarios),
  :func:`repro.platforms.zng.platform_config` returns a
  :class:`PlatformConfig` equal to what the pre-refactor constructors
  produced — the old munge is
  reimplemented inline here as the golden semantics.
* Sweep results stay bit-identical across the serial, cached and
  preset-built paths (cache v3 keys differ from v2 by design; payloads are
  what must match).
"""

from dataclasses import replace

import pytest

from repro.config import default_config
from repro.configspace import get_preset
from repro.platforms import build_platform
from repro.platforms.zng import PLATFORM_NAMES, ZnGVariant, platform_config
from repro.runner import SweepRunner, SweepSpec, apply_overrides

ALL_PLATFORMS = ["GDDR5"] + PLATFORM_NAMES

#: Representative override scenarios of the evaluation (axis points that
#: interact with the ZnG platform deltas, and ones that do not).
SCENARIOS = {
    "default": {},
    "reg16": {"register_cache.registers_per_plane": 16},
    "wide-channels": {"znand.channels": 32},
    "big-l2": {"stt_mram.size_bytes": 48 * 1024 * 1024},
    "swnet": {"register_cache.interconnect": "swnet"},
}


def legacy_platform_config(name, config):
    """The pre-refactor constructor munge, frozen here as golden semantics."""
    for variant in ZnGVariant:
        if variant.value == name:
            registers = (
                config.register_cache.registers_per_plane
                if variant.has_write_optimization
                else config.znand.registers_per_plane
            )
            return config.copy(
                znand=replace(
                    config.znand,
                    flash_network_type="mesh",
                    registers_per_plane=registers,
                )
            )
    return config  # the four baselines never touched their config


class TestPlatformConfigEquivalence:
    @pytest.mark.parametrize("platform", ALL_PLATFORMS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_layered_resolution_matches_legacy_munge(self, platform, scenario):
        base = apply_overrides(default_config(), SCENARIOS[scenario])
        expected = legacy_platform_config(platform, base)
        assert platform_config(platform, base) == expected

    @pytest.mark.parametrize("platform", ALL_PLATFORMS)
    @pytest.mark.parametrize("scenario", sorted(SCENARIOS))
    def test_built_platform_runs_the_resolved_config(self, platform, scenario):
        base = apply_overrides(default_config(), SCENARIOS[scenario])
        built = build_platform(platform, base)
        assert built.config == legacy_platform_config(platform, base)

    def test_cell_resolved_config_feeds_the_same_platform_config(self):
        spec = SweepSpec.create(
            platforms=["ZnG"], workloads=["betw-back"],
            overrides={"reg16": SCENARIOS["reg16"]},
        )
        cell = spec.cells()[0]
        built = build_platform(cell.platform, cell.resolved_config())
        assert built.config.znand.registers_per_plane == 16


class TestSweepEquivalence:
    def test_preset_spec_equals_explicit_spec(self):
        preset_spec = get_preset("smoke").spec()
        explicit = SweepSpec.create(
            platforms=["ZnG-base", "ZnG"],
            workloads=["betw-back", "bfs1-gaus"],
            scale=0.08,
            seed=1,
            warps_per_sm=2,
        )
        assert preset_spec == explicit
        assert [c.cache_key() for c in preset_spec.cells()] == [
            c.cache_key() for c in explicit.cells()
        ]

    def test_serial_cached_and_preset_results_bit_identical(self, tmp_path):
        spec = get_preset("smoke").spec(scale=0.05, workloads=["bfs1"])
        cold = SweepRunner(workers=1, cache=tmp_path / "cache").run(spec)
        warm = SweepRunner(workers=1, cache=tmp_path / "cache").run(spec)
        uncached = SweepRunner(workers=1, cache=False).run(spec)
        assert warm.cache_hits == len(spec)
        assert cold.stats_dicts() == warm.stats_dicts() == uncached.stats_dicts()
        for a, b in zip(cold, warm):
            assert a.result.ipc == b.result.ipc
            assert a.result.cycles == b.result.cycles
