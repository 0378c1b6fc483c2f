"""Tests for the layers a platform's config is composed from.

A sweep cell runs with its base config (Table I defaults unless given), then
its override set applied by ``SCHEMA.apply``, then the platform's delta from
:func:`repro.platforms.zng.platform_config`.
"""

import pytest

from repro.__main__ import main
from repro.config import default_config
from repro.configspace import SCHEMA, ConfigValueError
from repro.platforms.zng import platform_config
from repro.runner import SweepSpec

ZNG_VARIANTS = ("ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG")


def overridden(overrides):
    return SCHEMA.apply(default_config(), overrides)


def cell(platform, overrides=None, base_config=None):
    spec = SweepSpec.create(platforms=[platform], workloads=["betw-back"],
                            overrides=overrides, base_config=base_config)
    return spec.cells()[0]


class TestResolve:
    def test_empty_stack_yields_defaults(self):
        assert cell("GDDR5").platform_config() == default_config()

    def test_later_layer_wins(self):
        base = overridden({"znand.channels": 8})
        composed = cell("GDDR5", {"znand.channels": 32}, base).platform_config()
        assert composed.znand.channels == 32

    def test_provenance_tracks_setting_layer(self, capsys):
        assert main(["config", "--diff", "GDDR5", "ZnG-base"]) == 0
        out = capsys.readouterr().out
        assert "znand.flash_network_type = 'bus'  [defaults]" in out
        assert "znand.flash_network_type = 'mesh'  [platform:ZnG-base]" in out
        assert "znand.channels" not in out

    def test_pinned_layer_applies_last(self):
        zng = cell("ZnG", {"znand.flash_network_type": "bus"})
        assert zng.resolved_config().znand.flash_network_type == "bus"
        assert zng.platform_config().znand.flash_network_type == "mesh"

    def test_field_ref_reads_composed_value(self):
        base = overridden({"register_cache.registers_per_plane": 16})
        composed = cell("ZnG", base_config=base).platform_config()
        assert composed.znand.registers_per_plane == 16

    def test_layer_values_are_coerced(self):
        composed = cell("ZnG", {"znand.channels": "8",
                                "register_cache.registers_per_plane": "16"},
                        ).platform_config()
        assert composed.znand.channels == 8
        assert composed.znand.registers_per_plane == 16
        assert type(composed.znand.registers_per_plane) is int

    def test_invariants_checked_on_result(self):
        with pytest.raises(ConfigValueError, match="l1-geometry"):
            cell("ZnG", {"gpu.l1_sets": 32}).platform_config()

    def test_base_config_used_as_floor(self):
        base = overridden({"znand.channels": 8})
        assert cell("ZnG", base_config=base).platform_config().znand.channels == 8


class TestPlatformLayers:
    def test_baselines_have_empty_layers(self):
        config = overridden({"znand.flash_network_type": "mesh"})
        for name in ("GDDR5", "Hetero", "HybridGPU", "Optane"):
            assert platform_config(name, config) is config

    def test_unregistered_platform_gets_empty_layer(self):
        config = default_config()
        assert platform_config("not-a-platform", config) is config

    def test_zng_layers_are_pinned(self):
        base = overridden({"znand.flash_network_type": "bus"})
        for name in ZNG_VARIANTS:
            assert platform_config(name, base).znand.flash_network_type == "mesh"

    @pytest.mark.parametrize("name", ["ZnG-base", "ZnG-rdopt"])
    def test_zng_base_pins_mesh_and_its_plane_registers(self, name):
        # The plane's own registers over SWnet: what the register cache of
        # the variants without the write optimisation is built from.
        config = platform_config(name, default_config())
        assert config.znand.flash_network_type == "mesh"
        assert config.znand.registers_per_plane == 2
        assert config.register_cache.registers_per_plane == 2
        assert config.register_cache.interconnect == "swnet"

    @pytest.mark.parametrize("name", ["ZnG-base", "ZnG-rdopt"])
    def test_zng_base_register_cache_overrides_are_replaced(self, name):
        base = overridden({"register_cache.registers_per_plane": 16,
                           "register_cache.interconnect": "nif"})
        config = platform_config(name, base)
        assert config.register_cache.registers_per_plane == 2
        assert config.register_cache.interconnect == "swnet"
        # The plane's register count follows the znand knob.
        plane4 = platform_config(name, overridden({"znand.registers_per_plane": 4}))
        assert plane4.register_cache.registers_per_plane == 4

    def test_write_optimised_register_cache_is_kept(self):
        base = overridden({"register_cache.interconnect": "fcnet"})
        for name in ("ZnG-wropt", "ZnG"):
            config = platform_config(name, base)
            assert config.register_cache == base.register_cache

    def test_zng_pins_mesh_and_registers(self):
        config = platform_config("ZnG", default_config())
        assert config.znand.flash_network_type == "mesh"
        assert config.znand.registers_per_plane == 8

    def test_zng_register_pin_follows_write_cache_knob(self):
        base = overridden({"register_cache.registers_per_plane": 16})
        assert platform_config("ZnG", base).znand.registers_per_plane == 16
        assert platform_config("ZnG-wropt", base).znand.registers_per_plane == 16
        assert platform_config("ZnG-rdopt", base).znand.registers_per_plane == 2

    def test_platform_pin_beats_direct_override(self):
        # The register pool is part of the write-optimised ZnG identity: a
        # direct override is replaced there, and kept where no delta sets it.
        base = overridden({"znand.registers_per_plane": 4})
        assert platform_config("ZnG", base).znand.registers_per_plane == 8
        assert platform_config("ZnG-base", base).znand.registers_per_plane == 4

    def test_deltas_are_idempotent(self):
        for name in ZNG_VARIANTS:
            once = platform_config(name, default_config())
            assert platform_config(name, once) == once
