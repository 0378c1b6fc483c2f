"""Tests for the experiment-preset registry."""

import pytest

from repro.configspace import (
    EXPERIMENT_PRESETS,
    SCHEMA,
    axis_overrides,
    get_preset,
)
from repro.configspace.presets import EVAL_PLATFORMS, ZNG_VARIANTS


class TestRegistry:
    def test_expected_presets_exist(self):
        for name in ("fig10", "fig11", "smoke", "reg-sweep", "l2-sweep",
                     "prefetch-sweep", "interconnect-sweep",
                     "table1-sensitivity", "zng-ablation", "quickstart"):
            assert name in EXPERIMENT_PRESETS

    def test_get_preset_unknown_lists_known(self):
        with pytest.raises(KeyError, match="known:"):
            get_preset("nope")

    def test_platform_name_constants_match_registry(self):
        from repro.platforms.zng import PLATFORM_NAMES

        assert list(EVAL_PLATFORMS) == PLATFORM_NAMES
        assert all(v in PLATFORM_NAMES for v in ZNG_VARIANTS)


class TestSpecExpansion:
    def test_every_preset_expands_to_a_valid_spec(self):
        # Platform names, workload tokens and override paths/values all
        # validate here — a preset referencing a renamed field fails loudly.
        for name in sorted(EXPERIMENT_PRESETS):
            spec = get_preset(name).spec()
            assert len(spec.cells()) > 0

    def test_spec_kwargs_override_preset_values(self):
        spec = get_preset("smoke").spec(scale=0.01, workloads=["bfs1"])
        assert spec.knobs.scale == 0.01
        assert spec.workloads == ("bfs1",)
        # Unoverridden knobs keep the preset's values.
        assert spec.knobs.warps_per_sm == 2

    def test_axis_preset_carries_labelled_points(self):
        spec = get_preset("reg-sweep").spec()
        labels = {o.label for o in spec.overrides}
        assert labels == {f"registers_per_plane={v}"
                          for v in (2, 4, 8, 16, 32)}

    def test_table1_sensitivity_covers_every_schema_axis(self):
        preset = get_preset("table1-sensitivity")
        covered_paths = set()
        for _, items in preset.overrides:
            covered_paths.update(path for path, _ in items)
        assert covered_paths == set(SCHEMA.ablation_axes())

    def test_table1_sensitivity_loses_no_point_to_label_collisions(self):
        # Labels are full dotted paths, so axes sharing a leaf field name
        # (e.g. a future znand.registers_per_plane axis next to
        # register_cache.registers_per_plane) can never overwrite each other.
        preset = get_preset("table1-sensitivity")
        expected = sum(len(v) for v in SCHEMA.ablation_axes().values())
        assert len(preset.overrides) == expected
        for label, items in preset.overrides:
            assert label.startswith(items[0][0])


class TestAxisOverrides:
    def test_defaults_to_schema_ablation_values(self):
        axis = axis_overrides("prefetch.prefetch_threshold")
        assert axis == {
            f"prefetch_threshold={v}": {"prefetch.prefetch_threshold": v}
            for v in (1, 4, 8, 12, 15)
        }

    def test_explicit_values_win(self):
        axis = axis_overrides("znand.channels", values=[4, 8])
        assert set(axis) == {"channels=4", "channels=8"}

    def test_axisless_path_requires_values(self):
        with pytest.raises(KeyError, match="no canonical ablation values"):
            axis_overrides("znand.pages_per_block")

    def test_every_declared_axis_value_validates(self):
        # Each canonical value must pass its own field's coercion/bounds.
        for path, values in SCHEMA.ablation_axes().items():
            for value in values:
                assert SCHEMA.coerce(path, value) == value
