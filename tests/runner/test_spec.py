"""Tests for sweep specifications, override application and cell hashing."""

import pytest

from repro.config import default_config
from repro.configspace import (
    CanonicalEncodingError,
    ConfigPathError,
    ConfigValueError,
    canonical_json,
)
from repro.runner import OverrideSet, SweepSpec, apply_overrides, cell_seed


class TestApplyOverrides:
    def test_nested_override_applies(self, config):
        out = apply_overrides(config, {"register_cache.registers_per_plane": 16})
        assert out.register_cache.registers_per_plane == 16

    def test_original_config_untouched(self, config):
        before = config.znand.channels
        apply_overrides(config, {"znand.channels": before + 1})
        assert config.znand.channels == before

    def test_multiple_overrides(self, config):
        out = apply_overrides(
            config,
            {"znand.channels": 2, "prefetch.prefetch_threshold": 3},
        )
        assert out.znand.channels == 2
        assert out.prefetch.prefetch_threshold == 3

    def test_unknown_field_raises(self, config):
        with pytest.raises(KeyError):
            apply_overrides(config, {"znand.not_a_field": 1})

    def test_unknown_subtree_raises(self, config):
        with pytest.raises(KeyError):
            apply_overrides(config, {"nonsense.field": 1})

    def test_property_path_raises_clear_error(self, config):
        # znand.total_planes is derived from channels x packages x dies x
        # planes; overriding it must explain that, not report "no field".
        with pytest.raises(ConfigPathError, match="derived property"):
            apply_overrides(config, {"znand.total_planes": 4096})

    def test_type_mismatch_rejected(self, config):
        with pytest.raises(ConfigValueError, match="expects an int"):
            apply_overrides(config, {"znand.channels": "many"})

    def test_cli_string_values_coerced(self, config):
        out = apply_overrides(config, {"znand.channels": "8"})
        assert out.znand.channels == 8

    def test_invariant_violation_rejected(self, config):
        with pytest.raises(ConfigValueError, match="prefetch-threshold"):
            apply_overrides(config, {"prefetch.prefetch_threshold": 200})


class TestSweepSpec:
    def test_grid_expansion(self):
        spec = SweepSpec.create(
            platforms=["ZnG", "ZnG-base"],
            workloads=["betw-back", "bfs1"],
            overrides={"a": {"znand.channels": 2}, "b": {"znand.channels": 4}},
        )
        cells = spec.cells()
        assert len(cells) == len(spec) == 2 * 2 * 2
        labels = {cell.label for cell in cells}
        assert "ZnG/betw-back/a" in labels

    def test_group_token_expansion(self):
        spec = SweepSpec.create(platforms=["ZnG"], workloads=["mixes"])
        assert len(spec.workloads) == 12
        assert "betw-back" in spec.workloads

    def test_invalid_workload_rejected(self):
        with pytest.raises(KeyError):
            SweepSpec.create(platforms=["ZnG"], workloads=["nosuch"])

    def test_seed_depends_on_workload_not_platform(self):
        spec = SweepSpec.create(
            platforms=["ZnG", "GDDR5"], workloads=["betw-back", "bfs1-gaus"]
        )
        by_workload = {}
        for cell in spec.cells():
            by_workload.setdefault(cell.workload, set()).add(cell.knobs.seed)
        # One seed per workload, shared by every platform...
        assert all(len(seeds) == 1 for seeds in by_workload.values())
        # ...and different workloads get different seeds.
        assert len({next(iter(s)) for s in by_workload.values()}) == 2

    def test_cell_seed_deterministic(self):
        assert cell_seed(1, "betw-back") == cell_seed(1, "betw-back")
        assert cell_seed(1, "betw-back") != cell_seed(2, "betw-back")

    def test_empty_override_mapping_labels_as_default(self):
        # An empty mapping carries no overrides: it must label (and cache)
        # exactly like the no-overrides spec, not as a phantom "override".
        spec = SweepSpec.create(
            platforms=["ZnG"], workloads=["betw-back"], overrides={})
        assert [o.label for o in spec.overrides] == ["default"]
        baseline = SweepSpec.create(platforms=["ZnG"], workloads=["betw-back"])
        assert spec == baseline
        assert spec.cells()[0].label == "ZnG/betw-back"
        assert spec.cells()[0].cache_key() == baseline.cells()[0].cache_key()

    def test_create_coerces_override_values(self):
        spec = SweepSpec.create(
            platforms=["ZnG"], workloads=["betw-back"],
            overrides={"wide": {"znand.channels": "32"}},
        )
        assert spec.overrides[0].overrides == (("znand.channels", 32),)

    def test_create_rejects_bad_override_values(self):
        with pytest.raises(ConfigValueError):
            SweepSpec.create(
                platforms=["ZnG"], workloads=["betw-back"],
                overrides={"bad": {"znand.channels": "many"}},
            )

    def test_create_rejects_property_override_paths(self):
        with pytest.raises(ConfigPathError):
            SweepSpec.create(
                platforms=["ZnG"], workloads=["betw-back"],
                overrides={"bad": {"znand.total_planes": 1}},
            )

    @pytest.mark.parametrize("knobs, message", [
        ({"scale": -1.0}, "scale must be a finite number > 0"),
        ({"scale": 0.0}, "scale must be a finite number > 0"),
        ({"scale": float("nan")}, "scale must be a finite number > 0"),
        ({"scale": float("inf")}, "scale must be a finite number > 0"),
        ({"scale": "0.2"}, "scale must be a finite number > 0"),
        ({"warps_per_sm": 0}, "warps_per_sm must be >= 1"),
        ({"memory_instructions_per_warp": 0},
         "memory_instructions_per_warp must be >= 1"),
        ({"num_sms": 0}, "num_sms must be >= 1"),
        ({"warps_per_sm": 2.5}, "warps_per_sm expects an int"),
    ])
    def test_create_rejects_bad_run_knobs(self, knobs, message):
        with pytest.raises(ValueError, match=message) as raised:
            SweepSpec.create(platforms=["ZnG"], workloads=["betw-back"], **knobs)
        assert "\n" not in str(raised.value)

    def test_create_accepts_the_smallest_run_knobs(self):
        spec = SweepSpec.create(
            platforms=["ZnG"], workloads=["betw-back"], scale=1e-3,
            num_sms=1, warps_per_sm=1, memory_instructions_per_warp=1)
        assert (spec.knobs.scale, spec.knobs.num_sms, spec.knobs.warps_per_sm,
                spec.knobs.memory_instructions_per_warp) == (1e-3, 1, 1, 1)

    @pytest.mark.parametrize("group, field, value", [
        # Fields a manifest written before they were removed still carries.
        ("gpu", "frequency_hz", 1.2e9),
        ("gpu", "l1_sets", 64),
        ("ssd_engine", "dispatcher_latency_ns", 100.0),
        ("optane", "write_bandwidth_gbps_total", 13.0),
        ("znand", "cell_type", "SLC"),
        ("register_cache", "register_bytes", 4096),
        ("ftl", "wear_leveling", True),
    ])
    def test_descriptor_with_a_removed_field_is_rejected(self, group, field,
                                                         value):
        spec = SweepSpec.create(platforms=["ZnG"], workloads=["betw-back"],
                                base_config=default_config())
        payload = spec.descriptor()
        payload["base_config"][group][field] = value
        with pytest.raises(ValueError) as raised:
            SweepSpec.from_descriptor(payload)
        assert str(raised.value) == (
            f"base_config sub-config {group!r} does not match the current "
            f"schema (drifted fields: [{field!r}])")


class TestCacheKey:
    def _cell(self, **kwargs):
        spec = SweepSpec.create(
            platforms=[kwargs.pop("platform", "ZnG")],
            workloads=[kwargs.pop("workload", "betw-back")],
            **kwargs,
        )
        return spec.cells()[0]

    def test_stable_across_processes_inputs(self):
        assert self._cell().cache_key() == self._cell().cache_key()

    def test_distinguishes_platform_workload_scale_and_config(self):
        base = self._cell().cache_key()
        assert self._cell(platform="ZnG-base").cache_key() != base
        assert self._cell(workload="bfs1-gaus").cache_key() != base
        assert self._cell(scale=0.5).cache_key() != base
        assert self._cell(overrides={"znand.channels": 2}).cache_key() != base

    def test_base_config_changes_key(self):
        custom = default_config().copy()
        custom.znand = type(custom.znand)(channels=2)
        assert self._cell(base_config=custom).cache_key() != self._cell().cache_key()

    def test_descriptor_hashes_the_platform_resolved_config(self):
        # The cache key must cover the platform's config deltas, not just
        # base + overrides: ZnG pins the mesh network and copies the
        # write-cache register knob into znand before running.
        descriptor = self._cell(
            overrides={"register_cache.registers_per_plane": 16}).descriptor()
        assert descriptor["config"]["znand"]["flash_network_type"] == "mesh"
        assert descriptor["config"]["znand"]["registers_per_plane"] == 16

    def test_editing_a_platform_layer_changes_the_key(self, monkeypatch):
        # A maintainer changing a platform's config delta must miss the
        # cache, exactly like a changed Table I default.
        from dataclasses import replace

        from repro.platforms import zng

        before = self._cell().cache_key()
        original = zng.platform_config

        def edited(name, config):
            config = original(name, config)
            return replace(config, znand=replace(config.znand,
                                                 registers_per_plane=4))

        monkeypatch.setattr(zng, "platform_config", edited)
        assert self._cell().cache_key() != before

    def test_coerced_values_hash_bit_identically(self):
        # A CLI string, an int and a float-typed equivalent must produce the
        # same canonical descriptor, hence the same cache key.
        as_string = self._cell(overrides={"znand.channels": "32"}).cache_key()
        as_int = self._cell(overrides={"znand.channels": 32}).cache_key()
        assert as_string == as_int
        lat_int = self._cell(
            overrides={"znand.read_latency_us": 2}).cache_key()
        lat_float = self._cell(
            overrides={"znand.read_latency_us": 2.0}).cache_key()
        assert lat_int == lat_float

    def test_unencodable_override_value_raises(self):
        # The v3 canonical encoder must raise instead of stringifying a
        # value without an exact encoding into a potentially aliasing key:
        # json.dumps would happily emit the non-canonical literal "NaN".
        # Float coercion now rejects NaN before a cell exists, and a NaN
        # smuggled past create() dies when the cell resolves its config;
        # the encoder stays the last guard for any descriptor.
        with pytest.raises(ConfigValueError, match="finite float"):
            self._cell(overrides={"znand.read_latency_us": float("nan")})
        from dataclasses import replace as dc_replace

        poisoned = dc_replace(
            self._cell(),
            override_set=OverrideSet(
                "bad", (("znand.read_latency_us", float("nan")),)),
        )
        with pytest.raises(ConfigValueError, match="finite float"):
            poisoned.cache_key()
        with pytest.raises(CanonicalEncodingError, match="non-finite"):
            canonical_json({"znand": {"read_latency_us": float("nan")}})

    def test_arbitrary_object_override_raises(self):
        # An object smuggled past create() dies at schema validation when the
        # cell resolves its config — never silently stringified.
        from dataclasses import replace as dc_replace

        poisoned = dc_replace(
            self._cell(),
            override_set=OverrideSet("bad", (("znand.channels", object()),)),
        )
        with pytest.raises(ConfigValueError):
            poisoned.cache_key()


class TestOverrideSet:
    def test_create_sorts_items(self):
        a = OverrideSet.create("x", {"b.c": 1, "a.b": 2})
        b = OverrideSet.create("x", {"a.b": 2, "b.c": 1})
        assert a == b


class TestWorkloadFingerprintKeys:
    """Cache keys and trace-memo keys must track the *resolved* workload."""

    def _cell(self, workload, **kwargs):
        spec = SweepSpec.create(platforms=["ZnG"], workloads=[workload],
                                scale=0.1, **kwargs)
        return spec.cells()[0]

    def test_descriptor_carries_the_workload_fingerprint(self):
        descriptor = self._cell("betw").descriptor()
        assert descriptor["workload_fingerprint"] == (
            self._cell("betw").workload_fingerprint())

    def test_family_param_changes_cache_and_trace_keys(self):
        base = self._cell("kv-lookup")
        skewed = self._cell("kv-lookup:zipf=1.1")
        assert base.cache_key() != skewed.cache_key()
        assert base.trace_key() != skewed.trace_key()

    def test_default_spelling_aliases_to_the_default_cell(self):
        # Same resolved parameters -> same canonical token -> same keys:
        # the *benign* direction of aliasing.
        explicit = self._cell("kv-lookup:zipf=0.99")
        assert explicit.cache_key() == self._cell("kv-lookup").cache_key()

    def test_table2_apps_accept_parameter_overrides(self):
        assert (self._cell("betw").cache_key()
                != self._cell("betw:zipf_alpha=1.0").cache_key())

    def test_mix_fingerprints_feed_the_key(self):
        assert (self._cell("betw-back").cache_key()
                != self._cell("betw-gaus").cache_key())
