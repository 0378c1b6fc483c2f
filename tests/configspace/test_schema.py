"""Tests for the schema registry: enumeration, coercion, validation."""

import pytest

from repro.config import default_config
from repro.configspace import (
    SCHEMA,
    ConfigPathError,
    ConfigValueError,
    ablation_axes,
)
from repro.configspace.schema import FieldSpec, coerce_value


class TestEnumeration:
    def test_every_path_is_dotted_and_sorted(self):
        paths = SCHEMA.paths()
        assert paths == sorted(paths)
        assert all("." in path for path in paths)

    def test_known_fields_present(self):
        for path in ("znand.channels", "gpu.l2_size_bytes",
                     "register_cache.registers_per_plane", "prefetch.policy",
                     "ftl.data_blocks_per_log_block", "host.pcie_bandwidth_gbps"):
            assert path in SCHEMA

    def test_field_spec_carries_metadata(self):
        spec = SCHEMA.get("znand.channels")
        assert spec.type is int
        assert spec.default == 16
        assert spec.unit == "count"
        assert "Table I" in spec.doc

    def test_no_undocumented_fields(self):
        assert SCHEMA.undocumented() == []

    def test_defaults_match_config_instances(self):
        config = default_config()
        for spec in SCHEMA.fields():
            assert SCHEMA.read(config, spec.path) == spec.default

    def test_ablation_axes_declared(self):
        axes = ablation_axes()
        assert "register_cache.registers_per_plane" in axes
        assert axes["register_cache.registers_per_plane"] == (2, 4, 8, 16, 32)
        assert "prefetch.policy" in axes


class TestPathErrors:
    @pytest.mark.parametrize("path, group", [
        ("nonsense.field", "nonsense"),
        ("sim.backend", "sim"),
    ])
    def test_unknown_group(self, path, group):
        with pytest.raises(ConfigPathError, match=f"no field '{group}'"):
            SCHEMA.get(path)

    def test_unknown_field_names_owner(self):
        with pytest.raises(ConfigPathError, match="ZNANDConfig has no field"):
            SCHEMA.get("znand.bogus")

    def test_deleted_field_is_unknown(self):
        # gpu.l2_mshr_entries_per_bank sized L2 MSHRs that nothing used.
        with pytest.raises(ConfigPathError,
                           match="GPUConfig has no field 'l2_mshr_entries_per_bank'"):
            SCHEMA.get("gpu.l2_mshr_entries_per_bank")

    @pytest.mark.parametrize("path, owner", [
        # Knobs that no simulator code read: accepted, they changed nothing.
        ("gpu.frequency_hz", "GPUConfig"),
        ("ssd_engine.dispatcher_latency_ns", "SSDEngineConfig"),
        ("optane.write_bandwidth_gbps_total", "OptaneConfig"),
        ("znand.cell_type", "ZNANDConfig"),
        ("register_cache.register_bytes", "RegisterCacheConfig"),
        ("ftl.wear_leveling", "FTLConfig"),
    ])
    def test_removed_knob_is_unknown(self, path, owner):
        field = path.split(".")[-1]
        with pytest.raises(ConfigPathError,
                           match=f"{owner} has no field '{field}'"):
            SCHEMA.get(path)
        assert path not in SCHEMA.paths()

    def test_l1_sets_is_derived_not_a_knob(self):
        with pytest.raises(ConfigPathError,
                           match="'l1_sets' is a derived property of GPUConfig"):
            SCHEMA.get("gpu.l1_sets")

    def test_group_path_is_not_a_leaf(self):
        with pytest.raises(ConfigPathError, match="whole ZNANDConfig group"):
            SCHEMA.get("znand")

    def test_path_below_a_leaf_field_names_the_leaf(self):
        # gpu.l1_size_bytes exists; the problem is the trailing segment —
        # the error must not claim the field is missing.
        with pytest.raises(ConfigPathError, match="below the leaf field"):
            SCHEMA.get("gpu.l1_size_bytes.extra")

    def test_property_path_explains_derivation(self):
        # Satellite: overriding a @property-derived path must raise a clear,
        # actionable error — not a bare "no field".
        with pytest.raises(ConfigPathError, match="derived property"):
            SCHEMA.get("znand.total_planes")

    def test_path_error_is_a_key_error(self):
        with pytest.raises(KeyError):
            SCHEMA.get("znand.total_planes")


class TestCoercion:
    def test_string_to_int(self):
        assert SCHEMA.coerce("znand.channels", "32") == 32

    def test_string_to_float(self):
        assert SCHEMA.coerce("znand.read_latency_us", "2.5") == 2.5

    def test_int_to_float_normalises(self):
        assert SCHEMA.coerce("znand.read_latency_us", 2) == 2.0

    @pytest.mark.parametrize("value", [True, "true", 1])
    def test_a_bool_field_rejects_every_value(self, value):
        """No field is a bool, so a bool field fails loudly instead of
        parsing its values."""
        flag = FieldSpec(path="x.flag", group="x", name="flag", owner="X",
                         type=bool, default=True)
        with pytest.raises(ConfigValueError, match="x.flag expects bool"):
            coerce_value(flag, value)

    def test_typed_values_pass_through(self):
        assert SCHEMA.coerce("znand.channels", 8) == 8
        assert SCHEMA.coerce("prefetch.policy", "stride") == "stride"

    def test_non_numeric_string_rejected(self):
        with pytest.raises(ConfigValueError, match="expects an int"):
            SCHEMA.coerce("znand.channels", "fast")

    def test_float_for_int_field_rejected(self):
        with pytest.raises(ConfigValueError, match="expects an int"):
            SCHEMA.coerce("znand.channels", 16.5)

    def test_bool_for_int_field_rejected(self):
        with pytest.raises(ConfigValueError, match="got bool"):
            SCHEMA.coerce("znand.channels", True)

    def test_string_for_numeric_field_rejected(self):
        with pytest.raises(ConfigValueError):
            SCHEMA.coerce("gpu.l2_size_bytes", "big")

    def test_number_for_enum_field_rejected(self):
        with pytest.raises(ConfigValueError, match="expects a string"):
            SCHEMA.coerce("prefetch.policy", 3)

    def test_unknown_choice_rejected(self):
        with pytest.raises(ConfigValueError, match="must be one of"):
            SCHEMA.coerce("prefetch.policy", "psychic")

    def test_below_minimum_rejected(self):
        with pytest.raises(ConfigValueError, match=">="):
            SCHEMA.coerce("znand.channels", 0)

    def test_above_maximum_rejected(self):
        with pytest.raises(ConfigValueError, match="<="):
            SCHEMA.coerce("ftl.gc_free_block_threshold", 1.5)


class TestApply:
    def test_apply_leaf_override(self):
        out = SCHEMA.apply(default_config(), {"znand.channels": 8})
        assert out.znand.channels == 8

    def test_apply_coerces_strings(self):
        out = SCHEMA.apply(default_config(), {"znand.channels": "8"})
        assert out.znand.channels == 8

    def test_apply_leaves_original_untouched(self):
        config = default_config()
        SCHEMA.apply(config, {"znand.channels": 8})
        assert config.znand.channels == 16

    def test_apply_empty_is_identity(self):
        config = default_config()
        assert SCHEMA.apply(config, {}) is config


class TestInvariants:
    def test_defaults_satisfy_invariants(self):
        SCHEMA.check_invariants(default_config())

    def test_l1_geometry_violation_detected(self):
        with pytest.raises(ConfigValueError, match="l1-geometry"):
            SCHEMA.apply(default_config(), {"gpu.l1_size_bytes": 1000})

    def test_l1_sets_follow_a_consistent_override(self):
        out = SCHEMA.apply(default_config(), {"gpu.l1_size_bytes": 32 * 6 * 128})
        assert out.gpu.l1_sets == 32

    def test_prefetch_granularity_order_enforced(self):
        with pytest.raises(ConfigValueError, match="prefetch-granularity"):
            SCHEMA.apply(default_config(), {"prefetch.min_prefetch_bytes": 8192})

    def test_prefetch_threshold_vs_counter_enforced(self):
        with pytest.raises(ConfigValueError, match="prefetch-threshold"):
            SCHEMA.apply(default_config(), {"prefetch.prefetch_threshold": 200})

    def test_validate_false_skips_value_checks(self):
        out = SCHEMA.apply(
            default_config(), {"prefetch.prefetch_threshold": 200},
            validate=False)
        assert out.prefetch.prefetch_threshold == 200

    def test_validate_false_still_rejects_bad_paths(self):
        with pytest.raises(ConfigPathError):
            SCHEMA.apply(default_config(), {"znand.bogus": 1}, validate=False)
