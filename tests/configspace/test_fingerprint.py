"""Tests for the strict canonical encoder and config fingerprints."""

import math

import pytest

from repro.config import default_config
from repro.configspace import (
    CanonicalEncodingError,
    canonical_json,
    canonical_payload,
    config_fingerprint,
)


class TestCanonicalEncoder:
    def test_plain_values_round_trip(self):
        payload = {"a": 1, "b": 2.5, "c": "x", "d": True, "e": None}
        assert canonical_payload(payload) == payload

    def test_tuples_become_lists(self):
        assert canonical_payload((1, 2, (3,))) == [1, 2, [3]]

    def test_dataclasses_become_field_mappings(self):
        payload = canonical_payload(default_config())
        assert payload["znand"]["channels"] == 16

    def test_output_is_deterministic(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_unencodable_object_raises_with_path(self):
        with pytest.raises(CanonicalEncodingError, match=r"\$\.cell\[1\]"):
            canonical_json({"cell": [1, object()]})

    def test_set_raises_instead_of_stringifying(self):
        # json.dumps(default=str) would have silently encoded this.
        with pytest.raises(CanonicalEncodingError, match="set"):
            canonical_json({"values": {1, 2}})

    def test_nan_raises(self):
        with pytest.raises(CanonicalEncodingError, match="non-finite"):
            canonical_json({"x": math.nan})

    def test_non_string_mapping_key_raises(self):
        with pytest.raises(CanonicalEncodingError, match="not a string"):
            canonical_json({1: "x"})


class TestConfigFingerprint:
    def test_equal_configs_fingerprint_identically(self):
        assert config_fingerprint(default_config()) == config_fingerprint(
            default_config())

    def test_any_field_change_changes_fingerprint(self):
        from repro.configspace import SCHEMA

        base = config_fingerprint(default_config())
        changed = SCHEMA.apply(default_config(), {"znand.channels": 8})
        assert config_fingerprint(changed) != base

    def test_layered_and_constructor_paths_agree(self):
        # However a config was composed, equal content hashes equally.
        from repro.platforms import build_platform
        from repro.platforms.zng import platform_config

        composed = platform_config("ZnG", default_config())
        constructed = build_platform("ZnG").config
        assert config_fingerprint(composed) == config_fingerprint(constructed)
