"""``repro.configspace`` — the typed configuration subsystem.

One source of truth for the entire experiment space:

* **Schema** (:mod:`.schema`): every dotted config path, auto-derived from
  the :mod:`repro.config` dataclasses, typed and documented (units + Table I
  provenance), with value coercion, bounds/choice validation and cross-field
  invariants.  ``python -m repro config --list-paths / --explain`` front it.
* **Fingerprints** (:mod:`.fingerprint`): strict canonical content hashes
  for configs and sweep-cell descriptors (result-cache schema v3; the
  encoder raises on un-encodable values instead of guessing).
* **Presets** (:mod:`.presets`): the named experiment registry (``fig10``,
  ``reg-sweep``, ``table1-sensitivity``, ...) behind
  ``python -m repro sweep --preset``.

The ZnG variants' config deltas (mesh flash network, register pool) are
not part of this package: :func:`repro.platforms.zng.platform_config`
applies them when a platform is built and when a sweep cell is keyed.
"""

from repro.configspace.fingerprint import (
    CanonicalEncodingError,
    canonical_json,
    canonical_payload,
    config_fingerprint,
    fingerprint,
)
from repro.configspace.presets import (
    EXPERIMENT_PRESETS,
    ExperimentPreset,
    axis_overrides,
    get_preset,
)
from repro.configspace.schema import (
    INVARIANTS,
    SCHEMA,
    ConfigPathError,
    ConfigSchema,
    ConfigValueError,
    FieldSpec,
    Invariant,
)


def ablation_axes():
    """``{path: canonical values}`` of every declared sensitivity axis."""
    return SCHEMA.ablation_axes()


__all__ = [
    "CanonicalEncodingError",
    "ConfigPathError",
    "ConfigSchema",
    "ConfigValueError",
    "EXPERIMENT_PRESETS",
    "ExperimentPreset",
    "FieldSpec",
    "INVARIANTS",
    "Invariant",
    "SCHEMA",
    "ablation_axes",
    "axis_overrides",
    "canonical_json",
    "canonical_payload",
    "config_fingerprint",
    "fingerprint",
    "get_preset",
]
