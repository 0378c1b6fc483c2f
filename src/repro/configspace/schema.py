"""The typed override schema derived from the config dataclasses.

:class:`ConfigSchema` reflects over :class:`repro.config.PlatformConfig` and
exposes every nested scalar field as a dotted path (``znand.channels``) with
its type, Table I default, unit, provenance doc, optional bounds/choices and
canonical ablation values — all read from the ``table_field`` metadata
declared in :mod:`repro.config`.

The schema is the single authority for override handling:

* :meth:`ConfigSchema.coerce` turns CLI strings into typed values and rejects
  type mismatches, out-of-range values and unknown enum choices;
* :meth:`ConfigSchema.apply` applies a dotted-path override mapping to a
  config (with property-aware error messages — a derived quantity such as
  ``znand.total_planes`` cannot be overridden);
* :meth:`ConfigSchema.check_invariants` enforces the cross-field constraints
  (cache geometry, prefetch granularity ordering, ...).

A module-level singleton :data:`SCHEMA` is built on import; use
``repro.configspace.schema()`` (or the singleton directly) rather than
re-deriving it.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.config import PlatformConfig


class ConfigPathError(KeyError):
    """An override path that does not name an overridable config field."""

    def __str__(self) -> str:  # KeyError would repr() the message
        return self.args[0] if self.args else ""


class ConfigValueError(ValueError):
    """An override value of the wrong type, out of range, or invalid choice."""


@dataclass(frozen=True)
class FieldSpec:
    """One overridable leaf field of the configuration space."""

    path: str          # dotted path, e.g. "znand.channels"
    group: str         # top-level sub-config, e.g. "znand"
    name: str          # field name inside its dataclass
    owner: str         # owning dataclass name, e.g. "ZNANDConfig"
    type: type         # int / float / str
    default: object    # the Table I default value
    unit: str = ""
    doc: str = ""
    choices: Optional[Tuple[object, ...]] = None
    minimum: Optional[float] = None
    maximum: Optional[float] = None
    #: Canonical sensitivity-axis values, when this field is one of the
    #: paper's ablation knobs.
    ablation: Optional[Tuple[object, ...]] = None

    @property
    def documented(self) -> bool:
        return bool(self.unit) and bool(self.doc)

    def describe(self) -> str:
        """Multi-line human-readable field card (``repro config --explain``)."""
        lines = [
            f"path:     {self.path}",
            f"type:     {self.type.__name__}",
            f"default:  {self.default!r}",
            f"unit:     {self.unit}",
            f"doc:      {self.doc}",
        ]
        if self.choices is not None:
            lines.append(f"choices:  {', '.join(map(str, self.choices))}")
        if self.minimum is not None:
            lines.append(f"minimum:  {self.minimum}")
        if self.maximum is not None:
            lines.append(f"maximum:  {self.maximum}")
        if self.ablation is not None:
            lines.append(f"ablation: {', '.join(map(str, self.ablation))}")
        return "\n".join(lines)


@dataclass(frozen=True)
class Invariant:
    """A cross-field constraint checked after overrides are applied."""

    name: str
    doc: str
    paths: Tuple[str, ...]
    check: Callable[[PlatformConfig], bool]


#: Cross-field invariants of the Table I configuration.  Each must hold for
#: the defaults and for every validated override set.
INVARIANTS: Tuple[Invariant, ...] = (
    Invariant(
        name="l1-geometry",
        doc="L1D capacity must divide evenly into assoc x line sets.",
        paths=("gpu.l1_size_bytes", "gpu.l1_assoc", "gpu.l1_line_bytes"),
        check=lambda c: c.gpu.l1_size_bytes
        % (c.gpu.l1_assoc * c.gpu.l1_line_bytes) == 0,
    ),
    Invariant(
        name="l2-geometry",
        doc="L2 capacity must divide evenly into banks x assoc x line sets.",
        paths=("gpu.l2_size_bytes", "gpu.l2_banks", "gpu.l2_assoc",
               "gpu.l2_line_bytes"),
        check=lambda c: c.gpu.l2_size_bytes
        % (c.gpu.l2_banks * c.gpu.l2_assoc * c.gpu.l2_line_bytes) == 0,
    ),
    Invariant(
        name="stt-mram-geometry",
        doc="STT-MRAM L2 capacity must divide evenly into banks x assoc x line sets.",
        paths=("stt_mram.size_bytes", "stt_mram.banks", "stt_mram.assoc",
               "stt_mram.line_bytes"),
        check=lambda c: c.stt_mram.size_bytes
        % (c.stt_mram.banks * c.stt_mram.assoc * c.stt_mram.line_bytes) == 0,
    ),
    Invariant(
        name="prefetch-granularity-order",
        doc="Prefetch granularity bounds must satisfy min <= initial <= max.",
        paths=("prefetch.min_prefetch_bytes", "prefetch.initial_prefetch_bytes",
               "prefetch.max_prefetch_bytes"),
        check=lambda c: c.prefetch.min_prefetch_bytes
        <= c.prefetch.initial_prefetch_bytes
        <= c.prefetch.max_prefetch_bytes,
    ),
    Invariant(
        name="prefetch-waste-order",
        doc="The low waste threshold must stay below the high one.",
        paths=("prefetch.low_waste_threshold", "prefetch.high_waste_threshold"),
        check=lambda c: c.prefetch.low_waste_threshold
        < c.prefetch.high_waste_threshold,
    ),
    Invariant(
        name="prefetch-threshold-counter",
        doc="The prefetch threshold must be reachable by the saturating counter "
        "(threshold < 2^counter_bits).",
        paths=("prefetch.prefetch_threshold", "prefetch.counter_bits"),
        check=lambda c: c.prefetch.prefetch_threshold
        < 2 ** c.prefetch.counter_bits,
    ),
)


class ConfigSchema:
    """Registry of every overridable dotted config path, with validation."""

    def __init__(self, specs: Mapping[str, FieldSpec],
                 groups: Mapping[str, type]) -> None:
        self._specs: Dict[str, FieldSpec] = dict(specs)
        self._groups: Dict[str, type] = dict(groups)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, root: type = PlatformConfig) -> "ConfigSchema":
        """Derive the schema by walking the config dataclass tree."""
        specs: Dict[str, FieldSpec] = {}
        groups: Dict[str, type] = {}
        defaults = root()
        for group_field in fields(root):
            sub_config = getattr(defaults, group_field.name)
            if not is_dataclass(sub_config):
                continue
            groups[group_field.name] = type(sub_config)
            cls._walk(group_field.name, sub_config, specs)
        return cls(specs, groups)

    @classmethod
    def _walk(cls, prefix: str, node, specs: Dict[str, FieldSpec]) -> None:
        hints = typing.get_type_hints(type(node))
        for node_field in fields(node):
            value = getattr(node, node_field.name)
            path = f"{prefix}.{node_field.name}"
            if is_dataclass(value):
                cls._walk(path, value, specs)
                continue
            metadata = node_field.metadata or {}
            specs[path] = FieldSpec(
                path=path,
                group=prefix.split(".", 1)[0],
                name=node_field.name,
                owner=type(node).__name__,
                type=hints.get(node_field.name, type(value)),
                default=value,
                unit=metadata.get("unit", ""),
                doc=metadata.get("doc", ""),
                choices=metadata.get("choices"),
                minimum=metadata.get("minimum"),
                maximum=metadata.get("maximum"),
                ablation=metadata.get("ablation"),
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def paths(self) -> List[str]:
        """Every overridable dotted path, sorted."""
        return sorted(self._specs)

    def __contains__(self, path: str) -> bool:
        return path in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def fields(self) -> List[FieldSpec]:
        return [self._specs[path] for path in self.paths()]

    def get(self, path: str) -> FieldSpec:
        """The :class:`FieldSpec` for ``path``; raises :class:`ConfigPathError`
        with a property-aware message for anything not overridable."""
        spec = self._specs.get(path)
        if spec is not None:
            return spec
        raise ConfigPathError(self._path_error(path))

    def _path_error(self, path: str) -> str:
        parts = path.split(".")
        if parts[0] not in self._groups:
            known = ", ".join(sorted(self._groups))
            return (f"override path {path!r}: PlatformConfig has no field "
                    f"{parts[0]!r} (config groups: {known})")
        owner = self._groups[parts[0]]
        if len(parts) == 1:
            return (f"override path {path!r} names the whole {owner.__name__} "
                    f"group, not a leaf field; override its fields "
                    f"individually (e.g. {path}.{fields(owner)[0].name})")
        leaf = ".".join(parts[:2])
        if leaf in self._specs:
            # The two-part prefix IS a valid leaf — the path descends below a
            # scalar field, it does not misspell one.
            return (f"override path {path!r} goes below the leaf field "
                    f"{leaf!r} ({self._specs[leaf].type.__name__}); drop the "
                    f"trailing {'.'.join(parts[2:])!r}")
        # Walk as far as the schema knows, then inspect the owning class.
        attribute = getattr(owner, parts[1], None)
        if isinstance(attribute, property):
            return (f"override path {path!r}: {parts[1]!r} is a derived "
                    f"property of {owner.__name__}, computed from other "
                    f"fields — override those fields instead")
        return (f"override path {path!r}: {owner.__name__} has no field "
                f"{parts[1]!r}")

    def undocumented(self) -> List[str]:
        """Paths whose field lacks unit/doc metadata (schema-drift probe)."""
        return [spec.path for spec in self.fields() if not spec.documented]

    def ablation_axes(self) -> Dict[str, Tuple[object, ...]]:
        """``{path: canonical values}`` for every declared sensitivity axis."""
        return {
            spec.path: spec.ablation
            for spec in self.fields()
            if spec.ablation is not None
        }

    def golden_lines(self) -> List[str]:
        """The schema-drift golden file content: one line per path."""
        return [
            f"{spec.path}\t{spec.type.__name__}\t{spec.unit}\t{spec.doc}"
            for spec in self.fields()
        ]

    # ------------------------------------------------------------------
    # Coercion and validation
    # ------------------------------------------------------------------
    def coerce(self, path: str, value: object) -> object:
        """Coerce ``value`` (possibly a CLI string) to the field's type.

        Raises :class:`ConfigValueError` on type mismatch, range violation or
        unknown enum choice, and :class:`ConfigPathError` for unknown paths.
        The result is canonical: the same logical value always coerces to the
        same typed object, so cache keys are reproducible regardless of
        whether an override arrived as ``"32"``, ``32`` or ``32.0``-as-int.
        """
        spec = self.get(path)
        coerced = self._coerce_type(spec, value)
        self._check_bounds(spec, coerced)
        return coerced

    @staticmethod
    def _coerce_type(spec: FieldSpec, value: object) -> object:
        kind = spec.type
        # No field is a bool, so a bool value is rejected everywhere; a bool
        # field added later fails on every value until this learns to parse.
        if isinstance(value, bool):
            raise ConfigValueError(
                f"{spec.path} expects {kind.__name__}, got bool {value!r}")
        if kind is int:
            if isinstance(value, int):
                return value
            if isinstance(value, str):
                try:
                    return int(value.strip())
                except ValueError:
                    pass
            raise ConfigValueError(
                f"{spec.path} expects an int ({spec.unit or 'no unit'}), "
                f"got {value!r}")
        if kind is float:
            coerced = None
            try:
                if isinstance(value, (int, float)):
                    coerced = float(value)
                elif isinstance(value, str):
                    coerced = float(value.strip())
            except (ValueError, OverflowError):
                pass
            if coerced is None:
                raise ConfigValueError(
                    f"{spec.path} expects a float ({spec.unit or 'no unit'}), "
                    f"got {value!r}")
            # NaN and inf parse as floats but no field means them: NaN slips
            # past every bound, and either one poisons the timing model.
            if not math.isfinite(coerced):
                raise ConfigValueError(
                    f"{spec.path} expects a finite float ({spec.unit or 'no unit'}), "
                    f"got {value!r}")
            return coerced
        if kind is str:
            if isinstance(value, str):
                return value
            raise ConfigValueError(
                f"{spec.path} expects a string, got {value!r}")
        # A future non-scalar leaf: accept only exact type matches.
        if isinstance(value, kind):
            return value
        raise ConfigValueError(
            f"{spec.path} expects {kind.__name__}, got {value!r}")

    @staticmethod
    def _check_bounds(spec: FieldSpec, value: object) -> None:
        if spec.choices is not None and value not in spec.choices:
            raise ConfigValueError(
                f"{spec.path} must be one of {', '.join(map(str, spec.choices))}; "
                f"got {value!r}")
        if spec.minimum is not None and value < spec.minimum:
            raise ConfigValueError(
                f"{spec.path} must be >= {spec.minimum} ({spec.unit}); "
                f"got {value!r}")
        if spec.maximum is not None and value > spec.maximum:
            raise ConfigValueError(
                f"{spec.path} must be <= {spec.maximum} ({spec.unit}); "
                f"got {value!r}")

    def check_invariants(self, config: PlatformConfig) -> None:
        """Raise :class:`ConfigValueError` listing every violated invariant."""
        violations = [
            f"{inv.name}: {inv.doc} (involves {', '.join(inv.paths)})"
            for inv in INVARIANTS
            if not inv.check(config)
        ]
        if violations:
            raise ConfigValueError(
                "configuration violates cross-field invariants:\n  "
                + "\n  ".join(violations))

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def apply(
        self,
        config: PlatformConfig,
        overrides: Mapping[str, object],
        validate: bool = True,
    ) -> PlatformConfig:
        """Return ``config`` with each dotted-path override applied.

        With ``validate`` (the default) every value is coerced/bounds-checked
        and the cross-field invariants are verified on the result.  Internal
        callers replaying already-validated typed values may pass
        ``validate=False``; path resolution stays strict either way.
        """
        if not overrides:
            return config
        for path, value in overrides.items():
            if validate:
                value = self.coerce(path, value)
            else:
                self.get(path)  # strict path resolution even when trusted
            config = self._replace(config, path, value)
        if validate:
            self.check_invariants(config)
        return config

    def _replace(self, config: PlatformConfig, path: str, value: object):
        parts = path.split(".")
        return self._replace_parts(config, path, parts, value)

    def _replace_parts(self, node, full_path: str, parts, value):
        if not is_dataclass(node):
            raise ConfigPathError(
                f"override path {full_path!r}: {type(node).__name__} is not "
                f"a config node")
        names = {f.name for f in fields(node)}
        if parts[0] not in names:
            raise ConfigPathError(self._path_error(full_path))
        if len(parts) == 1:
            return replace(node, **{parts[0]: value})
        child = self._replace_parts(
            getattr(node, parts[0]), full_path, parts[1:], value)
        return replace(node, **{parts[0]: child})

    # ------------------------------------------------------------------
    def read(self, config: PlatformConfig, path: str) -> object:
        """Read the current value of a dotted path from a config instance."""
        self.get(path)
        node = config
        for part in path.split("."):
            node = getattr(node, part)
        return node

    def diff(
        self, a: PlatformConfig, b: PlatformConfig
    ) -> Dict[str, Tuple[object, object]]:
        """``{path: (a_value, b_value)}`` for every path whose values differ."""
        out: Dict[str, Tuple[object, object]] = {}
        for path in self.paths():
            left, right = self.read(a, path), self.read(b, path)
            if left != right:
                out[path] = (left, right)
        return out


def coerce_value(spec: FieldSpec, value: object) -> object:
    """Coerce and bounds-check one value against a standalone :class:`FieldSpec`.

    The workload-family registry (:mod:`repro.workloads.registry`) declares
    its parameters as :class:`FieldSpec` instances too, so family parameters
    get exactly the same CLI-string coercion, type errors and bounds/choices
    enforcement as config overrides — one validation engine, two schemas.
    """
    coerced = ConfigSchema._coerce_type(spec, value)
    ConfigSchema._check_bounds(spec, coerced)
    return coerced


#: The schema singleton derived from :class:`repro.config.PlatformConfig`.
SCHEMA = ConfigSchema.build()
