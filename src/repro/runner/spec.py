"""Declarative sweep specifications.

A :class:`SweepSpec` names *what* to run — platforms x workloads x config
overrides plus the trace-generation knobs — without saying *how*.  The runner
expands it into independent :class:`SweepCell` jobs, each of which carries a
canonical plain-data descriptor used for three things at once:

* shipping the job to a worker process (everything is picklable),
* deterministic per-cell seeding (the trace seed is derived from the spec
  seed and the workload token only, so every platform sees the same trace
  and serial/parallel execution are bit-identical), and
* the content hash that keys the on-disk result cache.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.config import PlatformConfig, default_config
from repro.configspace.fingerprint import canonical_json
from repro.configspace.schema import SCHEMA, FieldSpec, coerce_value
from repro.workloads.registry import (
    parse_workload_token,
    resolve_workload_tokens,
    workload_fingerprint,
)

#: Override mapping: dotted config path -> value, e.g.
#: ``{"register_cache.registers_per_plane": 16}``.
OverrideMapping = Mapping[str, object]


def apply_overrides(
    config: PlatformConfig,
    overrides: OverrideMapping,
    validate: bool = True,
) -> PlatformConfig:
    """Return ``config`` with each dotted-path override applied.

    Resolution is delegated to the :mod:`repro.configspace` schema: unknown
    paths and derived ``@property`` paths raise immediately with a precise
    message, values are coerced to the field's declared type (CLI strings
    included) and bounds-checked, and the cross-field invariants run on the
    result.  ``validate=False`` replays already-validated typed values
    (path resolution stays strict).
    """
    return SCHEMA.apply(config, overrides, validate=validate)


@dataclass(frozen=True)
class OverrideSet:
    """One labelled point on a configuration axis (``label`` -> overrides)."""

    label: str
    overrides: Tuple[Tuple[str, object], ...] = ()

    @classmethod
    def create(cls, label: str, overrides: Optional[OverrideMapping] = None) -> "OverrideSet":
        items = tuple(sorted((overrides or {}).items()))
        return cls(label=label, overrides=items)

    def as_mapping(self) -> Dict[str, object]:
        return dict(self.overrides)


def _run_knob(name: str, unit: str, doc: str) -> FieldSpec:
    return FieldSpec(path=name, group="run", name=name, owner="SweepSpec",
                     type=int, default=None, unit=unit, doc=doc, minimum=1)


#: The integer trace-generation knobs of ``SweepSpec.create``, checked by the
#: engine that checks config overrides and workload parameters.
_RUN_KNOBS = (
    _run_knob("num_sms", "SMs", "SMs the trace is generated for."),
    _run_knob("warps_per_sm", "warps", "Warps per SM in the trace."),
    _run_knob("memory_instructions_per_warp", "instructions",
              "Memory instructions per warp in the trace."),
)


#: What callers may pass as the ``overrides`` argument of ``SweepSpec.create``.
OverridesInput = Union[None, OverrideMapping, Sequence[OverrideSet], Mapping[str, OverrideMapping]]


@dataclass(frozen=True)
class SweepSpec:
    """A declarative experiment grid: platforms x workloads x overrides."""

    platforms: Tuple[str, ...]
    workloads: Tuple[str, ...]
    overrides: Tuple[OverrideSet, ...] = (OverrideSet("default"),)
    scale: float = 0.25
    seed: int = 1
    num_sms: int = 16
    warps_per_sm: int = 8
    memory_instructions_per_warp: int = 64
    #: Optional non-default base config the overrides are applied on top of.
    base_config: Optional[PlatformConfig] = field(default=None, compare=False)

    @classmethod
    def create(
        cls,
        platforms: Sequence[str],
        workloads: Sequence[str],
        overrides: OverridesInput = None,
        scale: float = 0.25,
        seed: int = 1,
        num_sms: int = 16,
        warps_per_sm: int = 8,
        memory_instructions_per_warp: int = 64,
        base_config: Optional[PlatformConfig] = None,
    ) -> "SweepSpec":
        """Normalise user-friendly inputs into a spec.

        ``overrides`` may be omitted (one default point), a single mapping of
        dotted paths, a mapping of ``label -> {path: value}``, or a sequence
        of :class:`OverrideSet`.  Override paths are resolved against the
        :mod:`repro.configspace` schema here — values are coerced to their
        declared types (so ``"32"`` and ``32`` produce bit-identical cells)
        and bad paths/values raise before any cell runs.  ``workloads``
        accepts single applications (``"betw"``), mixes (``"betw-back"``)
        and group tokens (``"mixes"``, ``"graph"``, ``"scientific"``).
        The run knobs are checked too: ``scale`` must be a finite number
        > 0, and the SM, warp and memory-instruction counts ints >= 1.
        """
        if isinstance(scale, bool) or not (
                isinstance(scale, (int, float)) and 0 < scale < math.inf):
            raise ValueError(f"scale must be a finite number > 0, got {scale!r}")
        num_sms, warps_per_sm, memory_instructions_per_warp = (
            coerce_value(knob, value) for knob, value in zip(
                _RUN_KNOBS, (num_sms, warps_per_sm, memory_instructions_per_warp)))
        if overrides is None:
            override_sets: Tuple[OverrideSet, ...] = (OverrideSet("default"),)
        elif isinstance(overrides, Mapping):
            if not overrides:
                # An empty mapping carries no overrides: it IS the default
                # point and must label (and cache) as such.
                override_sets = (OverrideSet("default"),)
            elif all(isinstance(v, Mapping) for v in overrides.values()):
                override_sets = tuple(
                    OverrideSet.create(str(label), mapping)
                    for label, mapping in overrides.items()
                )
            else:
                override_sets = (OverrideSet.create("override", overrides),)
        else:
            override_sets = tuple(overrides)
        if not override_sets:
            override_sets = (OverrideSet("default"),)
        override_sets = tuple(
            OverrideSet(
                label=override_set.label,
                overrides=tuple(
                    (path, SCHEMA.coerce(path, value))
                    for path, value in override_set.overrides
                ),
            )
            for override_set in override_sets
        )
        from repro.platforms.zng import PLATFORM_NAMES

        known_platforms = ["GDDR5"] + PLATFORM_NAMES
        for platform in platforms:
            if platform not in known_platforms:
                raise ValueError(
                    f"unknown platform {platform!r}; known: {known_platforms}"
                )
        return cls(
            platforms=tuple(platforms),
            workloads=tuple(resolve_workload_tokens(workloads)),
            overrides=override_sets,
            scale=scale,
            seed=seed,
            num_sms=num_sms,
            warps_per_sm=warps_per_sm,
            memory_instructions_per_warp=memory_instructions_per_warp,
            base_config=base_config,
        )

    def descriptor(self) -> Dict[str, object]:
        """Canonical plain-data form of the *declared* grid.

        This is what run manifests persist: enough to reconstruct the spec
        bit-identically (see :meth:`from_descriptor`) and to fingerprint it.
        The optional ``base_config`` is embedded as its full field mapping so
        a manifest survives the process that created it.
        """
        return {
            "platforms": list(self.platforms),
            "workloads": list(self.workloads),
            "overrides": [
                [override_set.label,
                 [[path, value] for path, value in override_set.overrides]]
                for override_set in self.overrides
            ],
            "scale": self.scale,
            "seed": self.seed,
            "num_sms": self.num_sms,
            "warps_per_sm": self.warps_per_sm,
            "memory_instructions_per_warp": self.memory_instructions_per_warp,
            "base_config": asdict(self.base_config) if self.base_config else None,
        }

    def fingerprint(self) -> str:
        """Content hash of the declared grid (what shard manifests must share).

        Two specs fingerprint identically exactly when they declare the same
        grid — platforms, workloads, override axis, trace knobs and base
        config — regardless of how they were constructed.
        """
        from repro.configspace.fingerprint import fingerprint

        return fingerprint(self.descriptor())

    @classmethod
    def from_descriptor(cls, payload: Mapping[str, object]) -> "SweepSpec":
        """Rebuild a spec from a :meth:`descriptor` payload (JSON round-trip).

        Values re-enter through :meth:`create`, so they are re-coerced and
        re-validated against the current schema — a manifest written against
        an incompatible config schema fails loudly here instead of silently
        sweeping a different grid.
        """
        base_config = None
        if payload.get("base_config"):
            base_config = _config_from_payload(payload["base_config"])  # type: ignore[arg-type]
        override_sets = tuple(
            OverrideSet(label=str(label),
                        overrides=tuple((str(path), value) for path, value in items))
            for label, items in payload["overrides"]  # type: ignore[union-attr]
        )
        return cls.create(
            platforms=list(payload["platforms"]),  # type: ignore[arg-type]
            workloads=list(payload["workloads"]),  # type: ignore[arg-type]
            overrides=override_sets,
            scale=payload["scale"],  # type: ignore[arg-type]
            seed=payload["seed"],  # type: ignore[arg-type]
            num_sms=payload["num_sms"],  # type: ignore[arg-type]
            warps_per_sm=payload["warps_per_sm"],  # type: ignore[arg-type]
            memory_instructions_per_warp=payload["memory_instructions_per_warp"],  # type: ignore[arg-type]
            base_config=base_config,
        )

    def cells(self) -> List["SweepCell"]:
        """Expand the grid into independent jobs (platform-major order)."""
        out: List[SweepCell] = []
        for override_set in self.overrides:
            for workload in self.workloads:
                for platform in self.platforms:
                    out.append(
                        SweepCell(
                            platform=platform,
                            workload=workload,
                            override_set=override_set,
                            scale=self.scale,
                            seed=cell_seed(self.seed, workload),
                            num_sms=self.num_sms,
                            warps_per_sm=self.warps_per_sm,
                            memory_instructions_per_warp=self.memory_instructions_per_warp,
                            base_config=self.base_config,
                        )
                    )
        return out

    def __len__(self) -> int:
        return len(self.platforms) * len(self.workloads) * len(self.overrides)

    def shard(self, index: int, count: int) -> "SweepShard":
        """One deterministic 1/``count`` partition of the cell grid.

        Cells are ordered by their cache key — a total order that is stable
        across processes, machines and grid-declaration order — and dealt
        round-robin, so the union of all ``count`` shards is exactly the full
        grid (every cell exactly once) and shard sizes differ by at most one.
        ``index`` is 0-based (the CLI's ``--shard I/N`` flag is 1-based).
        """
        return SweepShard.create(self, index, count)


@dataclass(frozen=True)
class SweepShard:
    """A deterministic slice of one :class:`SweepSpec`'s cell grid.

    Runs exactly like a spec (the runner accepts either), but only over its
    ``index``-th round-robin slice of the cache-key-ordered cell list.  The
    union of the ``count`` shards of a spec is the full grid, bit-identical
    to running the spec unsharded — which is what ``repro merge`` verifies.
    """

    spec: SweepSpec
    index: int
    count: int

    @classmethod
    def create(cls, spec: SweepSpec, index: int, count: int) -> "SweepShard":
        if count < 1:
            raise ValueError(f"shard count must be >= 1, got {count}")
        if not 0 <= index < count:
            raise ValueError(
                f"shard index must be in [0, {count}), got {index}")
        return cls(spec=spec, index=index, count=count)

    def cells(self) -> List["SweepCell"]:
        """This shard's cells, in the stable cache-key order."""
        ordered = sorted(self.spec.cells(), key=lambda cell: cell.cache_key())
        return ordered[self.index::self.count]

    def __len__(self) -> int:
        return len(range(self.index, len(self.spec), self.count))

    def fingerprint(self) -> str:
        """The *spec* fingerprint — all shards of one sweep share it."""
        return self.spec.fingerprint()


def _config_from_payload(payload: Mapping[str, object]) -> PlatformConfig:
    """Rebuild a :class:`PlatformConfig` from its ``asdict`` mapping.

    Every sub-config is a flat dataclass of scalars, so ``SubConfig(**sub)``
    restores it exactly; unknown or missing fields raise, they are never
    silently defaulted (a manifest must not resurrect a *different* config).
    """
    from dataclasses import fields as dataclass_fields

    kwargs = {}
    for config_field in dataclass_fields(PlatformConfig):
        sub_payload = payload.get(config_field.name)
        if not isinstance(sub_payload, Mapping):
            raise ValueError(
                f"base_config payload is missing sub-config {config_field.name!r}")
        sub_cls = type(getattr(default_config(), config_field.name))
        expected = {f.name for f in dataclass_fields(sub_cls)}
        if set(sub_payload) != expected:
            drift = sorted(set(sub_payload) ^ expected)
            raise ValueError(
                f"base_config sub-config {config_field.name!r} does not match "
                f"the current schema (drifted fields: {drift})")
        kwargs[config_field.name] = sub_cls(**dict(sub_payload))
    return PlatformConfig(**kwargs)


def cell_seed(spec_seed: int, workload: str) -> int:
    """Deterministic trace seed for one workload of a sweep.

    Derived from the spec seed and the workload token only — never from the
    platform or override — so every platform in a sweep sees the identical
    trace, and a cell re-run in any process reproduces it exactly.
    """
    digest = hashlib.sha256(f"{spec_seed}:{workload}".encode()).hexdigest()
    return int(digest[:8], 16)


@dataclass(frozen=True)
class SweepCell:
    """One (platform, workload, override) job of a sweep."""

    platform: str
    workload: str
    override_set: OverrideSet
    scale: float
    seed: int
    num_sms: int
    warps_per_sm: int
    memory_instructions_per_warp: int
    base_config: Optional[PlatformConfig] = field(default=None, compare=False)

    @property
    def label(self) -> str:
        if self.override_set.label == "default":
            return f"{self.platform}/{self.workload}"
        return f"{self.platform}/{self.workload}/{self.override_set.label}"

    def resolved_config(self) -> PlatformConfig:
        """The platform config this cell runs with (base + overrides)."""
        base = self.base_config or default_config()
        return apply_overrides(base, self.override_set.as_mapping())

    def platform_config(self) -> PlatformConfig:
        """The config *after* the platform's pinned layer is applied.

        This is what the platform constructor actually runs with (the pin is
        idempotent, so building from either config is equivalent) — and what
        the cache key must hash: editing a platform's declarative delta in
        ``PLATFORM_LAYERS`` has to miss the cache, exactly like editing a
        Table I default.
        """
        from repro.configspace.layers import resolve_platform_config

        return resolve_platform_config(self.platform, self.resolved_config()).config

    def workload_fingerprint(self) -> str:
        """Content hash of the cell's *resolved* workload.

        Families hash their full resolved parameter mapping (defaults
        included), ``trace:`` tokens hash the file bytes — see
        :func:`repro.workloads.registry.workload_fingerprint`.  Memoized on
        the frozen cell alongside the cache key.
        """
        cached = self.__dict__.get("_workload_fingerprint")
        if cached is None:
            cached = workload_fingerprint(self.workload)
            object.__setattr__(self, "_workload_fingerprint", cached)
        return cached

    def descriptor(self) -> Dict[str, object]:
        """Canonical plain-data form: worker payload and cache-key input.

        ``workload_fingerprint`` ties the cache key to the resolved family
        parameters and trace-file content, not just the token text: a
        changed family default, an edited catalogue entry or a rewritten
        trace file all miss the cache (schema v4).
        """
        return {
            "platform": self.platform,
            "workload": self.workload,
            "workload_fingerprint": self.workload_fingerprint(),
            "override_label": self.override_set.label,
            "overrides": [[path, value] for path, value in self.override_set.overrides],
            "scale": self.scale,
            "seed": self.seed,
            "num_sms": self.num_sms,
            "warps_per_sm": self.warps_per_sm,
            "memory_instructions_per_warp": self.memory_instructions_per_warp,
            "config": asdict(self.platform_config()),
        }

    def cache_key(self) -> str:
        """Content hash of everything that determines this cell's result.

        The resolved config is hashed (not just the overrides), so sweeps
        with different base configs — or a changed Table I default — never
        alias each other's cache entries.  The descriptor is encoded with the
        strict canonical encoder from :mod:`repro.configspace.fingerprint`:
        a value it cannot encode exactly raises
        :class:`~repro.configspace.CanonicalEncodingError` instead of being
        stringified into a potentially aliasing key (cache schema v3).

        The key is memoized on the (frozen, immutable) cell: sharding orders
        cells by key and the manifest layer records it again, so one
        config-resolution + hash per cell instance, not three.
        """
        cached = self.__dict__.get("_cache_key")
        if cached is None:
            cached = hashlib.sha256(
                canonical_json(self.descriptor()).encode()).hexdigest()
            object.__setattr__(self, "_cache_key", cached)
        return cached

    def trace_key(self) -> Tuple:
        """Key over *everything* :func:`build_cell_trace` consumes.

        This is what the per-process trace memo hashes on.  It lives next to
        :func:`build_cell_trace` so the two stay in lockstep: any new knob
        that influences trace generation must be added to both, otherwise a
        ``--set`` ablation changing that knob would silently replay a stale
        memoised trace across cells.  (The platform and override set are
        deliberately absent — every platform of a sweep runs the identical
        trace, which is what makes cross-platform comparisons fair.)
        """
        return (
            self.workload,
            self.workload_fingerprint(),
            self.scale,
            self.seed,
            self.num_sms,
            self.warps_per_sm,
            self.memory_instructions_per_warp,
        )


def build_cell_trace(cell: SweepCell):
    """Generate (or replay) the deterministic workload trace a cell runs.

    Single tokens — family names, parameterised instances, ``trace:<path>``
    replays — build one trace through the registry; ``read-write`` tokens
    build the paper's co-run mix with the two applications in disjoint
    address ranges.
    """
    from repro.workloads.multiapp import build_mix
    from repro.workloads.registry import TraceKnobs, build_trace

    read_app, write_app = parse_workload_token(cell.workload)
    if write_app is None:
        return build_trace(read_app, TraceKnobs(
            scale=cell.scale,
            seed=cell.seed,
            num_sms=cell.num_sms,
            warps_per_sm=cell.warps_per_sm,
            memory_instructions_per_warp=cell.memory_instructions_per_warp,
        ))
    mix = build_mix(
        read_app,
        write_app,
        scale=cell.scale,
        seed=cell.seed,
        num_sms=cell.num_sms,
        warps_per_sm=cell.warps_per_sm,
        memory_instructions_per_warp=cell.memory_instructions_per_warp,
    )
    return mix.combined
