"""Named experiment presets: every benchmark grid as declarative data.

An :class:`ExperimentPreset` captures a complete sweep — platforms,
workloads, a labelled config-override axis and the trace knobs — under a
stable name (``fig10``, ``reg-sweep``, ``table1-sensitivity``, ...).  The
CLI runs one with ``python -m repro sweep --preset <name>`` and lists them
with ``python -m repro config --presets``; the ablation benches and examples
build their grids from the same registry, so the experiment space has one
source of truth.

Single-knob axes are not hand-listed: :func:`axis_overrides` expands the
canonical ``ablation`` values declared in the field metadata of
:mod:`repro.config`, so adding a sensitivity axis to the schema automatically
adds it to ``table1-sensitivity``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Sequence, Tuple

from repro.configspace.schema import SCHEMA, ConfigPathError
from repro.workloads.trace import TraceKnobs

#: The seven evaluation platforms of Fig. 10 (plus GDDR5 where relevant).
#: Kept as plain data — :func:`repro.platforms.build_platform` validates the
#: names, and ``repro.platforms.zng.PLATFORM_NAMES`` is this list.
ZNG_VARIANTS: Tuple[str, ...] = ("ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG")
EVAL_PLATFORMS: Tuple[str, ...] = (
    "Hetero", "HybridGPU", "Optane") + ZNG_VARIANTS

#: The default evaluation mixes (read-app co-run with write-app).
DEFAULT_MIX_TOKENS: Tuple[str, ...] = ("betw-back", "bfs1-gaus", "pr-gaus")

#: The workload and trace knobs the sensitivity sweeps share so points stay
#: comparable.
SENSITIVITY_WORKLOAD = "betw-back"
SENSITIVITY_KNOBS = TraceKnobs(scale=0.25, warps_per_sm=12,
                               memory_instructions_per_warp=96)


def axis_overrides(
    path: str,
    values: Optional[Sequence[object]] = None,
    label: Optional[str] = None,
) -> Dict[str, Dict[str, object]]:
    """A labelled override axis for one schema path.

    ``values`` defaults to the field's canonical ``ablation`` values from the
    schema; labels are ``<name>=<value>``.  Raises if the path has no
    declared axis and no values were given.
    """
    spec = SCHEMA.get(path)
    if values is None:
        values = spec.ablation
        if values is None:
            raise ConfigPathError(
                f"{path} declares no canonical ablation values; pass "
                f"values=... explicitly")
    stem = label or spec.name
    return {f"{stem}={value}": {path: value} for value in values}


@dataclass(frozen=True)
class ExperimentPreset:
    """One declarative, named experiment grid."""

    name: str
    description: str
    platforms: Tuple[str, ...]
    workloads: Tuple[str, ...]
    #: Labelled override axis, stored as plain data: (label, ((path, value),)).
    overrides: Tuple[Tuple[str, Tuple[Tuple[str, object], ...]], ...] = ()
    knobs: TraceKnobs = TraceKnobs()

    @classmethod
    def create(
        cls,
        name: str,
        description: str,
        platforms: Sequence[str],
        workloads: Sequence[str],
        overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
        knobs: TraceKnobs = TraceKnobs(),
    ) -> "ExperimentPreset":
        packed = tuple(
            (label, tuple(sorted(mapping.items())))
            for label, mapping in (overrides or {}).items()
        )
        return cls(
            name=name,
            description=description,
            platforms=tuple(platforms),
            workloads=tuple(workloads),
            overrides=packed,
            knobs=knobs,
        )

    def override_axis(self) -> Optional[Dict[str, Dict[str, object]]]:
        """The override axis as the mapping :meth:`SweepSpec.create` accepts."""
        if not self.overrides:
            return None
        return {label: dict(items) for label, items in self.overrides}

    def spec(self, **kwargs):
        """Expand into a :class:`repro.runner.SweepSpec`.

        Keyword arguments override the preset's stored values (``scale=0.05``
        for a faster smoke run, ``platforms=[...]`` for a subset, ...).
        """
        from repro.runner.spec import SweepSpec

        arguments = {
            "platforms": list(self.platforms),
            "workloads": list(self.workloads),
            "overrides": self.override_axis(),
            **self.knobs.sweep_fields(),
        }
        arguments.update(kwargs)
        return SweepSpec.create(**arguments)

    def describe(self) -> str:
        axis = self.override_axis()
        lines = [
            f"preset:    {self.name}",
            f"           {self.description}",
            f"platforms: {', '.join(self.platforms)}",
            f"workloads: {', '.join(self.workloads)}",
            f"knobs:     scale={self.knobs.scale} seed={self.knobs.seed} "
            f"warps_per_sm={self.knobs.warps_per_sm} "
            f"mem_insts={self.knobs.memory_instructions_per_warp}",
        ]
        if axis:
            lines.append(f"axis:      {len(axis)} points — "
                         + ", ".join(sorted(axis)))
        return "\n".join(lines)


def _sensitivity_preset(name, description, path):
    return ExperimentPreset.create(
        name, description,
        platforms=("ZnG",),
        workloads=(SENSITIVITY_WORKLOAD,),
        overrides=axis_overrides(path),
        knobs=SENSITIVITY_KNOBS,
    )


def _table1_sensitivity_axis() -> Dict[str, Dict[str, object]]:
    """One labelled point per (axis, value) of every declared schema axis.

    Labels use the full dotted path, not the leaf field name: two axes may
    share a field name (``znand.registers_per_plane`` vs
    ``register_cache.registers_per_plane``) and must never silently collapse
    onto each other in the merged axis.
    """
    axis: Dict[str, Dict[str, object]] = {}
    for path in sorted(SCHEMA.ablation_axes()):
        axis.update(axis_overrides(path, label=path))
    return axis


EXPERIMENT_PRESETS: Dict[str, ExperimentPreset] = {
    preset.name: preset
    for preset in (
        ExperimentPreset.create(
            "fig10",
            "Normalised-IPC grid of Fig. 10: every platform x the default mixes.",
            platforms=EVAL_PLATFORMS,
            workloads=DEFAULT_MIX_TOKENS,
        ),
        ExperimentPreset.create(
            "fig11",
            "Flash-array bandwidth grid of Fig. 11 (flash-backed platforms).",
            platforms=("HybridGPU",) + ZNG_VARIANTS,
            workloads=DEFAULT_MIX_TOKENS,
        ),
        ExperimentPreset.create(
            "zng-ablation",
            "The four ZnG variants on the default mixes (read/write "
            "optimisation ablation; the CLI's default sweep).",
            platforms=ZNG_VARIANTS,
            workloads=DEFAULT_MIX_TOKENS,
        ),
        ExperimentPreset.create(
            "l2-ablation",
            "SRAM 6 MB L2 (ZnG-base) vs STT-MRAM 24 MB + prefetch (ZnG-rdopt).",
            platforms=("ZnG-base", "ZnG-rdopt"),
            workloads=(SENSITIVITY_WORKLOAD,),
            knobs=SENSITIVITY_KNOBS,
        ),
        ExperimentPreset.create(
            "quickstart",
            "Every platform (incl. GDDR5) on the betw-back mix — the "
            "examples/quickstart.py comparison.",
            platforms=("GDDR5",) + EVAL_PLATFORMS,
            workloads=(SENSITIVITY_WORKLOAD,),
            knobs=replace(SENSITIVITY_KNOBS, scale=0.3),
        ),
        ExperimentPreset.create(
            "smoke",
            "Tiny 2x2 grid used by CI's smoke sweep and quick local checks.",
            platforms=("ZnG-base", "ZnG"),
            workloads=("betw-back", "bfs1-gaus"),
            knobs=TraceKnobs(scale=0.08, warps_per_sm=2),
        ),
        _sensitivity_preset(
            "reg-sweep",
            "Flash registers per plane (write-cache size) sensitivity.",
            "register_cache.registers_per_plane",
        ),
        _sensitivity_preset(
            "l2-sweep",
            "STT-MRAM L2 capacity sensitivity.",
            "stt_mram.size_bytes",
        ),
        _sensitivity_preset(
            "prefetch-sweep",
            "Prefetch-predictor cutoff threshold sensitivity.",
            "prefetch.prefetch_threshold",
        ),
        _sensitivity_preset(
            "interconnect-sweep",
            "Register interconnect comparison (swnet / fcnet / nif).",
            "register_cache.interconnect",
        ),
        _sensitivity_preset(
            "flash-width-sweep",
            "Flash-network link width sensitivity (Section III-B).",
            "znand.flash_network_bus_bytes",
        ),
        ExperimentPreset.create(
            "prefetch-policy",
            "Read-prefetch policy ablation on a regular and an irregular mix.",
            platforms=("ZnG",),
            workloads=(SENSITIVITY_WORKLOAD, "bfs3-gaus"),
            overrides=axis_overrides("prefetch.policy"),
            knobs=SENSITIVITY_KNOBS,
        ),
        ExperimentPreset.create(
            "kv-sweep",
            "kv-lookup Zipf-skew sensitivity (point-read locality, spans "
            "the alpha >= 1 regime) on ZnG.",
            platforms=("ZnG",),
            workloads=tuple(
                f"kv-lookup:zipf={value}"
                for value in (0.6, 0.8, 0.99, 1.1, 1.2)),
        ),
        ExperimentPreset.create(
            "table1-sensitivity",
            "Every declared schema ablation axis, one labelled point per "
            "value, on the ZnG platform.",
            platforms=("ZnG",),
            workloads=(SENSITIVITY_WORKLOAD,),
            overrides=_table1_sensitivity_axis(),
            knobs=SENSITIVITY_KNOBS,
        ),
    )
}


def get_preset(name: str) -> ExperimentPreset:
    """Look up a preset; raises ``KeyError`` listing the known names."""
    preset = EXPERIMENT_PRESETS.get(name)
    if preset is None:
        known = ", ".join(sorted(EXPERIMENT_PRESETS))
        raise KeyError(f"unknown experiment preset {name!r}; known: {known}")
    return preset
