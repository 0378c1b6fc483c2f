"""Tests for the sensitivity-analysis pivots over preset sweeps."""

import pytest

from repro.analysis import sensitivity
from repro.configspace import axis_overrides, get_preset
from repro.runner import run_sweep

REGISTERS = "register_cache.registers_per_plane"
MB = 1024 * 1024


def _axis(preset, path, values=None, scale=0.1, **fields):
    """Run ``preset`` — narrowed to ``values`` if given — and pivot ``path``."""
    if values is not None:
        fields["overrides"] = axis_overrides(path, values)
    spec = get_preset(preset).spec(scale=scale, **fields)
    return sensitivity.axis_from_result(run_sweep(spec), path)


def _l2_axis_mb(sizes_mb, scale):
    by_bytes = _axis("l2-sweep", "stt_mram.size_bytes",
                     [size * MB for size in sizes_mb], scale)
    return {size // MB: result for size, result in by_bytes.items()}


class TestSweeps:
    def test_registers_sweep_covers_values(self):
        results = _axis("reg-sweep", REGISTERS, [2, 8])
        assert set(results) == {2, 8}
        for result in results.values():
            assert result.ipc > 0

    def test_more_registers_improves_hit_rate(self):
        results = _axis("reg-sweep", REGISTERS, [2, 16], scale=0.12)
        hit2 = results[2].extra.get("register_hit_rate", 0.0)
        hit16 = results[16].extra.get("register_hit_rate", 0.0)
        assert hit16 >= hit2 - 0.05

    def test_l2_sweep(self):
        results = _l2_axis_mb([6, 24], scale=0.1)
        assert set(results) == {6, 24}

    def test_larger_l2_no_worse_hit_rate(self):
        results = _l2_axis_mb([6, 48], scale=0.12)
        assert results[48].l2_hit_rate >= results[6].l2_hit_rate - 0.05

    def test_prefetch_threshold_sweep(self):
        results = _axis("prefetch-sweep", "prefetch.prefetch_threshold", [1, 12])
        assert set(results) == {1, 12}

    def test_interconnect_sweep(self):
        results = _axis("interconnect-sweep", "register_cache.interconnect")
        assert set(results) == {"swnet", "fcnet", "nif"}


def _sharded_merge(tmp_path, spec):
    """Run ``spec`` as 2 shards and merge their manifests back together."""
    from repro.runner import SweepRunner, merge_manifests

    paths = []
    for index in range(2):
        root = tmp_path / f"shard{index}"
        SweepRunner(workers=1, cache=root).run(
            spec.shard(index, 2), manifest_path=root / "manifest.json")
        paths.append(root / "manifest.json")
    return merge_manifests(paths)


class TestAxisFromResult:
    """axis_from_result pivots an already-run axis sweep (e.g. shard-merged)."""

    def test_round_trips_a_merged_axis_sweep(self, tmp_path):
        spec = get_preset("reg-sweep").spec(
            overrides=axis_overrides(REGISTERS, [4, 8]), scale=0.1)
        direct = sensitivity.axis_from_result(run_sweep(spec), REGISTERS)

        rebuilt = sensitivity.axis_from_result(
            _sharded_merge(tmp_path, spec), REGISTERS)
        assert {v: r.ipc for v, r in rebuilt.items()} == \
            {v: r.ipc for v, r in direct.items()}
        assert {v: r.stats.as_dict() for v, r in rebuilt.items()} == \
            {v: r.stats.as_dict() for v, r in direct.items()}

    def test_pivots_every_value_of_a_merged_preset_sweep(self, tmp_path):
        """The preset labels its points ``registers_per_plane=<v>``; the
        pivot reads the override value, so every axis value comes back."""
        spec = get_preset("reg-sweep").spec(scale=0.05, warps_per_sm=2)
        merged = _sharded_merge(tmp_path, spec)
        axis = sensitivity.axis_from_result(merged, REGISTERS)
        assert list(axis) == sensitivity.axis_values(REGISTERS)
        for value, result in axis.items():
            label = f"registers_per_plane={value}"
            assert [run.result for run in merged.runs
                    if run.cell.override_set.label == label] == [result]

    def test_values_come_back_in_spec_order(self):
        result = run_sweep(get_preset("reg-sweep").spec(
            overrides=axis_overrides(REGISTERS, [16, 2, 8]),
            scale=0.05, warps_per_sm=2))
        axis = sensitivity.axis_from_result(result, REGISTERS)
        assert list(axis) == [16, 2, 8]
        assert [axis[v] for v in axis] == [run.result for run in result]

    def test_cells_without_the_path_are_skipped(self):
        axis = dict(axis_overrides(REGISTERS, [2]))
        axis.update(axis_overrides("register_cache.interconnect", ["nif"]))
        result = run_sweep(get_preset("reg-sweep").spec(
            overrides=axis, scale=0.05, warps_per_sm=2))
        assert list(sensitivity.axis_from_result(result, REGISTERS)) == [2]
        assert list(sensitivity.axis_from_result(
            result, "register_cache.interconnect")) == ["nif"]

    def test_no_matching_cell_raises(self):
        result = run_sweep(get_preset("interconnect-sweep").spec(
            overrides=axis_overrides("register_cache.interconnect", ["swnet"]),
            scale=0.05, warps_per_sm=2))
        with pytest.raises(KeyError):
            sensitivity.axis_from_result(result, REGISTERS)

    def test_two_cells_on_one_value_raise(self):
        result = run_sweep(get_preset("reg-sweep").spec(
            overrides=axis_overrides(REGISTERS, [8]),
            platforms=["ZnG-base", "ZnG"], scale=0.05, warps_per_sm=2))
        with pytest.raises(ValueError, match="ambiguous pivot"):
            sensitivity.axis_from_result(result, REGISTERS)
