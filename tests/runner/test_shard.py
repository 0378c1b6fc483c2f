"""Sharded sweep execution: exact partition, determinism, merged equivalence."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runner import SweepRunner, SweepShard, SweepSpec, merge_manifests, run_sweep

#: Cheap grid axes for partition properties (never simulated, only hashed).
_PLATFORMS = ["GDDR5", "ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG"]
_WORKLOADS = ["betw-back", "bfs1", "pr-gaus", "gaus"]
_AXES = {
    "reg16": {"register_cache.registers_per_plane": 16},
    "wide": {"znand.channels": 32},
}


def _small_spec(**kwargs):
    defaults = dict(
        platforms=["ZnG-base", "ZnG"],
        workloads=["betw-back", "bfs1"],
        scale=0.06,
        warps_per_sm=2,
        memory_instructions_per_warp=12,
    )
    defaults.update(kwargs)
    return SweepSpec.create(**defaults)


class TestShardPartitionProperty:
    @settings(max_examples=15, deadline=None)
    @given(
        platforms=st.lists(st.sampled_from(_PLATFORMS), min_size=1, max_size=3,
                           unique=True),
        workloads=st.lists(st.sampled_from(_WORKLOADS), min_size=1, max_size=2,
                           unique=True),
        labels=st.lists(st.sampled_from(sorted(_AXES)), max_size=2, unique=True),
        count=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=1, max_value=3),
    )
    def test_shard_union_is_exact_partition(self, platforms, workloads, labels,
                                            count, seed):
        """For any spec and shard count, the multiset of cells across all
        shards equals the unsharded spec — every cell exactly once."""
        spec = SweepSpec.create(
            platforms=platforms,
            workloads=workloads,
            overrides={label: _AXES[label] for label in labels} or None,
            seed=seed,
        )
        full = sorted(cell.cache_key() for cell in spec.cells())
        union = []
        for index in range(count):
            shard = spec.shard(index, count)
            shard_keys = [cell.cache_key() for cell in shard.cells()]
            assert len(shard) == len(shard_keys)
            union.extend(shard_keys)
        assert sorted(union) == full
        # Balanced: shard sizes differ by at most one.
        sizes = [len(spec.shard(index, count)) for index in range(count)]
        assert max(sizes) - min(sizes) <= 1

    def test_shard_cells_are_deterministic_across_calls(self):
        spec = _small_spec()
        shard = spec.shard(1, 3)
        first = [cell.cache_key() for cell in shard.cells()]
        second = [cell.cache_key() for cell in spec.shard(1, 3).cells()]
        assert first == second

    def test_single_shard_is_whole_spec(self):
        spec = _small_spec()
        assert sorted(c.cache_key() for c in spec.shard(0, 1).cells()) == \
            sorted(c.cache_key() for c in spec.cells())


class TestShardValidation:
    def test_index_out_of_range(self):
        spec = _small_spec()
        with pytest.raises(ValueError):
            spec.shard(3, 3)
        with pytest.raises(ValueError):
            spec.shard(-1, 3)

    def test_count_must_be_positive(self):
        with pytest.raises(ValueError):
            _small_spec().shard(0, 0)


class TestShardedRunEquivalence:
    def test_merged_sharded_run_bit_identical_to_serial(self, tmp_path):
        """Acceptance: 3 shards on the smoke grid, merged via manifests,
        reproduce the unsharded serial sweep bit-for-bit."""
        spec = _small_spec()
        serial = run_sweep(spec, workers=1)

        manifest_paths = []
        for index in range(3):
            root = tmp_path / f"shard{index}"
            result = SweepRunner(workers=1, cache=root).run(
                spec.shard(index, 3), manifest_path=root / "manifest.json")
            assert result.shard_index == index and result.shard_count == 3
            assert not result.failed
            manifest_paths.append(root / "manifest.json")

        merged = merge_manifests(manifest_paths)
        assert len(merged) == len(spec) == len(serial)
        assert merged.stats_dicts() == serial.stats_dicts()
        assert merged.table("ipc") == serial.table("ipc")
        assert merged.table("cycles") == serial.table("cycles")
        assert merged.merged_shards == 3

    def test_shard_run_executes_only_its_cells(self):
        spec = _small_spec()
        shard = spec.shard(0, 2)
        result = run_sweep(shard, workers=1)
        assert len(result) == len(shard) < len(spec)
        expected = {cell.cache_key() for cell in shard.cells()}
        assert {run.cell.cache_key() for run in result} == expected

    def test_shard_result_carries_coordinates(self):
        result = run_sweep(_small_spec().shard(1, 2), workers=1)
        assert result.shard_index == 1 and result.shard_count == 2
        assert result.merged_shards is None

    def test_shard_runs_share_the_cell_cache_keys(self, tmp_path):
        """A cell computed by a shard run is a cache hit for the full sweep."""
        spec = _small_spec()
        SweepRunner(workers=1, cache=tmp_path).run(spec.shard(0, 2))
        full = SweepRunner(workers=1, cache=tmp_path).run(spec)
        assert full.cache_hits == len(spec.shard(0, 2))


class TestSweepShardObject:
    def test_fingerprint_is_the_spec_fingerprint(self):
        spec = _small_spec()
        assert spec.shard(0, 2).fingerprint() == spec.fingerprint()
        assert spec.shard(1, 2).fingerprint() == spec.fingerprint()

    def test_create_validates(self):
        with pytest.raises(ValueError):
            SweepShard.create(_small_spec(), 2, 2)
