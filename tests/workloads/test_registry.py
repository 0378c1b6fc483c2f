"""Tests for the workload-family registry (repro.workloads.registry)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.workloads import registry
from repro.workloads.registry import (
    WORKLOAD_FAMILIES,
    TraceKnobs,
    WorkloadFamily,
    build_token_trace,
    canonicalize_token,
    family_by_name,
    family_param,
    parse_workload_token,
    register_family,
    resolve_workload,
    resolve_workload_tokens,
    workload_fingerprint,
)
from repro.workloads.suites import (
    ALL_WORKLOADS,
    GRAPH_WORKLOADS,
    MULTI_APP_MIXES,
    SCIENTIFIC_WORKLOADS,
    mix_name,
)

TINY = TraceKnobs(scale=0.05, seed=7, num_sms=4, warps_per_sm=2,
                  memory_instructions_per_warp=32)


class TestRegistryContents:
    def test_every_table2_app_is_a_family(self):
        for name in ALL_WORKLOADS:
            assert name in WORKLOAD_FAMILIES

    def test_kv_lookup_is_the_one_parametric_family(self):
        names = {family.name for family in WORKLOAD_FAMILIES.values()
                 if family.suite == "parametric"}
        assert names == {"kv-lookup"}

    def test_every_family_param_documented(self):
        for family in WORKLOAD_FAMILIES.values():
            for param in family.params:
                assert param.unit, f"{family.name}:{param.name} lacks a unit"
                assert param.doc, f"{family.name}:{param.name} lacks a doc"

    def test_every_registered_default_instance_validates_and_builds(self):
        # The satellite property: every family's default parameters must
        # produce a valid WorkloadSpec (no nonsense values sneak in).
        for name, family in WORKLOAD_FAMILIES.items():
            trace = family.builder(family.defaults(), TINY)
            assert trace.warps, name
            assert trace.total_memory_instructions > 0, name

    def test_register_family_rejects_duplicates_and_reserved_names(self):
        family = WORKLOAD_FAMILIES["betw"]
        with pytest.raises(ValueError, match="already registered"):
            register_family(family)
        for bad in ("a:b", "a=b", "a,b", "mixes"):
            broken = WorkloadFamily(
                name=bad, suite="x", description="d", params=(),
                builder=family.builder)
            with pytest.raises(ValueError):
                register_family(broken)

    def test_family_by_name_did_you_mean(self):
        with pytest.raises(KeyError, match="did you mean kv-lookup"):
            family_by_name("kv-lokup")

    def test_unknown_param_did_you_mean(self):
        with pytest.raises(ValueError, match="did you mean zipf_alpha"):
            WORKLOAD_FAMILIES["betw"].resolve_params({"zipf": 1.0})


class TestTokenParsing:
    def test_plain_and_mix_tokens_unchanged(self):
        assert parse_workload_token("betw") == ("betw", None)
        assert parse_workload_token("betw-back") == ("betw", "back")

    def test_dashed_family_names_parse_as_single(self):
        # Regression: naive split("-") would break every dashed family name.
        assert parse_workload_token("kv-lookup") == ("kv-lookup", None)

    def test_dashed_family_in_a_mix_longest_match(self):
        assert parse_workload_token("kv-lookup-back") == ("kv-lookup", "back")
        assert parse_workload_token("betw-kv-lookup") == ("betw", "kv-lookup")
        assert parse_workload_token("kv-lookup-kv-lookup") == (
            "kv-lookup", "kv-lookup")

    def test_parameterised_token(self):
        assert parse_workload_token("kv-lookup:zipf=1.1") == (
            "kv-lookup:zipf=1.1", None)

    def test_unknown_token_fails_with_hint(self):
        with pytest.raises(KeyError, match="did you mean"):
            parse_workload_token("kv-lokup")

    def test_malformed_param_suffix(self):
        with pytest.raises(ValueError, match="expected name=value"):
            parse_workload_token("kv-lookup:zipf")
        with pytest.raises(ValueError):
            parse_workload_token("kv-lookup:")

    def test_out_of_range_param_rejected(self):
        with pytest.raises(ValueError, match="must be <="):
            parse_workload_token("kv-lookup:get_ratio=1.5")

    def test_canonicalisation_sorts_and_drops_defaults(self):
        assert canonicalize_token("kv-lookup:zipf=0.99") == "kv-lookup"
        assert canonicalize_token(
            "kv-lookup:zipf=1.1,get_ratio=0.95") == "kv-lookup:zipf=1.1"
        assert canonicalize_token(
            "kv-lookup:zipf=1.1,get_ratio=0.9") == (
                "kv-lookup:get_ratio=0.9,zipf=1.1")

    def test_coerced_values_canonicalise_identically(self):
        assert (canonicalize_token("kv-lookup:zipf=1.10")
                == canonicalize_token("kv-lookup:zipf=1.1"))


class TestTokenResolution:
    def test_group_tokens(self):
        assert resolve_workload_tokens(["mixes"]) == [
            mix_name(r, w) for r, w in MULTI_APP_MIXES]
        assert resolve_workload_tokens(["graph"]) == sorted(GRAPH_WORKLOADS)
        assert resolve_workload_tokens(["scientific"]) == sorted(
            SCIENTIFIC_WORKLOADS)

    def test_order_preserving_dedupe(self):
        tokens = resolve_workload_tokens(
            ["kv-lookup", "kv-lookup:zipf=0.99", "betw"])
        assert tokens == ["kv-lookup", "betw"]

    def test_typo_fails_before_any_cell(self):
        with pytest.raises(KeyError, match="did you mean"):
            resolve_workload_tokens(["betw-back", "kv-lokup"])


class TestFingerprints:
    def test_param_change_changes_fingerprint(self):
        assert (workload_fingerprint("kv-lookup")
                != workload_fingerprint("kv-lookup:zipf=1.1"))

    def test_equal_resolutions_share_a_fingerprint(self):
        assert (workload_fingerprint("kv-lookup")
                == workload_fingerprint("kv-lookup:zipf=0.99"))

    def test_mix_fingerprint_depends_on_both_halves(self):
        base = workload_fingerprint("betw-back")
        assert base != workload_fingerprint("betw-gaus")
        assert base != workload_fingerprint("bfs1-back")

    @settings(max_examples=25, deadline=None)
    @given(zipf=st.floats(min_value=0.0, max_value=4.0,
                          allow_nan=False, allow_infinity=False),
           ratio=st.floats(min_value=0.0, max_value=1.0,
                           allow_nan=False, allow_infinity=False))
    def test_fingerprint_injective_over_params(self, zipf, ratio):
        # No cache aliasing: distinct resolved parameter mappings must never
        # share a fingerprint; identical ones must.
        token = f"kv-lookup:zipf={zipf},get_ratio={ratio}"
        resolved = resolve_workload(token)
        default = resolve_workload("kv-lookup")
        if resolved.params == default.params:
            assert resolved.fingerprint() == default.fingerprint()
        else:
            assert resolved.fingerprint() != default.fingerprint()


class TestTraceKnobs:
    @pytest.mark.parametrize("knobs, message", [
        ({"scale": True}, "scale must be a finite number > 0, got True"),
        ({"num_sms": 16.0}, "num_sms expects an int, got 16.0"),
        ({"memory_instructions_per_warp": "64"},
         "memory_instructions_per_warp expects an int, got '64'"),
        ({"seed": "1"}, "seed expects an int, got '1'"),
        ({"seed": True}, "seed expects an int, got True"),
        ({"address_space_offset": -1},
         "address_space_offset must be >= 0, got -1"),
    ])
    def test_construction_checks_every_knob(self, knobs, message):
        with pytest.raises(ValueError, match=message):
            TraceKnobs(**knobs)

    def test_seed_none_seeds_from_the_workload_name(self):
        assert TraceKnobs(seed=None).seed is None

    def test_from_payload_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="unknown trace knob 'warps'"):
            TraceKnobs.from_payload({"scale": 0.1, "warps": 2})

    def test_from_payload_fills_missing_knobs_with_defaults(self):
        assert TraceKnobs.from_payload({"scale": 0.1}) == TraceKnobs(scale=0.1)

    def test_sweep_fields_are_the_descriptor_knobs_in_order(self):
        assert list(TINY.sweep_fields().items()) == [
            ("scale", 0.05), ("seed", 7), ("num_sms", 4), ("warps_per_sm", 2),
            ("memory_instructions_per_warp", 32)]

    def test_a_sweep_refuses_an_address_offset(self):
        # Descriptors and cache keys hold no offset, so a sweep at one would
        # alias the cache entries of the same sweep at address 0.
        from repro.runner import SweepSpec

        with pytest.raises(ValueError, match="address_space_offset must be 0"):
            SweepSpec.create(platforms=["ZnG"], workloads=["betw"],
                             address_space_offset=4096)


class TestBuildTrace:
    @pytest.mark.parametrize("token", [
        "betw", "betw-back", "kv-lookup:get_ratio=0.3", "bfs1:zipf_alpha=1.0"])
    def test_the_trace_is_named_after_its_token(self, token):
        # A mix keeps its read half's spec and a parametric token its
        # family's; only the label names the cell.
        trace = build_token_trace(token, TINY)
        assert trace.name == token
        assert trace.spec.name == parse_workload_token(token)[0].split(":")[0]

    def test_mix_tokens_build_the_co_run_mix(self):
        from repro.workloads.io import trace_to_dict
        from repro.workloads.multiapp import build_mix

        assert (trace_to_dict(build_token_trace("betw-back", TINY))
                == trace_to_dict(build_mix("betw", "back", TINY).combined))

    def test_a_mix_at_an_offset_places_both_halves_above_it(self):
        from dataclasses import replace

        from repro.workloads.multiapp import build_mix

        base = 1 << 30
        mix = build_mix("betw", "back", replace(TINY, address_space_offset=base))
        at_zero = build_mix("betw", "back", TINY)
        addresses = [[a - base for i in w.instructions for a in i.addresses]
                     for w in mix.combined.warps]
        assert addresses == [[a for i in w.instructions for a in i.addresses]
                             for w in at_zero.combined.warps]

    def test_catalogue_builds_are_bit_identical_to_the_generator(self):
        from repro.workloads.generators import generate_workload
        from repro.workloads.io import trace_to_dict
        from repro.workloads.suites import workload_by_name

        direct = generate_workload(workload_by_name("betw"), TINY)
        via_registry = build_token_trace("betw", TINY)
        assert trace_to_dict(via_registry) == trace_to_dict(direct)

    def test_kv_lookup_tracks_get_ratio(self):
        trace = build_token_trace("kv-lookup:get_ratio=0.5",
                                  TraceKnobs(scale=0.3, seed=3, warps_per_sm=4))
        assert 0.35 <= trace.measured_read_ratio <= 0.65

    def test_kv_lookup_at_get_ratio_one_is_read_only(self):
        trace = build_token_trace("kv-lookup:get_ratio=1.0", TINY)
        assert trace.measured_read_ratio == 1.0
        assert not trace.page_write_counts

    def test_kv_lookup_at_get_ratio_zero_is_write_only(self):
        trace = build_token_trace("kv-lookup:get_ratio=0.0", TINY)
        assert trace.measured_read_ratio == 0.0
        assert not trace.page_read_counts
        assert trace.page_write_counts

    def test_a_param_change_changes_the_trace(self):
        from repro.workloads.io import trace_to_dict

        two = build_token_trace("kv-lookup:reuse=2.0", TINY)
        eight = build_token_trace("kv-lookup:reuse=8.0", TINY)
        assert trace_to_dict(two) != trace_to_dict(eight)

    def test_sequential_fraction_sets_the_single_line_reads(self):
        # A sequential read streams one 128 B line; an irregular one
        # scatters the warp over 2-4 lines.
        def lines(token):
            trace = build_token_trace(token, TINY)
            return {i.addresses.lines for w in trace.warps
                    for i in w.instructions if i.is_memory}

        assert lines("betw:read_ratio=1.0,sequential_fraction=1.0") == {1}
        scattered = lines("betw:read_ratio=1.0,sequential_fraction=0.0")
        assert scattered and scattered <= {2, 3, 4}

    def test_a_mix_runs_its_read_half_then_its_write_half(self):
        # The co-run's behaviour changes across its warps: the read
        # application's warps come first, the write application's after.
        from repro.workloads.multiapp import build_mix

        mix = build_mix("betw:read_ratio=1.0", "back:read_ratio=0.0", TINY)
        split = len(mix.first.warps)
        assert 0 < split < len(mix.combined.warps)
        for index, warp in enumerate(mix.combined.warps):
            reads = {i.access.is_read for i in warp.instructions if i.is_memory}
            assert reads == ({True} if index < split else {False})

    def test_deterministic_for_fixed_seed(self):
        from repro.workloads.io import trace_to_dict

        assert (trace_to_dict(build_token_trace("kv-lookup", TINY))
                == trace_to_dict(build_token_trace("kv-lookup", TINY)))

    def test_high_zipf_alpha_skews_toward_hot_pages(self):
        # Regression for the alpha >= 1 regime: the old inverse-CDF shortcut
        # collapsed every draw onto the least popular page.
        knobs = TraceKnobs(scale=0.5, seed=11, warps_per_sm=4,
                           memory_instructions_per_warp=64)
        skewed = build_token_trace("kv-lookup:zipf=1.5", knobs)
        uniform = build_token_trace("kv-lookup:zipf=0.0", knobs)
        top = max(skewed.page_read_counts.values())
        assert top > max(uniform.page_read_counts.values())


class TestDeclaredBudget:
    @pytest.mark.parametrize("token", ["betw", "kv-lookup", "betw-back"])
    def test_every_warp_keeps_a_non_dividing_budget(self, token):
        # 31 memory instructions per warp divide by nothing the generator
        # splits on; every warp, of either mix half, still issues all 31.
        knobs = TraceKnobs(scale=1.0, seed=5, num_sms=2, warps_per_sm=1,
                           memory_instructions_per_warp=31)
        trace = build_token_trace(token, knobs)
        assert [w.memory_instructions for w in trace.warps] == (
            [31] * len(trace.warps))


class TestSweepIntegration:
    def test_parametric_workloads_sweep_cached_and_sharded(self, tmp_path):
        from repro.runner import SweepRunner, SweepSpec

        spec = SweepSpec.create(
            platforms=["ZnG-base", "ZnG"],
            workloads=["kv-lookup:zipf=1.1", "betw:zipf_alpha=1.0"],
            scale=0.05, warps_per_sm=2)
        runner = SweepRunner(workers=1, cache=tmp_path)
        serial = runner.run(spec)
        assert len(serial) == 4 and serial.cache_hits == 0
        cached = runner.run(spec)
        assert cached.cache_hits == 4
        assert serial.stats_dicts() == cached.stats_dicts()
        # Shards of the grid union back to the full spec, exactly.
        shard_cells = [cell.cache_key()
                       for index in range(2)
                       for cell in spec.shard(index, 2).cells()]
        assert sorted(shard_cells) == sorted(
            cell.cache_key() for cell in spec.cells())

    def test_mix_with_parametric_half_runs(self):
        from repro.runner import SweepSpec, run_sweep

        result = run_sweep(SweepSpec.create(
            platforms=["ZnG"], workloads=["kv-lookup-back"],
            scale=0.05, warps_per_sm=2))
        assert result.runs[0].result.cycles > 0

