"""Tests for multi-application co-run construction."""

import pytest

from repro.workloads.multiapp import build_all_mixes, build_mix
from repro.workloads.suites import MULTI_APP_MIXES
from repro.workloads.trace import TraceKnobs


class TestBuildMix:
    def test_combined_has_both_apps(self):
        mix = build_mix("betw", "back", TraceKnobs(
            scale=0.1, seed=1, warps_per_sm=4))
        assert len(mix.combined.warps) == len(mix.first.warps) + len(mix.second.warps)

    def test_disjoint_address_ranges(self):
        mix = build_mix("betw", "back", TraceKnobs(
            scale=0.1, seed=1, warps_per_sm=4))
        first_pages = set(mix.first.page_read_counts) | set(mix.first.page_write_counts)
        second_pages = set(mix.second.page_read_counts) | set(mix.second.page_write_counts)
        assert first_pages & second_pages == set()

    def test_mix_name(self):
        mix = build_mix("gc1", "FDT", TraceKnobs(
            scale=0.1, seed=1, warps_per_sm=4))
        assert mix.name == "gc1-FDT"

    def test_combined_footprint(self):
        mix = build_mix("betw", "back", TraceKnobs(
            scale=0.1, seed=1, warps_per_sm=4))
        assert mix.combined.footprint_pages == mix.first.footprint_pages + mix.second.footprint_pages

    def test_specs_accessor(self):
        mix = build_mix("betw", "back", TraceKnobs(
            scale=0.1, seed=1, warps_per_sm=4))
        first_spec, second_spec = mix.specs
        assert first_spec.name == "betw"
        assert second_spec.name == "back"


class TestBuildAllMixes:
    def test_default_builds_twelve(self):
        mixes = build_all_mixes(TraceKnobs(scale=0.05, seed=1, warps_per_sm=4))
        assert len(mixes) == 12

    def test_subset(self):
        mixes = build_all_mixes(TraceKnobs(
            scale=0.05, seed=1, warps_per_sm=4), mixes=[("betw", "back")])
        assert set(mixes) == {"betw-back"}

    def test_all_paper_mixes_build(self):
        mixes = build_all_mixes(TraceKnobs(scale=0.03, seed=1, warps_per_sm=4))
        for read_app, write_app in MULTI_APP_MIXES:
            assert f"{read_app}-{write_app}" in mixes
