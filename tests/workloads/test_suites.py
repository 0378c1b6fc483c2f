"""Tests that the workload catalogue matches the paper's Table II."""

import pytest

from repro.workloads.registry import parse_workload_token, resolve_workload_tokens
from repro.workloads.suites import (
    ALL_WORKLOADS,
    GRAPH_WORKLOADS,
    MULTI_APP_MIXES,
    SCIENTIFIC_WORKLOADS,
    mix_name,
    workload_by_name,
)

# The read ratios reported in Table II of the paper.
TABLE_II_READ_RATIOS = {
    "betw": 0.98, "bfs1": 0.95, "bfs2": 0.99, "bfs3": 0.88, "bfs4": 0.97,
    "bfs5": 0.99, "bfs6": 0.97, "gc1": 0.98, "gc2": 0.99, "sssp3": 0.98,
    "deg": 1.0, "pr": 0.99, "back": 0.57, "gaus": 0.66, "FDT": 0.73, "gram": 0.75,
}

TABLE_II_KERNELS = {
    "betw": 11, "bfs1": 7, "bfs2": 9, "bfs3": 10, "bfs4": 12, "bfs5": 6,
    "bfs6": 7, "gc1": 8, "gc2": 10, "sssp3": 8, "deg": 1, "pr": 53,
    "back": 1, "gaus": 3, "FDT": 1, "gram": 3,
}


class TestCatalogue:
    def test_all_sixteen_workloads(self):
        assert len(ALL_WORKLOADS) == 16

    def test_graph_and_scientific_disjoint(self):
        assert set(GRAPH_WORKLOADS) & set(SCIENTIFIC_WORKLOADS) == set()

    @pytest.mark.parametrize("name,ratio", TABLE_II_READ_RATIOS.items())
    def test_read_ratios_match_table2(self, name, ratio):
        assert workload_by_name(name).read_ratio == pytest.approx(ratio)

    @pytest.mark.parametrize("name,kernels", TABLE_II_KERNELS.items())
    def test_kernel_counts_match_table2(self, name, kernels):
        assert workload_by_name(name).kernels == kernels

    def test_graph_workloads_read_intensive(self):
        for name, spec in GRAPH_WORKLOADS.items():
            assert spec.read_ratio >= 0.88, name

    def test_scientific_workloads_write_heavier(self):
        for spec in SCIENTIFIC_WORKLOADS.values():
            assert spec.read_ratio <= 0.75

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError):
            workload_by_name("nonexistent")


class TestMixes:
    def test_twelve_mixes(self):
        assert len(MULTI_APP_MIXES) == 12

    def test_mixes_pair_read_and_write_intensive(self):
        for read_app, write_app in MULTI_APP_MIXES:
            assert read_app in GRAPH_WORKLOADS
            assert write_app in SCIENTIFIC_WORKLOADS

    def test_mix_name(self):
        assert mix_name("betw", "back") == "betw-back"


class TestSpecProperties:
    def test_write_ratio_complements_read(self):
        spec = workload_by_name("back")
        assert spec.read_ratio + spec.write_ratio == pytest.approx(1.0)


class TestTokenGrammar:
    """The registry's token grammar over the Table II catalogue."""

    def test_parse_workload_token_handles_dashed_family_names(self):
        # Regression: the historical split("-") parser broke on any family
        # name containing a dash.
        assert parse_workload_token("kv-lookup") == ("kv-lookup", None)
        assert parse_workload_token("kv-lookup-back") == ("kv-lookup", "back")
        assert parse_workload_token("betw-back") == ("betw", "back")

    def test_resolve_workload_tokens_expands_suites(self):
        assert resolve_workload_tokens(["graph"]) == sorted(GRAPH_WORKLOADS)
        assert resolve_workload_tokens(["scientific"]) == sorted(
            SCIENTIFIC_WORKLOADS)

    def test_workload_by_name_did_you_mean(self):
        with pytest.raises(KeyError, match="did you mean betw"):
            workload_by_name("betww")
