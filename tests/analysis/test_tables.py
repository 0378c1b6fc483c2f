"""Tests for the configuration/workload table reproduction."""

import pytest

from repro.analysis.tables import table_1_configuration, table_2_workloads


class TestTable1:
    def test_structure(self):
        table = table_1_configuration()
        assert "GPU" in table
        assert "Z-NAND array" in table
        assert "STT-MRAM L2" in table

    def test_gpu_values(self):
        gpu = table_1_configuration()["GPU"]
        assert gpu["SMs"] == 16
        assert gpu["frequency_ghz"] == pytest.approx(1.2)
        assert gpu["max_warps_per_sm"] == 80

    def test_l1_row_follows_the_config(self):
        from repro.config import default_config
        from repro.configspace import SCHEMA

        assert table_1_configuration()["GPU"]["l1_cache"] == "48KB, 6-way, 64-set"
        config = SCHEMA.apply(default_config(), {"gpu.l1_size_bytes": 24 * 1024})
        assert (table_1_configuration(config)["GPU"]["l1_cache"]
                == "24KB, 6-way, 32-set")

    def test_znand_values(self):
        znand = table_1_configuration()["Z-NAND array"]
        assert znand["channels"] == 16
        assert znand["cell_type"] == "SLC"
        assert znand["read_latency_us"] == 3.0
        assert znand["program_latency_us"] == 100.0

    def test_stt_mram_values(self):
        stt = table_1_configuration()["STT-MRAM L2"]
        assert stt["size_mb"] == 24
        assert stt["write_latency_cycles"] == 5


class TestTable2:
    def test_rows_cover_every_registered_family(self):
        from repro.workloads.registry import family_names

        assert [r["workload"] for r in table_2_workloads()] == family_names()

    def test_table2_apps_keep_paper_values(self):
        from repro.workloads.suites import ALL_WORKLOADS

        rows = {r["workload"]: r for r in table_2_workloads()}
        for name, spec in ALL_WORKLOADS.items():
            assert rows[name]["read_ratio"] == spec.read_ratio
            assert rows[name]["kernels"] == spec.kernels
            assert rows[name]["suite"] == spec.suite

    def test_rows_have_expected_fields(self):
        for row in table_2_workloads():
            assert set(row) == {"workload", "suite", "read_ratio",
                                "kernels", "params"}

    def test_parametric_families_present_without_paper_knobs(self):
        rows = {r["workload"]: r for r in table_2_workloads()}
        assert rows["kv-lookup"]["read_ratio"] is None
        assert rows["kv-lookup"]["kernels"] is None
        assert rows["kv-lookup"]["params"] == 4

    def test_deg_is_read_only(self):
        rows = {r["workload"]: r for r in table_2_workloads()}
        assert rows["deg"]["read_ratio"] == 1.0

    def test_rendered_table_aligns_dashed_family_names(self):
        from repro.analysis.report import format_records_table

        text = format_records_table(
            "Table II — workload families",
            ["workload", "suite", "read_ratio", "kernels", "params"],
            table_2_workloads(),
            formats={"read_ratio": "{:.2f}"},
        )
        lines = text.splitlines()
        header, body = lines[2], lines[3:]
        # Full dashed names survive (the old {:8s} column sheared them) and
        # the name column is wide enough for the longest family everywhere.
        assert any(line.startswith("kv-lookup ") for line in body)
        longest = max(len(r["workload"]) for r in table_2_workloads())
        assert header[:longest].strip() == "workload"
        names = {r["workload"] for r in table_2_workloads()}
        for line in body:
            assert line[:longest].strip() in names
