"""Golden-number regression gate for the report artifacts.

The CSVs emitted by ``python -m repro report`` are canonical text (shortest
round-trip float repr, LF newlines), so they can be byte-compared: against
the committed goldens in ``tests/data/report/`` (any simulator change that
moves a paper number fails here first), and between a serial sweep and one
merged from shard manifests (sharding must never change a number).

Regenerate intentionally changed goldens with::

    python -m repro report --golden
"""

import math
from pathlib import Path

import pytest

from repro.analysis import reporting
from repro.analysis.reporting import (
    GOLDEN_SCALE,
    SENSITIVITY_GOLDEN_SUBDIR,
    ReportError,
    canonical_number,
    compare_csv_dirs,
    csv_cell,
    default_golden_dir,
    golden_result,
    golden_spec,
    report_tables,
    sensitivity_golden_result,
    sensitivity_golden_spec,
    write_csv,
    write_report,
)
from repro.configspace import ablation_axes


class TestCanonicalFormatting:
    def test_floats_use_shortest_roundtrip_repr(self):
        # repr() of a float is the shortest string that round-trips — a
        # CPython guarantee, identical across platforms.  Spot-check values
        # whose %g renderings would lose digits.
        assert canonical_number(0.1) == "0.1"
        assert canonical_number(1 / 3) == "0.3333333333333333"
        assert canonical_number(0.1593140228982792) == "0.1593140228982792"
        assert float(canonical_number(math.pi)) == math.pi

    def test_integers_render_bare(self):
        assert canonical_number(7) == "7"
        assert canonical_number(10**18) == str(10**18)

    def test_negative_zero_normalises(self):
        assert canonical_number(-0.0) == "0.0"
        assert canonical_number(0.0) == "0.0"

    def test_bools_do_not_leak_python_repr(self):
        assert canonical_number(True) == "true"
        assert canonical_number(False) == "false"

    def test_non_finite_refuses(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ReportError):
                canonical_number(bad)

    def test_text_cells_quote_rfc4180(self):
        assert csv_cell("plain") == "plain"
        assert csv_cell("a,b") == '"a,b"'
        assert csv_cell('say "hi"') == '"say ""hi"""'

    def test_write_csv_is_lf_and_byte_stable(self, tmp_path):
        rows = [["a", 0.1, 3], ["b", 2.5, 4]]
        first = write_csv(tmp_path / "one.csv", ["name", "x", "n"], rows)
        second = write_csv(tmp_path / "two.csv", ["name", "x", "n"], rows)
        data = first.read_bytes()
        assert data == second.read_bytes()
        assert b"\r" not in data
        assert data.endswith(b"\n")
        assert data.decode().splitlines()[1] == "a,0.1,3"


@pytest.fixture(scope="module")
def golden_sweep():
    return golden_result()


class TestGoldenGate:
    def test_goldens_match_rederived_sweep(self, golden_sweep, tmp_path_factory):
        """THE gate: the committed goldens equal a fresh fixed-seed sweep."""
        derived = tmp_path_factory.mktemp("derived")
        write_report(golden_sweep, derived, plots=False, html_report=False)
        drift = compare_csv_dirs(derived, default_golden_dir())
        assert drift == [], "\n".join(drift)

    def test_goldens_exist_and_cover_every_table(self, golden_sweep):
        names = {f"{name}.csv" for name in report_tables(golden_sweep)}
        committed = {p.name for p in default_golden_dir().glob("*.csv")}
        assert committed == names

    def test_golden_spec_is_the_ci_fig10_grid(self):
        spec = golden_spec()
        assert spec.knobs.scale == GOLDEN_SCALE
        assert "ZnG" in spec.platforms
        assert len(spec) == len(spec.platforms) * len(spec.workloads)

    def test_perturbed_metric_fails_the_gate(self, golden_sweep, tmp_path):
        write_report(golden_sweep, tmp_path, plots=False, html_report=False)
        target = tmp_path / "fig10.csv"
        text = target.read_text()
        perturbed = text.replace(",1.0", ",1.0000000000000002", 1)
        assert perturbed != text
        target.write_text(perturbed)
        drift = compare_csv_dirs(tmp_path, default_golden_dir())
        assert any("fig10.csv" in message for message in drift)

    def test_missing_derived_csv_is_drift(self, golden_sweep, tmp_path):
        write_report(golden_sweep, tmp_path, plots=False, html_report=False)
        (tmp_path / "metrics.csv").unlink()
        drift = compare_csv_dirs(tmp_path, default_golden_dir())
        assert any("metrics.csv" in message for message in drift)

    def test_empty_golden_dir_reports_itself(self, tmp_path):
        derived = tmp_path / "derived"
        derived.mkdir()
        drift = compare_csv_dirs(derived, tmp_path / "nonexistent")
        assert len(drift) == 1 and "--golden" in drift[0]


@pytest.fixture(scope="module")
def sensitivity_sweep():
    return sensitivity_golden_result()


class TestSensitivityGoldenGate:
    def test_sensitivity_goldens_match_rederived_sweep(
        self, sensitivity_sweep, tmp_path_factory
    ):
        """The override-axis surface gate: sensitivity.csv et al. vs goldens."""
        derived = tmp_path_factory.mktemp("sensitivity_derived")
        write_report(sensitivity_sweep, derived, plots=False, html_report=False)
        drift = compare_csv_dirs(
            derived, default_golden_dir() / SENSITIVITY_GOLDEN_SUBDIR)
        assert drift == [], "\n".join(drift)

    def test_sensitivity_goldens_include_the_sensitivity_table(self):
        committed = {p.name for p in (
            default_golden_dir() / SENSITIVITY_GOLDEN_SUBDIR).glob("*.csv")}
        assert "sensitivity.csv" in committed

    def test_golden_surface_spans_the_flash_width_axis(self):
        spec = sensitivity_golden_spec()
        labels = [override.label for override in spec.overrides]
        widths = ablation_axes()["znand.flash_network_bus_bytes"]
        assert labels == [f"flash_network_bus_bytes={w}" for w in widths]

    def test_surface_ipc_moves_across_the_axis(self, sensitivity_sweep):
        """A flat surface gates nothing: the axis must move IPC."""
        header, rows = report_tables(sensitivity_sweep)["sensitivity"]
        ipc = header.index("ipc")
        by_cell = {}
        for row in rows:
            by_cell.setdefault(tuple(row[1:ipc]), set()).add(row[ipc])
        assert by_cell
        assert all(len(values) > 1 for values in by_cell.values())


class TestShardedReportEquality:
    def test_merged_two_shard_report_equals_serial(self, golden_sweep, tmp_path):
        """Sharding is presentation-free: merged CSV bytes == serial bytes."""
        from repro.runner import SweepRunner, default_manifest_name
        from repro.analysis.reporting import report_from_manifests

        spec = golden_spec()
        cache_dir = tmp_path / "cache"
        manifest_paths = []
        for index in range(2):
            runner = SweepRunner(workers=1, cache=cache_dir)
            manifest = cache_dir / default_manifest_name(index, 2)
            runner.run(spec.shard(index, 2), manifest_path=manifest)
            manifest_paths.append(manifest)

        merged_dir = tmp_path / "merged"
        serial_dir = tmp_path / "serial"
        report_from_manifests(manifest_paths, merged_dir,
                              plots=False, html_report=False)
        write_report(golden_sweep, serial_dir, plots=False, html_report=False)
        for path in sorted(serial_dir.glob("*.csv")):
            assert (merged_dir / path.name).read_bytes() == path.read_bytes(), (
                f"{path.name} differs between merged-shard and serial reports")


class TestReportArtifacts:
    def test_html_report_embeds_tables_and_provenance(self, golden_sweep, tmp_path):
        written = write_report(golden_sweep, tmp_path, plots=False)
        html_text = written["report.html"].read_text()
        assert golden_sweep.spec.fingerprint() in html_text
        for name in report_tables(golden_sweep):
            assert f"{name}.csv" in html_text

    def test_report_generates_without_matplotlib(self, golden_sweep, tmp_path,
                                                 monkeypatch):
        import builtins

        real_import = builtins.__import__

        def no_mpl(name, *args, **kwargs):
            if name.startswith("matplotlib"):
                raise ImportError("matplotlib disabled for this test")
            return real_import(name, *args, **kwargs)

        monkeypatch.setattr(builtins, "__import__", no_mpl)
        written = write_report(golden_sweep, tmp_path, plots=True)
        assert "report.html" in written
        assert not list(tmp_path.glob("*.png"))
        assert "matplotlib" in written["report.html"].read_text()

    def test_sensitivity_table_appears_for_override_sweeps(self):
        from repro.runner import SweepSpec, run_sweep

        spec = SweepSpec.create(
            platforms=["ZnG-base", "ZnG"],
            workloads=["betw-back"],
            overrides={"lo": {"gpu.num_sms": 8}, "hi": {"gpu.num_sms": 16}},
            scale=0.05,
        )
        tables = report_tables(run_sweep(spec, workers=1, cache=False))
        assert "sensitivity" in tables
        header, rows = tables["sensitivity"]
        assert header[0] == "override"
        assert {row[0] for row in rows} == {"lo", "hi"}
