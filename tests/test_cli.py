"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.__main__ import main


def assert_rejected(capsys, message):
    """An exit-2 rejection: the message on stderr, nothing on stdout."""
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


#: Bad input that must exit 2 with one stderr line, never a traceback.
#: ``{tmp}`` stands for a fresh temporary directory.
BOUNDARY_ERRORS = [
    (["fig10", "abc"], "invalid float value: 'abc'"),
    (["fig10", "nan"], "scale must be a finite number > 0, got nan"),
    (["fig10", "-1"], "scale must be a finite number > 0, got -1.0"),
    (["fig11", "0"], "scale must be a finite number > 0, got 0.0"),
    (["report", "nan"], "scale must be a finite number > 0, got nan"),
    (["report", "-1"], "scale must be a finite number > 0, got -1.0"),
    (["run", "NoSuch", "betw", "back"], "unknown platform 'NoSuch'"),
    (["run", "ZnG", "nosuch", "back"], "unknown workload family 'nosuch'"),
    (["report", "--golden", "--workers", "0"], "workers must be an int >= 1"),
    (["status", "--cache-dir", "{tmp}", "--watch", "--interval", "-1"],
     "interval must be a finite number of seconds > 0, got -1.0"),
    (["status", "--cache-dir", "{tmp}", "--watch", "--interval", "nan"],
     "interval must be a finite number of seconds > 0, got nan"),
    (["workloads", "--record", "betw", "--out", "{tmp}/x.json",
      "--warps", "0"], "warps_per_sm must be >= 1"),
    (["workloads", "--record", "betw", "--out", "{tmp}/x.json",
      "--scale", "nan"], "scale must be a finite number > 0, got nan"),
    (["run", "ZnG", "betw", "back", "extra"], "unrecognized arguments: extra"),
    (["config", "--list-paths", "extra"], "unrecognized arguments: extra"),
    (["sweep", "--platforms", "ZnG", "--workloads", "betw-back", "--no-cache",
      "--scale", "0.05", "--set", "x:znand.read_latency_us=nan"],
     "znand.read_latency_us expects a finite float (us), got 'nan'"),
    (["sweep", "--platforms", "ZnG", "--workloads", "betw-back", "--no-cache",
      "--scale", "0.05", "--set", "x:znand.read_latency_us=inf"],
     "znand.read_latency_us expects a finite float (us), got 'inf'"),
    (["sweep", "--platforms", "ZnG", "--workloads", "kv-lookup:get_ratio=nan",
      "--no-cache", "--scale", "0.05"], "get_ratio expects a finite float"),
]


@pytest.mark.parametrize("argv, message", BOUNDARY_ERRORS,
                         ids=[" ".join(argv) for argv, _ in BOUNDARY_ERRORS])
def test_boundary_errors_exit_2_with_one_stderr_line(capsys, tmp_path, argv,
                                                     message):
    argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert message in captured.err
    assert "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


class TestCLI:
    def test_help(self, capsys):
        assert main(["help"]) == 0
        assert "Usage" in capsys.readouterr().out

    def test_no_args_shows_help(self, capsys):
        assert main([]) == 0

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2
        assert_rejected(capsys, "unknown command")

    def test_retired_dispatch_command_is_unknown(self, capsys):
        assert main(["dispatch", "--preset", "fig10"]) == 2
        assert_rejected(capsys, "unknown command 'dispatch'")

    def test_ctrl_c_exits_130_with_one_stderr_line(self, capsys, tmp_path,
                                                   monkeypatch):
        import time

        def interrupt(seconds):
            raise KeyboardInterrupt

        monkeypatch.setattr(time, "sleep", interrupt)
        assert main(["status", "--cache-dir", str(tmp_path), "--watch",
                     "--interval", "0.01"]) == 130
        assert capsys.readouterr().err == "interrupted\n"

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        assert "GPU" in capsys.readouterr().out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "betw" in out and "pr" in out

    def test_validate(self, capsys):
        assert main(["validate"]) == 0
        assert "bandwidth" in capsys.readouterr().out

    def test_run_requires_args(self, capsys):
        assert main(["run", "ZnG"]) == 2

    def test_run(self, capsys):
        assert main(["run", "HybridGPU", "betw", "back"]) == 0
        assert "IPC" in capsys.readouterr().out

    def test_fig10(self, capsys):
        assert main(["fig10", "0.05"]) == 0
        assert "Figure 10" in capsys.readouterr().out


class TestSweepCommand:
    ARGS = [
        "sweep", "--platforms", "ZnG-base", "--workloads", "bfs1",
        "--workers", "1", "--scale", "0.05", "--warps", "2",
    ]

    def test_sweep_no_cache(self, capsys):
        assert main(self.ARGS + ["--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "bfs1" in out and "1 cells" in out

    def test_sweep_cache_round_trip(self, capsys, tmp_path):
        cache = ["--cache-dir", str(tmp_path)]
        assert main(self.ARGS + cache) == 0
        assert "0 served from cache" in capsys.readouterr().out
        assert main(self.ARGS + cache) == 0
        assert "1 served from cache" in capsys.readouterr().out

    def test_sweep_override_axis(self, capsys):
        assert main(self.ARGS + [
            "--no-cache", "--set", "wide:znand.channels=32",
        ]) == 0
        assert "wide" in capsys.readouterr().out

    def test_sweep_unknown_option(self, capsys):
        assert main(["sweep", "--bogus", "1"]) == 2

    def test_sweep_missing_value(self, capsys):
        assert main(["sweep", "--platforms"]) == 2

    @pytest.mark.parametrize("command, option", [("sweep", "--workers")])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_prints_usage(self, capsys, command, option, flag):
        assert main([command, "--scale", "0.1", flag]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: python -m repro {command} [options]")
        assert option in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("command, option", [
        ("merge", "--metric"), ("status", "--watch"), ("report", "--check"),
        ("workloads", "--record"), ("config", "--explain"),
    ])
    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_other_commands_print_their_help(self, capsys, command, option,
                                             flag):
        assert main([command, flag]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(f"usage: python -m repro {command} ")
        assert option in captured.out
        assert captured.err == ""

    def test_sweep_unknown_platform(self, capsys):
        assert main(["sweep", "--platforms", "NoSuch", "--no-cache"]) == 2
        assert_rejected(capsys, "unknown platform")

    def test_sweep_unknown_workload(self, capsys):
        assert main(["sweep", "--workloads", "frobnicate", "--no-cache"]) == 2
        assert_rejected(capsys, "unknown workload")

    def test_sweep_bad_override_path(self, capsys):
        assert main(self.ARGS + ["--no-cache", "--set", "x:znand.bogus=1"]) == 2
        assert_rejected(capsys, "no field")

    def test_sweep_malformed_override(self, capsys):
        assert main(["sweep", "--set", "junk", "--no-cache"]) == 2
        assert_rejected(capsys, "malformed override")

    def test_sweep_type_mismatched_override_rejected(self, capsys):
        assert main(self.ARGS + [
            "--no-cache", "--set", "x:znand.channels=fast",
        ]) == 2
        assert_rejected(capsys, "expects an int")

    def test_sweep_property_override_rejected(self, capsys):
        assert main(self.ARGS + [
            "--no-cache", "--set", "x:znand.total_planes=4",
        ]) == 2
        assert_rejected(capsys, "derived property")

    def test_sweep_out_of_range_override_rejected(self, capsys):
        assert main(self.ARGS + [
            "--no-cache", "--set", "x:znand.channels=0",
        ]) == 2
        assert_rejected(capsys, ">=")

    def test_sweep_preset(self, capsys):
        assert main([
            "sweep", "--preset", "smoke", "--workloads", "bfs1",
            "--scale", "0.05", "--workers", "1", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "ZnG-base" in out and "2 cells" in out

    def test_flags_before_preset_override_it(self, capsys, tmp_path):
        from repro.runner import RunManifest

        assert main([
            "sweep", "--platforms", "ZnG", "--scale", "0.05",
            "--set", "wide:znand.channels=32", "--preset", "smoke",
            "--workloads", "bfs1", "--workers", "1",
            "--cache-dir", str(tmp_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "ZnG-base" not in out and "1 cells" in out
        spec = RunManifest.load(tmp_path / "manifest.json").spec()
        assert spec.platforms == ("ZnG",) and spec.knobs.scale == 0.05
        assert [point.label for point in spec.overrides] == ["wide"]

    def test_default_grid_is_the_zng_ablation_preset(self):
        from repro.__main__ import _grid_parser, _spec_from_args
        from repro.configspace import get_preset

        spec = _spec_from_args(_grid_parser().parse_args([]))
        assert spec.fingerprint() == get_preset("zng-ablation").spec().fingerprint()

    def test_grid_flags_narrow_the_preset(self):
        from repro.__main__ import _grid_parser, _spec_from_args
        from repro.configspace import get_preset

        spec = _spec_from_args(_grid_parser().parse_args([
            "--preset", "reg-sweep", "--platforms", "ZnG-base",
            "--scale", "0.05", "--warps", "2"]))
        expected = get_preset("reg-sweep").spec(
            platforms=["ZnG-base"], scale=0.05, warps_per_sm=2)
        assert spec.fingerprint() == expected.fingerprint()
        assert len(spec) == len(get_preset("reg-sweep").override_axis())

    def test_sweep_unknown_preset(self, capsys):
        assert main(["sweep", "--preset", "nope", "--no-cache"]) == 2
        assert_rejected(capsys, "unknown experiment preset")

    def test_sweep_config_file(self, capsys, tmp_path):
        config_file = tmp_path / "overrides.json"
        config_file.write_text('{"znand.channels": 8}')
        assert main(self.ARGS + [
            "--no-cache", "--config-file", str(config_file),
        ]) == 0
        assert "1 cells" in capsys.readouterr().out

    def test_sweep_bad_config_file_value(self, capsys, tmp_path):
        config_file = tmp_path / "overrides.json"
        config_file.write_text('{"znand.channels": "fast"}')
        assert main(self.ARGS + [
            "--no-cache", "--config-file", str(config_file),
        ]) == 2
        assert_rejected(capsys, "expects an int")

    def test_sweep_missing_config_file(self, capsys, tmp_path):
        assert main(self.ARGS + [
            "--no-cache", "--config-file", str(tmp_path / "absent.json"),
        ]) == 2

    BAD_RUN_KNOBS = [
        (["--scale", "-1"], "scale must be a finite number > 0"),
        (["--scale", "nan"], "scale must be a finite number > 0"),
        (["--scale", "0"], "scale must be a finite number > 0"),
        (["--workers", "0"], "workers must be an int >= 1"),
        (["--warps", "0"], "warps_per_sm must be >= 1"),
    ]

    @pytest.mark.parametrize("flags, message", BAD_RUN_KNOBS)
    def test_sweep_rejects_bad_run_knobs(self, capsys, flags, message):
        assert main(["sweep", "--platforms", "ZnG", "--workloads", "betw-back",
                     "--no-cache"] + flags) == 2
        captured = capsys.readouterr()
        lines = (captured.out + captured.err).splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("flags, message", [
        (["--workers", "0"], "workers must be an int >= 1, got 0"),
        (["--workers", "-3"], "workers must be an int >= 1, got -3"),
        (["--workers", "1.5"], "invalid int value: '1.5'"),
        (["--scale", "inf"], "scale must be a finite number > 0, got inf"),
        (["--scale", "nan"], "scale must be a finite number > 0, got nan"),
        (["--warps", "0"], "warps_per_sm must be >= 1"),
        (["--shard", "0/3"], "--shard expects 1 <= I <= N, got '0/3'"),
        (["--shard", "4/3"], "--shard expects 1 <= I <= N, got '4/3'"),
        (["--set", "x:znand.read_latency_us=nan"],
         "znand.read_latency_us expects a finite float"),
        (["--platforms", "NoSuch"], "unknown platform 'NoSuch'"),
        (["--workloads", "nosuch"], "unknown workload 'nosuch'"),
        (["--preset", "nosuch"], "unknown experiment preset 'nosuch'"),
    ])
    def test_bad_knobs_exit_2_before_touching_the_cache(
            self, capsys, tmp_path, flags, message):
        """A rejected sweep leaves no cache directory and no manifest, so a
        later ``--resume`` can never pick up a half-started grid."""
        cache, manifest = tmp_path / "cache", tmp_path / "m.json"
        assert main(self.ARGS + ["--cache-dir", str(cache),
                                 "--manifest", str(manifest)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and message in lines[0]
        assert list(tmp_path.iterdir()) == []

    def test_sweep_bad_run_knob_exits_cleanly_in_a_process(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        completed = subprocess.run(
            [sys.executable, "-m", "repro", "sweep", "--platforms", "ZnG",
             "--workloads", "betw-back", "--no-cache", "--scale", "nan"],
            capture_output=True, text=True, env=env, timeout=120)
        assert completed.returncode == 2
        assert "Traceback" not in completed.stdout + completed.stderr
        assert (completed.stdout + completed.stderr).strip().splitlines() == [
            "scale must be a finite number > 0, got nan"]

    def test_profile_writes_both_phases_and_disarms(self, capsys, tmp_path,
                                                    monkeypatch):
        from repro.runner import profile_tables

        monkeypatch.chdir(tmp_path)
        assert main(self.ARGS + ["--no-cache", "--workers", "2",
                                 "--profile"]) == 0
        captured = capsys.readouterr()
        assert "--profile forces --workers 1 (was 2)" in captured.err
        profile_path = tmp_path / "sweep.profile.txt"
        assert f"profile written to {profile_path}" in captured.out
        text = profile_path.read_text()
        assert "== phase: trace_build" in text
        assert "== phase: simulate" in text
        assert profile_tables() == ""  # disarmed: later sweeps run unprofiled


class TestShardedSweepCLI:
    SMOKE = ["sweep", "--preset", "smoke", "--workers", "1", "--scale", "0.05"]

    def test_shard_writes_manifest_and_reports_coordinates(self, capsys, tmp_path):
        assert main(self.SMOKE + [
            "--cache-dir", str(tmp_path), "--shard", "1/2",
        ]) == 0
        out = capsys.readouterr().out
        assert "[shard 1/2 of a 4-cell grid]" in out
        assert (tmp_path / "manifest.shard-1-of-2.json").exists()

    def test_unsharded_cached_sweep_writes_manifest_json(self, capsys, tmp_path):
        assert main(self.SMOKE + ["--cache-dir", str(tmp_path)]) == 0
        assert (tmp_path / "manifest.json").exists()

    def test_no_cache_sweep_writes_no_manifest(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(self.SMOKE + ["--no-cache", "--workloads", "bfs1"]) == 0
        assert list(tmp_path.iterdir()) == []

    def test_explicit_manifest_path_wins(self, capsys, tmp_path):
        manifest = tmp_path / "elsewhere" / "m.json"
        assert main(self.SMOKE + [
            "--cache-dir", str(tmp_path / "cache"),
            "--manifest", str(manifest),
        ]) == 0
        assert manifest.exists()

    @pytest.mark.parametrize("bad", ["0/3", "4/3", "x/3", "2", "1/0"])
    def test_shard_flag_validation(self, capsys, bad):
        assert main(self.SMOKE + ["--no-cache", "--shard", bad]) == 2
        assert_rejected(capsys, "--shard expects")

    def test_merge_round_trip_and_withheld_shard(self, capsys, tmp_path):
        manifests = []
        for index in (1, 2):
            cache = tmp_path / f"shard{index}"
            assert main(self.SMOKE + [
                "--cache-dir", str(cache), "--shard", f"{index}/2",
            ]) == 0
            manifests.append(str(cache / f"manifest.shard-{index}-of-2.json"))
        capsys.readouterr()

        assert main(["merge"] + manifests) == 0
        out = capsys.readouterr().out
        assert "merged 2 manifest(s): 4 cells, complete and unique" in out
        assert "ipc table:" in out

        assert main(["merge", manifests[0]]) == 1
        assert "merge failed:" in capsys.readouterr().out

    def test_merge_requires_manifests(self, capsys):
        assert main(["merge"]) == 2
        assert_rejected(capsys, "usage")

    def test_merge_unknown_option(self, capsys):
        assert main(["merge", "--bogus", "x"]) == 2

    def test_merge_non_numeric_metric_rejected(self, capsys, tmp_path):
        assert main(self.SMOKE + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        manifest = str(tmp_path / "manifest.json")
        for metric in ("platform", "stats", "nope"):
            assert main(["merge", manifest, "--metric", metric]) == 2
            assert_rejected(capsys, "unknown metric")

    def test_resume_rejects_conflicting_flags(self, capsys, tmp_path):
        manifest = str(tmp_path / "m.json")
        assert main(["sweep", "--resume", manifest, "--shard", "1/2"]) == 2
        assert_rejected(capsys, "--resume takes")
        assert main(["sweep", "--resume", manifest,
                     "--manifest", str(tmp_path / "other.json")]) == 2
        assert_rejected(capsys, "--resume takes")

    def test_resume_round_trip(self, capsys, tmp_path):
        assert main(self.SMOKE + ["--cache-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main([
            "sweep", "--resume", str(tmp_path / "manifest.json"),
            "--workers", "1",
        ]) == 0
        assert "4 served from cache" in capsys.readouterr().out

    def test_resume_rejects_no_cache(self, capsys, tmp_path):
        assert main([
            "sweep", "--resume", str(tmp_path / "m.json"), "--no-cache",
        ]) == 2
        assert_rejected(capsys, "--resume needs the result cache")

    def test_resume_missing_manifest(self, capsys, tmp_path):
        assert main([
            "sweep", "--resume", str(tmp_path / "absent.json"),
        ]) == 2


class TestReportCommand:
    SMOKE = ["sweep", "--preset", "smoke", "--workers", "1", "--scale", "0.05"]

    def _manifest(self, tmp_path, capsys) -> str:
        assert main(self.SMOKE + ["--cache-dir", str(tmp_path / "cache")]) == 0
        capsys.readouterr()
        return str(tmp_path / "cache" / "manifest.json")

    def test_legacy_textual_report_still_works(self, capsys):
        assert main(["report", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "Figure 10" in out

    def test_report_emits_csvs_and_html(self, capsys, tmp_path):
        manifest = self._manifest(tmp_path, capsys)
        out_dir = tmp_path / "artifacts"
        assert main(["report", manifest, "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        for name in ("metrics.csv", "fig10.csv", "fig11.csv",
                     "scenarios.csv", "report.html"):
            assert (out_dir / name).exists(), name
            assert name in out

    def test_report_no_html_emits_only_csvs(self, capsys, tmp_path):
        manifest = self._manifest(tmp_path, capsys)
        out_dir = tmp_path / "artifacts"
        assert main(["report", manifest, "--out", str(out_dir),
                     "--no-html", "--no-plots"]) == 0
        assert not (out_dir / "report.html").exists()
        assert (out_dir / "metrics.csv").exists()

    def test_report_check_flags_drift_against_goldens(self, capsys, tmp_path):
        # The smoke-preset grid is not the golden fig10 grid, so --check
        # must fail loudly — drift, not silence, for a mismatched spec.
        manifest = self._manifest(tmp_path, capsys)
        out_dir = tmp_path / "artifacts"
        assert main(["report", manifest, "--out", str(out_dir),
                     "--check", "--no-plots", "--no-html"]) == 1
        out = capsys.readouterr().out
        assert "GOLDEN DRIFT" in out and "--golden" in out

    def test_report_missing_manifest_exits_1(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "absent.json")]) == 1
        assert "report failed" in capsys.readouterr().out

    def test_report_usage_and_bad_flags(self, capsys, tmp_path):
        assert main(["report", "--out", str(tmp_path)]) == 2
        assert_rejected(capsys, "usage")
        assert main(["report", "--bogus", "x"]) == 2
        assert main(["report", "--out"]) == 2
        assert main(["report", "x.json", "--workers", "two"]) == 2

    def test_report_golden_rejects_manifest_paths(self, capsys, tmp_path):
        assert main(["report", str(tmp_path / "m.json"), "--golden"]) == 2
        assert_rejected(capsys, "--golden")


class TestConfigCommand:
    def test_list_paths(self, capsys):
        assert main(["config", "--list-paths"]) == 0
        out = capsys.readouterr().out
        assert "znand.channels" in out
        assert "overridable paths" in out

    def test_explain(self, capsys):
        assert main(["config", "--explain", "znand.registers_per_plane"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        # The ZnG write-optimised presets pin this path.
        assert "ZnG" in out and "register_cache.registers_per_plane" in out

    def test_explain_lists_every_platform_that_pins_the_path(self, capsys):
        assert main(["config", "--explain", "znand.flash_network_type"]) == 0
        out = capsys.readouterr().out
        assert ("platforms: ZnG pins 'mesh'; ZnG-base pins 'mesh'; "
                "ZnG-rdopt pins 'mesh'; ZnG-wropt pins 'mesh'") in out

    def test_explain_unknown_path(self, capsys):
        assert main(["config", "--explain", "znand.bogus"]) == 2
        assert_rejected(capsys, "no field")

    def test_explain_requires_path(self, capsys):
        assert main(["config", "--explain"]) == 2

    def test_diff(self, capsys):
        assert main(["config", "--diff", "ZnG-base", "ZnG"]) == 0
        out = capsys.readouterr().out
        assert "znand.registers_per_plane" in out
        assert "platform:ZnG" in out
        assert "fingerprints:" in out

    def test_diff_reports_the_base_register_cache(self, capsys):
        # ZnG-base runs the plane's own registers over SWnet; the diff shows
        # the config it runs, set by its platform delta.
        assert main(["config", "--diff", "ZnG-base", "ZnG"]) == 0
        out = capsys.readouterr().out
        assert ("register_cache.interconnect = 'swnet'  [platform:ZnG-base]"
                in out)
        assert ("register_cache.registers_per_plane = 2  [platform:ZnG-base]"
                in out)
        assert "register_cache.registers_per_plane = 8  [defaults]" in out

    def test_explain_names_the_base_register_cache_pins(self, capsys):
        assert main(["config", "--explain", "register_cache.interconnect"]) == 0
        out = capsys.readouterr().out
        assert "platforms: ZnG-base pins 'swnet'; ZnG-rdopt pins 'swnet'" in out
        assert main(["config", "--explain",
                     "register_cache.registers_per_plane"]) == 0
        out = capsys.readouterr().out
        assert ("ZnG-base pins copied from znand.registers_per_plane; "
                "ZnG-rdopt pins copied from znand.registers_per_plane") in out

    def test_diff_unknown_platform(self, capsys):
        assert main(["config", "--diff", "ZnG", "NoSuch"]) == 2
        assert_rejected(capsys, "unknown platform")

    def test_presets(self, capsys):
        assert main(["config", "--presets"]) == 0
        out = capsys.readouterr().out
        assert "fig10" in out and "table1-sensitivity" in out

    def test_golden(self, capsys):
        assert main(["config", "--golden"]) == 0
        assert "znand.channels\tint" in capsys.readouterr().out

    def test_no_args_usage(self, capsys):
        assert main(["config"]) == 2
        assert_rejected(capsys, "usage")

    def test_unknown_option(self, capsys):
        assert main(["config", "--bogus"]) == 2


class TestWorkloadsCommand:
    def test_list(self, capsys):
        assert main(["workloads", "--list"]) == 0
        out = capsys.readouterr().out
        assert "kv-lookup" in out and "multi-tenant" in out
        assert "betw" in out  # Table II apps are families too
        assert "20 families" in out

    def test_explain(self, capsys):
        assert main(["workloads", "--explain", "kv-lookup"]) == 0
        out = capsys.readouterr().out
        assert "get_ratio" in out and "zipf" in out and "default" in out

    def test_explain_typo_did_you_mean(self, capsys):
        assert main(["workloads", "--explain", "kv-lokup"]) == 2
        assert_rejected(capsys, "did you mean kv-lookup")

    def test_explain_requires_name(self, capsys):
        assert main(["workloads", "--explain"]) == 2

    def test_golden(self, capsys):
        assert main(["workloads", "--golden"]) == 0
        out = capsys.readouterr().out
        assert "kv-lookup:zipf\tfloat" in out

    def test_record_and_replay_verify(self, capsys, tmp_path):
        trace_path = tmp_path / "kv.trace.json"
        assert main(["workloads", "--record", "kv-lookup:zipf=1.1",
                     "--out", str(trace_path),
                     "--scale", "0.05", "--warps", "2"]) == 0
        out = capsys.readouterr().out
        assert "recorded kv-lookup:zipf=1.1" in out
        assert trace_path.exists()
        assert main(["workloads", "--replay", str(trace_path),
                     "--verify"]) == 0
        out = capsys.readouterr().out
        assert "content hash verified" in out
        assert "bit-identical" in out

    def test_record_requires_out(self, capsys):
        assert main(["workloads", "--record", "betw"]) == 2

    def test_record_bad_token(self, capsys, tmp_path):
        assert main(["workloads", "--record", "kv-lokup",
                     "--out", str(tmp_path / "x.json")]) == 2
        assert_rejected(capsys, "did you mean")

    def test_replay_corrupted_file_exits_1(self, capsys, tmp_path):
        import json

        trace_path = tmp_path / "kv.trace.json"
        assert main(["workloads", "--record", "kv-lookup",
                     "--out", str(trace_path),
                     "--scale", "0.05", "--warps", "2"]) == 0
        payload = json.loads(trace_path.read_text())
        payload["trace"]["footprint_pages"] += 1
        trace_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert main(["workloads", "--replay", str(trace_path)]) == 1
        assert "content-hash verification" in capsys.readouterr().out

    def test_no_args_usage(self, capsys):
        assert main(["workloads"]) == 2
        assert_rejected(capsys, "usage")

    def test_unknown_option(self, capsys):
        assert main(["workloads", "--bogus"]) == 2


class TestParametricSweepCLI:
    def test_sweep_parameterised_token(self, capsys):
        assert main([
            "sweep", "--platforms", "ZnG-base",
            "--workloads", "kv-lookup:zipf=1.1",
            "--workers", "1", "--scale", "0.05", "--warps", "2", "--no-cache",
        ]) == 0
        out = capsys.readouterr().out
        assert "kv-lookup:zipf=1.1" in out and "1 cells" in out

    def test_sweep_trace_replay_token(self, capsys, tmp_path):
        trace_path = tmp_path / "mt.trace.json"
        assert main(["workloads", "--record", "multi-tenant:phases=2",
                     "--out", str(trace_path),
                     "--scale", "0.05", "--warps", "2"]) == 0
        capsys.readouterr()
        assert main([
            "sweep", "--platforms", "ZnG-base",
            "--workloads", f"trace:{trace_path}",
            "--workers", "1", "--scale", "0.05", "--warps", "2", "--no-cache",
        ]) == 0
        assert "1 cells" in capsys.readouterr().out

    def test_sweep_workload_typo_fails_fast_with_hint(self, capsys):
        # The pre-sweep validation satellite: a typo must die at spec
        # creation (exit 2, no cells run), with a suggestion.
        assert main(["sweep", "--workloads", "kv-lokup", "--no-cache"]) == 2
        assert_rejected(capsys, "did you mean kv-lookup")

    def test_sweep_bad_family_param_fails_fast(self, capsys):
        assert main(["sweep", "--workloads", "kv-lookup:zipf=nope",
                     "--no-cache"]) == 2
        assert_rejected(capsys, "expects a float")

    def test_scenario_preset_listed(self, capsys):
        assert main(["config", "--presets"]) == 0
        out = capsys.readouterr().out
        assert "scenario-suite" in out and "kv-sweep" in out
        assert "multi-tenant" in out

    def test_replay_verify_unresolvable_token_exits_1(self, capsys, tmp_path):
        # A hash-valid archive whose recorded family this build no longer
        # registers must fail --verify cleanly, not with a traceback.
        from repro.workloads.registry import TraceKnobs, build_token_trace
        from repro.workloads.tracefile import write_trace_file

        trace = build_token_trace(
            "betw", TraceKnobs(scale=0.05, seed=None, warps_per_sm=2))
        trace_path = tmp_path / "old.trace.json"
        write_trace_file(trace_path, trace, workload="retired-family",
                         knobs={"scale": 0.05})
        assert main(["workloads", "--replay", str(trace_path),
                     "--verify"]) == 1
        assert "unknown workload" in capsys.readouterr().out

    @pytest.mark.parametrize("knob, value, message", [
        ("num_sms", "x", "num_sms expects an int, got 'x'"),
        ("warps_per_sm", 0, "warps_per_sm must be >= 1, got 0"),
        ("scale", float("nan"), "non-finite float nan"),
        ("warps", 2, "unknown trace knob 'warps'"),
    ])
    def test_replay_verify_bad_recorded_knob_exits_1(
            self, capsys, tmp_path, knob, value, message):
        # A recorded knob this build refuses fails --verify on one line, like
        # generator drift, never with a traceback.  Every file but the NaN
        # one is hash-consistent; a NaN has no canonical encoding, so no
        # content hash can cover it and the file fails its hash check.
        import json

        from repro.workloads.tracefile import read_trace_file, write_trace_file

        trace_path = tmp_path / "bad.trace.json"
        assert main(["workloads", "--record", "betw", "--out", str(trace_path),
                     "--scale", "0.05", "--warps", "2"]) == 0
        recorded = read_trace_file(trace_path)
        knobs = dict(recorded.knobs, **{knob: value})
        if knob == "scale":
            payload = json.loads(trace_path.read_text())
            payload["knobs"] = knobs
            trace_path.write_text(json.dumps(payload))
        else:
            write_trace_file(trace_path, recorded.trace,
                             workload=recorded.workload, knobs=knobs)
        capsys.readouterr()
        assert main(["workloads", "--replay", str(trace_path),
                     "--verify"]) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert message in lines[-1]
        assert [line for line in lines if message in line] == [lines[-1]]
        assert "Traceback" not in captured.out
