"""Command-line interface for the ZnG reproduction.

Usage::

    python -m repro report              # full textual reproduction report
    python -m repro report <manifest>.. # full artifact set (CSVs/HTML/plots)
    python -m repro report --golden     # rewrite tests/data/report/ goldens
    python -m repro fig10               # normalised IPC table (Figure 10)
    python -m repro fig11               # flash-array bandwidth (Figure 11)
    python -m repro table1              # system configuration (Table I)
    python -m repro table2              # workloads (Table II)
    python -m repro validate            # analytic-vs-measured validations
    python -m repro run <platform> <read_app> <write_app>   # one platform x mix
    python -m repro sweep [options]     # parallel, cached experiment sweep
    python -m repro status [options]    # sweep manifest status
    python -m repro merge <manifest>... # fold shard manifests into one result
    python -m repro config [options]    # inspect the configuration space
    python -m repro workloads [options] # inspect the workload-family registry

``python -m repro <command> -h`` lists a command's options.  Bad input exits
2 with one line on stderr; results, and the exit-1 verdicts (a failed merge,
report or cell, golden drift), go to stdout.  Ctrl-C exits 130 with one line
on stderr; an interrupted sweep names the manifest to ``sweep --resume``.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import List

from repro.analysis import figures
from repro.analysis.fullreport import generate_report
from repro.analysis.report import format_figure_table, format_records_table
from repro.analysis.tables import table_1_configuration, table_2_workloads
from repro.analysis.validation import validate_all


class _Parser(argparse.ArgumentParser):
    """One command's parser; a parse error is a single stderr line, exit 2."""

    def __init__(self, command: str, **kwargs) -> None:
        super().__init__(prog=f"python -m repro {command}", allow_abbrev=False,
                         **kwargs)

    def error(self, message: str):
        # argparse prints the usage on a line of its own; scripts and CI
        # expect exactly one line, so the usage goes at the end of it.
        usage = " ".join(self.format_usage().split())
        self.exit(2, f"{self.prog}: error: {message}; {usage}\n")


def _cmd_report(args: List[str]) -> int:
    if len(args) <= 1:  # ``report`` or ``report <scale>``: the textual report
        try:
            scale = float(args[0]) if args else 0.15
        except ValueError:
            pass  # one manifest path, or an option
        else:
            print(generate_report(scale=scale,
                                  mixes=[("betw", "back"), ("bfs1", "gaus")]))
            return 0

    parser = _Parser(
        "report", usage="%(prog)s [scale] | <manifest.json>... [options] | --golden",
        description="With no argument or a trace scale (default 0.15), print the "
        "textual report; with run manifests, write canonical CSVs, HTML and plots.")
    parser.add_argument("manifests", nargs="*", metavar="manifest.json")
    parser.add_argument("--out", default="report-out", metavar="DIR",
                        help="artifact directory (default: %(default)s)")
    parser.add_argument("--check", action="store_true",
                        help="diff the CSVs byte-for-byte against the goldens in "
                        "tests/data/report/; exit 1 on any drift")
    parser.add_argument("--no-plots", dest="plots", action="store_false",
                        help="skip matplotlib plots (skipped anyway without it)")
    parser.add_argument("--no-html", dest="html", action="store_false",
                        help="emit only the CSVs")
    parser.add_argument("--golden", action="store_true",
                        help="re-run the canonical golden sweep (the CI fig10 "
                        "grid) and rewrite the CSV goldens")
    parser.add_argument("--workers", type=int, default=1, metavar="N",
                        help="worker processes for --golden (default: %(default)s)")
    ns = parser.parse_intermixed_args(args)

    from repro.analysis import reporting

    if ns.golden:
        if ns.manifests:
            parser.error("--golden re-runs the canonical golden sweep; "
                         "drop the manifest paths")
        written = reporting.write_goldens(workers=ns.workers)
        for name in sorted(written):
            print(f"golden written: {written[name]}")
        print("commit the refreshed goldens under tests/data/report/")
        return 0
    if not ns.manifests:
        parser.error("no manifest given")

    from repro.runner import ManifestError

    try:
        written = reporting.report_from_manifests(
            ns.manifests, ns.out, plots=ns.plots, html_report=ns.html)
    except (ManifestError, reporting.ReportError) as error:
        print(f"report failed: {error.args[0] if error.args else error}")
        return 1
    for name in sorted(written):
        print(f"wrote {written[name]}")

    if ns.check:
        golden_dir = reporting.default_golden_dir()
        drift = reporting.compare_csv_dirs(ns.out, golden_dir)
        if drift:
            for message in drift:
                print(f"GOLDEN DRIFT: {message}")
            print(f"{len(drift)} golden mismatch(es) against {golden_dir}; "
                  f"if intentional, regenerate with "
                  f"`python -m repro report --golden`")
            return 1
        print(f"golden gate passed: CSVs byte-identical to {golden_dir}")
    return 0


def _print_figure(command: str, args: List[str], pivot, title: str, fmt: str) -> int:
    """Run the ``command`` preset (``fig10``/``fig11``) on two mixes and pivot it."""
    from repro.configspace import get_preset
    from repro.runner import run_sweep
    from repro.workloads import TraceKnobs

    parser = _Parser(command, description="The figure over two read-write mixes.")
    # No %(default)s here: parse_intermixed_args hides positional defaults.
    scale = TraceKnobs().scale
    parser.add_argument("scale", nargs="?", type=float, default=scale,
                        help=f"trace scale (default: {scale})")
    scale = parser.parse_intermixed_args(args).scale
    spec = get_preset(command).spec(scale=scale, workloads=["betw-back", "bfs1-gaus"])
    print(format_figure_table(title, pivot(run_sweep(spec)), fmt))
    return 0


def _cmd_fig10(args: List[str]) -> int:
    return _print_figure("fig10", args, figures.figure_10_from_result,
                         "Figure 10 — Normalised IPC (to ZnG)", "{:.3f}")


def _cmd_fig11(args: List[str]) -> int:
    return _print_figure("fig11", args, figures.figure_11_from_result,
                         "Figure 11 — Flash-array bandwidth (GB/s)", "{:.2f}")


def _cmd_table1(args: List[str]) -> int:
    _Parser("table1", description="Table I.").parse_intermixed_args(args)
    for subsystem, values in table_1_configuration().items():
        print(f"[{subsystem}]")
        for key, value in values.items():
            print(f"  {key:24s}: {value}")
    return 0


def _cmd_table2(args: List[str]) -> int:
    _Parser("table2", description="Table II.").parse_intermixed_args(args)
    print(format_records_table(
        "Table II — workload families",
        ["workload", "suite", "read_ratio", "kernels", "params"],
        table_2_workloads(),
        formats={"read_ratio": "{:.2f}"},
    ))
    return 0


def _cmd_validate(args: List[str]) -> int:
    _Parser("validate", description="Analytic vs measured bandwidths "
            "and latencies.").parse_intermixed_args(args)
    print(f"{'check':26s} {'analytic':>14s} {'measured':>14s} {'rel.err':>8s}")
    for result in validate_all().values():
        print(f"{result.name:26s} {result.analytic:>14.3e} "
              f"{result.measured:>14.3e} {result.relative_error:>8.2%}")
    return 0


def _cmd_run(args: List[str]) -> int:
    parser = _Parser("run", description="One platform on one read-write mix "
                     "(scale 0.3, 12 warps/SM, 96 memory instructions/warp).")
    for name in ("platform", "read_app", "write_app"):
        parser.add_argument(name)
    ns = parser.parse_intermixed_args(args)
    from repro.platforms import build_platform
    from repro.workloads import TraceKnobs, build_mix

    platform = build_platform(ns.platform)  # an unknown name fails fast
    mix = build_mix(ns.read_app, ns.write_app, TraceKnobs(
        scale=0.3, seed=None, warps_per_sm=12, memory_instructions_per_warp=96))
    result = platform.run(mix.combined)
    print(f"{ns.platform} on {ns.read_app}-{ns.write_app}:")
    print(f"  IPC:                  {result.ipc:.4f}")
    print(f"  cycles:               {result.cycles:.0f}")
    print(f"  L2 hit rate:          {result.l2_hit_rate:.3f}")
    print(f"  flash-array BW (GB/s):{result.flash_array_read_bandwidth_gbps:.2f}")
    return 0


def _parse_override_flag(argument: str):
    """``label:a.b=1,c.d=2`` or ``a.b=1`` -> (label, {path: value}).

    Values are coerced and validated against the config schema, so a typo'd
    path, a string where a count belongs, or an out-of-range value errors
    here instead of silently sweeping garbage.
    """
    from repro.configspace import SCHEMA

    label, _, body = argument.partition(":")
    if not body:
        label, body = "", label
    overrides = {}
    for pair in body.split(","):
        path, _, raw = pair.partition("=")
        if not raw:
            raise ValueError(f"malformed override {pair!r} (expected path=value)")
        path = path.strip()
        overrides[path] = SCHEMA.coerce(path, raw.strip())
    return label or "+".join(f"{p}={v}" for p, v in overrides.items()), overrides


def _load_config_file(path: str):
    """Read a JSON ``{dotted.path: value}`` override file."""
    import json

    from repro.configspace import SCHEMA

    with open(path) as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"config file {path!r} must hold a JSON object "
                         f"of {{dotted.path: value}} overrides")
    return {str(p): SCHEMA.coerce(str(p), v) for p, v in payload.items()}


def _parse_shard_flag(text: str):
    """``I/N`` (1-based, as printed for humans) -> 0-based ``(index, count)``."""
    index_text, slash, count_text = text.partition("/")
    try:
        if not slash:
            raise ValueError
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"--shard expects I/N (e.g. 2/3), got {text!r}")
    if count < 1 or not 1 <= index <= count:
        raise argparse.ArgumentTypeError(f"--shard expects 1 <= I <= N, got {text!r}")
    return index - 1, count


def _grid_parser() -> argparse.ArgumentParser:
    """The grid flags of ``sweep``, read by :func:`_spec_from_args`."""
    from repro.workloads import TraceKnobs

    defaults = TraceKnobs()
    grid = argparse.ArgumentParser(add_help=False)
    group = grid.add_argument_group("grid options")
    group.add_argument("--preset", metavar="NAME",
                       help="start from a named experiment preset (list them "
                       "with `config --presets`); the other grid flags override it")
    group.add_argument("--platforms", metavar="A,B,...",
                       help="platform names (default: the 4 ZnG variants)")
    group.add_argument("--workloads", metavar="W,...",
                       help="workload tokens: an app, a read-write mix, "
                       "kv-lookup:zipf=1.1, trace:file.json or a group "
                       "(mixes/graph/scientific); checked before any "
                       "cell runs (default: betw-back,bfs1-gaus,pr-gaus)")
    group.add_argument("--set", action="append", metavar="LABEL:PATH=VALUE,...",
                       help="a labelled point of schema-checked config "
                       "overrides, added to the preset's axis; repeatable")
    group.add_argument("--config-file", action="append", metavar="FILE",
                       help="JSON {path: value} overrides for every cell, below "
                       "presets and --set; repeatable")
    group.add_argument("--scale", type=float, metavar="S",
                       help=f"trace scale (default: {defaults.scale})")
    group.add_argument("--seed", type=int, metavar="N",
                       help=f"sweep seed (default: {defaults.seed})")
    group.add_argument("--warps", type=int, metavar="N",
                       help=f"warps per SM (default: {defaults.warps_per_sm})")
    return grid


def _spec_from_args(ns):
    """The ``SweepSpec`` the grid flags declare.

    The ``--preset`` (default: ``zng-ablation``), then each grid flag given,
    so a flag overrides the preset wherever it stands on the command line.
    """
    from repro.configspace import get_preset

    preset = get_preset("zng-ablation" if ns.preset is None else ns.preset)
    fields = {}
    if ns.platforms is not None:
        fields["platforms"] = [p for p in ns.platforms.split(",") if p]
    if ns.workloads is not None:
        fields["workloads"] = [w for w in ns.workloads.split(",") if w]
    axis = preset.override_axis() or {}
    axis.update(_parse_override_flag(text) for text in ns.set or ())
    for name, value in (("scale", ns.scale), ("seed", ns.seed),
                        ("warps_per_sm", ns.warps)):
        if value is not None:
            fields[name] = value
    if ns.config_file:
        from repro.config import default_config
        from repro.runner import apply_overrides

        file_overrides = {}
        for path in ns.config_file:
            file_overrides.update(_load_config_file(path))
        fields["base_config"] = apply_overrides(default_config(), file_overrides)
    return preset.spec(overrides=axis or None, **fields)


def _print_sweep_table(result) -> None:
    """The shared per-cell table of ``sweep`` and ``merge``."""
    spec = result.spec
    show_label = len(spec.overrides) > 1 or spec.overrides[0].label != "default"
    header = f"{'workload':12s} {'platform':12s}"
    if show_label:
        header += f" {'override':>20s}"
    print(header + f" {'IPC':>10s} {'cycles':>14s} {'cached':>7s}")
    for run in result:
        line = f"{run.cell.workload:12s} {run.cell.platform:12s}"
        if show_label:
            line += f" {run.cell.override_set.label:>20s}"
        line += (
            f" {run.result.ipc:>10.4f} {run.result.cycles:>14.0f}"
            f" {'yes' if run.from_cache else 'no':>7s}"
        )
        print(line)


def _cmd_sweep(args: List[str]) -> int:
    parser = _Parser("sweep", usage="%(prog)s [options]", parents=[_grid_parser()],
                     description="Run a platform x workload x override grid in "
                     "worker processes, cached on disk and resumable.")
    parser.add_argument("--workers", type=int, default=4, metavar="N",
                        help="worker processes (default: %(default)s)")
    parser.add_argument("--cache-dir", dest="cache", default=True, metavar="DIR",
                        help="result cache location (default: .repro-cache)")
    parser.add_argument("--no-cache", dest="cache", action="store_false",
                        help="disable the result cache")
    parser.add_argument("--shard", type=_parse_shard_flag, metavar="I/N",
                        help="run only the I-th of N deterministic grid shards "
                        "(1-based; the shards' union is the grid, exactly)")
    parser.add_argument("--manifest", metavar="FILE",
                        help="run manifest, rewritten after every cell (default: "
                        "<cache-dir>/manifest.json or manifest.shard-I-of-N.json)")
    parser.add_argument("--resume", metavar="FILE",
                        help="re-run only the failed/missing cells of a manifest "
                        "(the grid comes from the manifest)")
    ns = parser.parse_intermixed_args(args)
    if ns.resume is not None and ns.cache is False:
        parser.error("--resume needs the result cache the manifest records; "
                     "drop --no-cache")
    if ns.resume is not None and (ns.manifest is not None or ns.shard is not None):
        # Both are recorded in the manifest being resumed; silently ignoring
        # a conflicting value would mislead.
        parser.error("--resume takes its manifest path and shard coordinates "
                     "from the manifest; drop --manifest/--shard")

    from repro.runner import (
        SweepExecutionError,
        SweepRunner,
        default_manifest_name,
        resume_sweep,
    )

    workers = ns.workers
    manifest_path = ns.resume
    try:
        if ns.resume is not None:
            result = resume_sweep(ns.resume, workers=workers,
                                  cache=None if ns.cache is True else ns.cache)
            runner_cache_root = None
        else:
            spec = _spec_from_args(ns)
            job = spec if ns.shard is None else spec.shard(*ns.shard)
            runner = SweepRunner(workers=workers, cache=ns.cache)
            manifest_path = ns.manifest
            if manifest_path is None and runner.cache is not None:
                manifest_path = runner.cache.root / default_manifest_name(
                    *(ns.shard or (0, 1)))
            result = runner.run(job, manifest_path=manifest_path, on_error=(
                "record" if manifest_path is not None else "raise"))
            runner_cache_root = runner.cache.root if runner.cache else None
    except SweepExecutionError as error:
        print(error.args[0] if error.args else error)
        return 1
    except KeyboardInterrupt:
        if manifest_path is None or not os.path.exists(manifest_path):
            raise
        # Every finished cell is already in the cache and the manifest.
        raise KeyboardInterrupt(f"interrupted; finish the sweep with: python -m "
                                f"repro sweep --resume {manifest_path}")

    _print_sweep_table(result)
    shard_note = ""
    if result.shard_count is not None:
        shard_note = (f" [shard {result.shard_index + 1}/{result.shard_count} "
                      f"of a {len(result.spec)}-cell grid]")
    print(
        f"{len(result)} cells in {result.elapsed_seconds:.2f}s with {workers} workers; "
        f"{result.cache_hits} served from cache"
        + (f" ({runner_cache_root})" if runner_cache_root is not None else "")
        + f"; {result.simulated} simulated"
        + shard_note
    )
    if result.failed:
        for failure in result.failed:
            detail = failure.error.strip().splitlines()[-1]
            print(f"FAILED {failure.label}: {detail}")
        print(f"{len(result.failed)} cell(s) failed; re-run them with "
              f"--resume <manifest>")
        return 1
    return 0


def _cmd_status(args: List[str]) -> int:
    parser = _Parser(
        "status", description="Sweep manifest state, read from the on-disk "
        "manifests without perturbing a running sweep.")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="cache root to scan (default: .repro-cache or "
                        "$REPRO_CACHE_DIR)")
    parser.add_argument("--manifest", action="append", default=[], metavar="FILE",
                        help="summarise a run manifest (repeatable; default: "
                        "every manifest*.json in the cache root)")
    parser.add_argument("--watch", action="store_true",
                        help="refresh until every manifest completes (or Ctrl-C)")
    parser.add_argument("--interval", type=float, default=2.0, metavar="S",
                        help="--watch refresh period (default: %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable snapshot instead of text")
    ns = parser.parse_intermixed_args(args)
    if not 0 < ns.interval < math.inf:
        raise ValueError(f"interval must be a finite number of seconds > 0, "
                         f"got {ns.interval!r}")

    import json as json_module
    import time as time_module
    from pathlib import Path

    from repro.runner.cache import default_cache_dir
    from repro.runner.manifest import manifest_status, render_manifest_status

    root = Path(ns.cache_dir) if ns.cache_dir is not None else default_cache_dir()

    def snapshot() -> int:
        """Render one status pass; exit 0 iff every manifest found is complete."""
        manifest_paths = [Path(m) for m in ns.manifest] or sorted(
            root.glob("manifest*.json"))
        manifests = [manifest_status(path) for path in manifest_paths]
        if ns.json:
            print(json_module.dumps(
                {"manifests": [m for m in manifests if m is not None]},
                indent=2, sort_keys=True))
        elif manifest_paths:
            print("\n\n".join(
                render_manifest_status(status) if status is not None
                else f"manifest {path}: unreadable"
                for status, path in zip(manifests, manifest_paths)))
        else:
            print(f"no manifest*.json under {root} (and no --manifest given)")
        done = all(status is not None and status["complete"]
                   for status in manifests)
        return 0 if manifests and done else 1

    if ns.watch:
        while snapshot() != 0:
            time_module.sleep(ns.interval)
            print()
        return 0
    snapshot()
    # One-shot status is informational: report, don't fail, on incomplete.
    return 0


def _cmd_merge(args: List[str]) -> int:
    parser = _Parser(
        "merge", description="Fold shard manifests into one result, verified "
        "complete: exit 1 on any missing, duplicated or failed cell.")
    parser.add_argument("manifests", nargs="+", metavar="manifest.json")
    parser.add_argument("--metric", default="ipc", metavar="NAME",
                        help="table metric to print (default: %(default)s)")
    ns = parser.parse_intermixed_args(args)

    from repro.runner import ManifestError, merge_manifests

    try:
        result = merge_manifests(ns.manifests)
    except ManifestError as error:
        print(f"merge failed: {error.args[0] if error.args else error}")
        return 1
    try:
        table = result.table(ns.metric)
    except (AttributeError, TypeError, ValueError):
        # Missing attribute, or one that exists but is not a number
        # (platform, stats, ...) — either way not a table metric.
        parser.error(f"unknown metric {ns.metric!r}")

    print(f"merged {result.merged_shards} manifest(s): {len(result)} cells, "
          f"complete and unique (spec {result.spec.fingerprint()[:12]})")
    _print_sweep_table(result)
    platforms = list(result.spec.platforms)
    print(f"\n{ns.metric} table:")
    print(f"{'workload':12s} " + " ".join(f"{p:>12s}" for p in platforms))
    for workload, row in table.items():
        print(f"{workload:12s} "
              + " ".join(f"{row.get(p, float('nan')):>12.4f}" for p in platforms))
    print(f"total shard time: {result.elapsed_seconds:.2f}s across "
          f"{result.merged_shards} shard run(s)")
    return 0


def _cmd_config(args: List[str]) -> int:
    parser = _Parser("config", usage="%(prog)s (--list-paths | --explain PATH | "
                     "--diff A B | --presets | --golden)",
                     description="Inspect the configuration space.")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--list-paths", action="store_true",
                        help="every dotted override path with type/default/unit")
    action.add_argument("--explain", metavar="PATH",
                        help="full field card: doc, bounds, axis, platform pins")
    action.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="resolved-config diff between two platforms")
    action.add_argument("--presets", action="store_true",
                        help="list the named experiment presets")
    action.add_argument("--golden", action="store_true",
                        help="schema-drift golden lines (tests/data regeneration)")
    ns = parser.parse_intermixed_args(args)

    from repro.config import default_config
    from repro.configspace import EXPERIMENT_PRESETS, SCHEMA, config_fingerprint
    from repro.platforms.zng import PLATFORM_NAMES, platform_config

    platforms = ["GDDR5"] + PLATFORM_NAMES
    marker = object()

    def carries(platform: str, source: str, target: str) -> bool:
        """Whether a marker planted at ``source`` of the Table I defaults
        reaches ``target`` through ``platform``'s config deltas."""
        planted = SCHEMA.apply(default_config(), {source: marker}, validate=False)
        return SCHEMA.read(platform_config(platform, planted), target) is marker

    if ns.list_paths:
        print(f"{'path':44s} {'type':6s} {'default':>14s} {'unit':12s}")
        for spec in SCHEMA.fields():
            print(f"{spec.path:44s} {spec.type.__name__:6s} "
                  f"{str(spec.default):>14s} {spec.unit:12s}")
        print(f"{len(SCHEMA)} overridable paths")
    elif ns.golden:
        for line in SCHEMA.golden_lines():
            print(line)
    elif ns.explain is not None:
        path = ns.explain
        print(SCHEMA.get(path).describe())
        # Which platforms' deltas set this path (they win over --set).
        pinned_by = []
        for platform in sorted(platforms):
            if carries(platform, path, path):
                continue
            copied = next((f"copied from {other}" for other in SCHEMA.paths()
                           if other != path and carries(platform, other, path)),
                          None)
            value = SCHEMA.read(platform_config(platform, default_config()), path)
            pinned_by.append(f"{platform} pins {copied or repr(value)}")
        if pinned_by:
            print("platforms: " + "; ".join(pinned_by))
    elif ns.diff is not None:
        name_a, name_b = ns.diff
        for name in (name_a, name_b):
            if name not in platforms:
                raise ValueError(f"unknown platform {name!r}; known: {platforms}")
        config_a = platform_config(name_a, default_config())
        config_b = platform_config(name_b, default_config())
        differences = SCHEMA.diff(config_a, config_b)
        print(f"{'path':40s} {name_a:>14s} {name_b:>14s}")
        for path, (left, right) in sorted(differences.items()):
            print(f"{path:40s} {str(left):>14s} {str(right):>14s}")
            for name, value in ((name_a, left), (name_b, right)):
                origin = ("defaults" if carries(name, path, path)
                          else f"platform:{name}")
                print(f"  {path} = {value!r}  [{origin}]")
        if not differences:
            print("(identical resolved configurations)")
        print(f"fingerprints: {name_a}={config_fingerprint(config_a)[:12]} "
              f"{name_b}={config_fingerprint(config_b)[:12]}")
    else:
        for name in sorted(EXPERIMENT_PRESETS):
            preset = EXPERIMENT_PRESETS[name]
            cells = (len(preset.platforms) * len(preset.workloads)
                     * max(1, len(preset.overrides)))
            print(f"{name:20s} {cells:>5d} cells  {preset.description}")
        print("run one with: python -m repro sweep --preset <name>")
    return 0


def _cmd_workloads(args: List[str]) -> int:
    from repro.workloads import TraceKnobs, registry, tracefile

    parser = _Parser(
        "workloads", usage="%(prog)s (--list | --explain NAME | --golden | "
        "--record TOKEN --out FILE [knobs] | --replay FILE [--verify])",
        description="Inspect the workload-family registry; record and replay "
        "trace files.")
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--list", action="store_true",
                        help="every registered workload family with suite/params")
    action.add_argument("--explain", metavar="NAME",
                        help="family card: description, typed parameter schema")
    action.add_argument("--golden", action="store_true",
                        help="catalogue drift-gate lines "
                        "(tests/data/workload_catalog.txt)")
    action.add_argument("--record", metavar="TOKEN",
                        help="write TOKEN's trace as a content-hashed trace file, "
                        "seeded like a sweep cell so it replays that sweep")
    action.add_argument("--replay", metavar="FILE",
                        help="hash-verify a trace file and print its provenance")
    record = parser.add_argument_group(
        "--record options", "Knobs default to the sweep defaults and are checked "
        "as a sweep checks them.")
    record.add_argument("--out", metavar="FILE", help="trace file to write")
    defaults = TraceKnobs()
    record.add_argument("--scale", type=float, metavar="S",
                        help=f"default: {defaults.scale}")
    record.add_argument("--seed", type=int, metavar="N",
                        help=f"default: {defaults.seed}")
    record.add_argument("--sms", dest="num_sms", type=int, metavar="N",
                        help=f"default: {defaults.num_sms}")
    record.add_argument("--warps", dest="warps_per_sm", type=int, metavar="N",
                        help=f"default: {defaults.warps_per_sm}")
    record.add_argument("--mem-insts", dest="memory_instructions_per_warp",
                        type=int, metavar="N",
                        help=f"default: {defaults.memory_instructions_per_warp}")
    parser.add_argument("--verify", action="store_true",
                        help="with --replay: regenerate the trace from its "
                        "recorded token/knobs and require it bit-identical")
    ns = parser.parse_intermixed_args(args)
    knobs = {name: getattr(ns, name) for name in defaults.sweep_fields()
             if getattr(ns, name) is not None}
    if ns.record is None and (ns.out is not None or knobs):
        parser.error("--out and the knob flags only apply to --record")
    if ns.verify and ns.replay is None:
        parser.error("--verify only applies to --replay")

    if ns.list:
        print(f"{'family':22s} {'suite':12s} {'params':>6s}  description")
        for name in registry.family_names():
            family = registry.WORKLOAD_FAMILIES[name]
            print(f"{name:22s} {family.suite:12s} {len(family.params):>6d}  "
                  f"{family.description}")
        print(f"{len(registry.WORKLOAD_FAMILIES)} families; group tokens: "
              f"{', '.join(registry.GROUP_TOKENS)}; parameterised instances "
              f"as family:param=value,...; replay via trace:<file>")
        return 0
    if ns.golden:
        for line in registry.catalog_lines():
            print(line)
        return 0
    if ns.explain is not None:
        print(registry.family_by_name(ns.explain).describe())
        return 0
    if ns.record is not None:
        if ns.out is None:
            parser.error("--record needs --out FILE")
        recorded = tracefile.record_trace(ns.record, ns.out, TraceKnobs(**knobs))
        trace = recorded.trace
        print(f"recorded {recorded.workload} -> {ns.out}")
        print(f"  schema:       {tracefile.TRACE_SCHEMA}")
        print(f"  content hash: {recorded.content_hash}")
        print(f"  warps:        {len(trace.warps)}")
        print(f"  instructions: {trace.total_instructions} "
              f"({trace.total_memory_instructions} memory)")
        print(f"sweep it with: python -m repro sweep --workloads trace:{ns.out}")
        return 0

    try:
        loaded = tracefile.read_trace_file(ns.replay)
    except tracefile.TraceFileError as error:
        print(error.args[0])
        return 1
    trace = loaded.trace
    print(f"{ns.replay}: {tracefile.TRACE_SCHEMA} "
          f"(content hash verified: {loaded.content_hash[:16]}...)")
    print(f"  workload:     {loaded.workload or '(external trace)'}")
    print(f"  knobs:        {loaded.knobs}")
    print(f"  warps:        {len(trace.warps)}")
    print(f"  instructions: {trace.total_instructions} "
          f"({trace.total_memory_instructions} memory)")
    if ns.verify:
        from repro.workloads.io import trace_to_dict

        try:
            regenerated = tracefile.regenerate_from_meta(loaded)
        except (tracefile.TraceFileError, ValueError, KeyError) as error:
            # KeyError: the recorded token names a family this build no
            # longer registers — generator drift, the very thing
            # --verify exists to surface.
            print(error.args[0] if error.args else error)
            return 1
        if trace_to_dict(regenerated) != trace_to_dict(trace):
            print("VERIFY FAILED: regenerating from the recorded "
                  "token/knobs does not reproduce the stored trace "
                  "(generator drift?)")
            return 1
        print("  verify:       regenerated trace is bit-identical")
    return 0


COMMANDS = {
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "status": _cmd_status,
    "merge": _cmd_merge,
    "config": _cmd_config,
    "workloads": _cmd_workloads,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "validate": _cmd_validate,
    "run": _cmd_run,
}


def main(argv: List[str] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if not argv or argv[0] in ("-h", "--help", "help"):
        print(__doc__)
        return 0
    command = argv[0]
    if command not in COMMANDS:
        print(f"unknown command {command!r}; known: {sorted(COMMANDS)}",
              file=sys.stderr)
        return 2
    try:
        return COMMANDS[command](argv[1:])
    except SystemExit as stop:  # argparse: -h/--help (0) or a parse error (2)
        return stop.code
    except KeyboardInterrupt as stop:  # Ctrl-C: one line, the shell's 128 + SIGINT
        print(stop.args[0] if stop.args else "interrupted", file=sys.stderr)
        return 130
    except OSError as error:
        print(error, file=sys.stderr)
        return 2
    except (ValueError, KeyError) as error:
        # Bad input found past the parser (an unknown platform, a run knob
        # out of range, ...): one line, no traceback.
        print(error.args[0] if error.args else error, file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
