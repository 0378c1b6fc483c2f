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
    python -m repro dispatch [options]  # lease-based distributed sweep worker
    python -m repro status [options]    # live dispatch-fleet / sweep status
    python -m repro merge <manifest>... # fold shard manifests into one result
    python -m repro config [options]    # inspect the configuration space
    python -m repro workloads [options] # inspect the workload-family registry

Sweep options::

    --preset NAME         start from a named experiment preset (fig10,
                          reg-sweep, table1-sensitivity, ...; list them with
                          `config --presets`); later flags override it
    --platforms A,B,...   platform names            (default: the 4 ZnG variants)
    --workloads W,...     workload tokens: a family (app) name, a read-write
                          mix, a parameterised instance
                          (kv-lookup:zipf=1.1,get_ratio=0.9), a recorded
                          trace (trace:file.json), or a group token
                          (mixes/graph/scientific/scenarios); tokens are
                          validated against the registry before any cell runs
                          (default: betw-back,bfs1-gaus,pr-gaus)
    --set path=value,...  labelled config overrides may repeat: --set label:a.b=1,c.d=2
                          values are coerced/validated against the schema
    --config-file FILE    JSON {path: value} overrides applied to every cell
                          (a base layer below presets and --set axes)
    --workers N           worker processes          (default: 4)
    --scale S             trace scale               (default: 0.2)
    --seed N              sweep seed                (default: 1)
    --warps N             warps per SM              (default: 8)
    --cache-dir DIR       result cache location     (default: .repro-cache)
    --no-cache            disable the result cache
    --shard I/N           run only the I-th of N deterministic grid shards
                          (1-based; shard union == the full grid, exactly)
    --manifest FILE       run-manifest location (default: <cache-dir>/
                          manifest.json, or manifest.shard-I-of-N.json);
                          rewritten atomically after every finished cell
    --resume FILE         re-run only the failed/missing cells recorded in a
                          manifest (grid flags come from the manifest)
    --perf-report         print cells/sec plus the trace-build / simulate /
                          cache time split and write it to BENCH_sweep.json
    --perf-report-path F  where to write the perf report (default: the repo
                          root's BENCH_sweep.json, wherever you run from)
    --profile             cProfile the worker hot path (forces --workers 1 —
                          pool workers cannot be profiled from the parent)
                          and write per-phase top-N cumulative tables
                          (trace-build vs simulate) next to the perf report
                          as <perf-report-path>.profile.txt

Dispatch options::

    Each ``dispatch`` invocation is ONE worker leasing cells from a
    file-backed queue in the cache root; start any number of them (processes
    or hosts sharing the cache) and they cooperate — no daemon, no shards.
    A worker that dies mid-cell only delays its in-flight cells by the lease
    TTL: survivors steal the expired lease and the grid still completes.
    The grid flags --preset/--platforms/--workloads/--set/--config-file/
    --scale/--seed/--warps mean exactly what they do for sweep (every worker
    must declare the identical grid; the queue rejects mismatches), plus:

    --cache-dir DIR       result cache AND queue location (default:
                          .repro-cache); the queue lives under
                          <cache-dir>/dispatch/<spec-fingerprint[:16]>/
    --remote-cache URL    share results fleet-wide through an http(s) cache
                          server (reference server:
                          python -m repro.runner.cache_server); --cache-dir
                          becomes the local read-through layer
    --owner NAME          worker identity in lease records
                          (default: <hostname>-<pid>)
    --lease-ttl S         seconds without a heartbeat before a lease is
                          stealable (default: 30); set it well above the
                          slowest single cell
    --poll-interval S     idle sleep between queue scans (default: TTL/4,
                          clamped to [0.05, 1])
    --max-cells N         commit at most N cells then exit (smoke runs)
    --stall-after-claim S fault injection: claim one lease, then stall S
                          seconds WITHOUT heartbeating — the lease expires
                          and peers must steal it (CI kill-a-worker drills)

    Whichever worker commits the last cell writes <cache-dir>/manifest.json
    — the same schema-versioned manifest a serial `sweep` writes, plus a
    `dispatch` provenance block — so merge/report/goldens work unchanged::

        python -m repro dispatch --preset fig10 &   # worker 1
        python -m repro dispatch --preset fig10 &   # worker 2
        wait
        python -m repro merge .repro-cache/manifest.json

Status options::

    Renders the live state of every dispatch queue under the cache root —
    committed/pending cells, active leases with heartbeat ages, per-worker
    tallies, an ETA from the completed-cell rate — purely by reading the
    on-disk coordination files (never perturbs a running fleet)::

        python -m repro status                    # one snapshot, default cache
        python -m repro status --watch            # refresh until complete/^C

    --cache-dir DIR       cache root to scan (default: .repro-cache or
                          $REPRO_CACHE_DIR); queues live under
                          <cache-dir>/dispatch/
    --queue DIR           inspect one specific queue directory (repeatable)
    --manifest FILE       also summarise a sweep run manifest (repeatable;
                          default: every manifest*.json in the cache root)
    --watch               refresh every --interval seconds until every queue
                          completes (or Ctrl-C)
    --interval S          --watch refresh period (default: 2)
    --json                machine-readable snapshot instead of text
    --validate            additionally validate every telemetry record under
                          <cache-dir>/telemetry against repro-telemetry-v1;
                          exit 1 on any violation (the CI telemetry gate)

Telemetry (REPRO_TELEMETRY=1)::

    Set ``REPRO_TELEMETRY=1`` to make sweep/dispatch emit structured spans
    (sweep -> cell -> trace-build/simulate), per-cell component counters and
    dispatch events (e.g. ``lease.stolen``) to per-worker JSONL files under
    ``<cache-dir>/telemetry/`` (schema ``repro-telemetry-v1``).  Disabled by
    default and bit-identical when off — see ``repro.telemetry``.

Report options (after one or more manifest paths)::

    --out DIR             artifact directory        (default: report-out)
    --check               diff the emitted CSVs byte-for-byte against the
                          goldens in tests/data/report/; exit 1 on any drift
    --no-plots            skip matplotlib plots (they are skipped with a
                          note automatically when matplotlib is missing)
    --no-html             emit only the CSVs
    --bench-history FILE  bench-trajectory source (default: the repo root's
                          BENCH_sweep.json and its git history)
    --golden              instead of reading manifests, re-run the canonical
                          fixed-seed golden sweep (the CI fig10 grid) and
                          rewrite the CSV goldens under tests/data/report/
    --workers N           worker processes for --golden (default: 1)

The emitted CSVs are canonical (shortest round-trip float repr, LF
newlines), so a report over merged shard manifests is byte-identical to
one over the same sweep run serially — that is what --check gates.

Merge options (after one or more manifest paths)::

    --metric NAME         table metric to print     (default: ipc)
    --perf-report         write the merged, shard-aware perf report
    --perf-report-path F  as for sweep

``merge`` verifies completeness — identical spec fingerprints, every cell of
the spec accounted for exactly once with status ok, every result loadable —
and exits 1 on any missing, duplicated or failed cell.

Config options::

    --list-paths          every dotted override path with type/default/unit
    --explain PATH        full field card: doc, bounds, axis, platform pins
    --diff A B            resolved-config diff between two platforms
    --presets             list the named experiment presets
    --golden              schema-drift golden lines (tests/data regeneration)

Workloads options::

    --list                every registered workload family with suite/params
    --explain NAME        family card: description, typed parameter schema
    --golden              catalogue drift-gate lines (regenerate
                          tests/data/workload_catalog.txt)
    --record TOKEN        generate TOKEN's trace and persist it as a
                          content-hashed repro-trace-v1 file (--out FILE;
                          knob flags --scale/--seed/--sms/--warps/--mem-insts
                          mirror the sweep defaults, and the trace seed is
                          derived exactly like a sweep cell's, so replaying
                          the file reproduces the generating sweep)
    --replay FILE         load + hash-verify a trace file and print its
                          provenance; --verify additionally regenerates the
                          trace from the recorded token/knobs and asserts
                          the payload is bit-identical
"""

from __future__ import annotations

import sys
from typing import List

from repro.analysis import figures
from repro.analysis.fullreport import generate_report
from repro.analysis.report import format_figure_table
from repro.analysis.tables import table_1_configuration, table_2_workloads
from repro.analysis.validation import validate_all


def _usage(command: str, section: str) -> str:
    """``command``'s usage line and its options section of the module docstring."""
    lines = __doc__.splitlines()
    start = lines.index(f"{section}::")
    end = start + 1
    while end < len(lines) and not (lines[end][:1].strip() and lines[end].endswith("::")):
        end += 1
    body = "\n".join(lines[start:end]).rstrip()
    return f"usage: python -m repro {command} [options]\n\n{body}"


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _cmd_report(args: List[str]) -> int:
    """Textual report (legacy), or the full artifact set from manifests.

    ``report`` / ``report 0.2`` keep printing the textual reproduction
    report.  With manifest paths (or ``--golden``) the command becomes the
    artifact generator: CSVs + HTML (+ optional plots) into ``--out``,
    golden regeneration, and the drift gate (``--check``).
    """
    if not args or (len(args) == 1 and _is_float(args[0])):
        scale = float(args[0]) if args else 0.15
        print(generate_report(scale=scale,
                              mixes=[("betw", "back"), ("bfs1", "gaus")]))
        return 0

    from repro.analysis import reporting

    manifest_paths: List[str] = []
    out_dir = "report-out"
    golden = False
    check = False
    plots = True
    html_report = True
    bench_path = None
    workers = 1
    index = 0
    while index < len(args):
        flag = args[index]
        if flag in ("--golden", "--check", "--no-plots", "--no-html"):
            if flag == "--golden":
                golden = True
            elif flag == "--check":
                check = True
            elif flag == "--no-plots":
                plots = False
            else:
                html_report = False
            index += 1
            continue
        if flag.startswith("--") and index + 1 >= len(args):
            print(f"missing value for {flag}")
            return 2
        if flag == "--out":
            out_dir = args[index + 1]
            index += 2
        elif flag == "--bench-history":
            bench_path = args[index + 1]
            index += 2
        elif flag == "--workers":
            try:
                workers = int(args[index + 1])
            except ValueError:
                print(f"--workers expects a number, got {args[index + 1]!r}")
                return 2
            index += 2
        elif flag.startswith("--"):
            print(f"unknown report option {flag!r}")
            return 2
        else:
            manifest_paths.append(flag)
            index += 1

    if golden:
        # Re-derive the canonical fixed-seed sweep and rewrite the goldens.
        if manifest_paths:
            print("--golden re-runs the canonical golden sweep; "
                  "drop the manifest paths")
            return 2
        written = reporting.write_goldens(workers=workers)
        for name in sorted(written):
            print(f"golden written: {written[name]}")
        print("commit the refreshed goldens under tests/data/report/")
        return 0

    if not manifest_paths:
        print("usage: python -m repro report <manifest.json>... [--out DIR] "
              "[--check] [--no-plots] [--no-html] [--bench-history FILE]\n"
              "       python -m repro report --golden   (rewrite CSV goldens)\n"
              "       python -m repro report [scale]    (textual report)")
        return 2

    from repro.runner import ManifestError

    try:
        written = reporting.report_from_manifests(
            manifest_paths, out_dir, plots=plots, html_report=html_report,
            bench_path=bench_path)
    except ManifestError as error:
        print(f"report failed: {error.args[0] if error.args else error}")
        return 1
    except reporting.ReportError as error:
        print(f"report failed: {error.args[0]}")
        return 1
    for name in sorted(written):
        print(f"wrote {written[name]}")

    if check:
        golden_dir = reporting.default_golden_dir()
        drift = reporting.compare_csv_dirs(out_dir, golden_dir)
        if drift:
            for message in drift:
                print(f"GOLDEN DRIFT: {message}")
            print(f"{len(drift)} golden mismatch(es) against {golden_dir}; "
                  f"if intentional, regenerate with "
                  f"`python -m repro report --golden`")
            return 1
        print(f"golden gate passed: CSVs byte-identical to {golden_dir}")
    return 0


def _cmd_fig10(args: List[str]) -> int:
    scale = float(args[0]) if args else 0.2
    data = figures.figure_10(scale=scale, mixes=[("betw", "back"), ("bfs1", "gaus")])
    print(format_figure_table("Figure 10 — Normalised IPC (to ZnG)", data, "{:.3f}"))
    return 0


def _cmd_fig11(args: List[str]) -> int:
    scale = float(args[0]) if args else 0.2
    data = figures.figure_11(scale=scale, mixes=[("betw", "back"), ("bfs1", "gaus")])
    print(format_figure_table("Figure 11 — Flash-array bandwidth (GB/s)", data, "{:.2f}"))
    return 0


def _cmd_table1(args: List[str]) -> int:
    for subsystem, values in table_1_configuration().items():
        print(f"[{subsystem}]")
        for key, value in values.items():
            print(f"  {key:24s}: {value}")
    return 0


def _cmd_table2(args: List[str]) -> int:
    from repro.analysis.report import format_records_table

    print(format_records_table(
        "Table II — workload families",
        ["workload", "suite", "read_ratio", "kernels", "params"],
        table_2_workloads(),
        formats={"read_ratio": "{:.2f}"},
    ))
    return 0


def _cmd_validate(args: List[str]) -> int:
    print(f"{'check':26s} {'analytic':>14s} {'measured':>14s} {'rel.err':>8s}")
    for result in validate_all().values():
        print(f"{result.name:26s} {result.analytic:>14.3e} "
              f"{result.measured:>14.3e} {result.relative_error:>8.2%}")
    return 0


def _cmd_run(args: List[str]) -> int:
    if len(args) < 3:
        print("usage: python -m repro run <platform> <read_app> <write_app>")
        return 2
    from repro.platforms import build_platform
    from repro.workloads import build_mix

    platform_name, read_app, write_app = args[0], args[1], args[2]
    mix = build_mix(read_app, write_app, scale=0.3, warps_per_sm=12,
                    memory_instructions_per_warp=96)
    result = build_platform(platform_name).run(mix.combined)
    print(f"{platform_name} on {read_app}-{write_app}:")
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
    """Read a JSON ``{dotted.path: value}`` override file (a 'file' layer)."""
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
        raise ValueError(f"--shard expects I/N (e.g. 2/3), got {text!r}")
    if count < 1 or not 1 <= index <= count:
        raise ValueError(
            f"--shard expects 1 <= I <= N, got {text!r}")
    return index - 1, count


def _default_perf_report_path():
    """Anchor ``BENCH_sweep.json`` at the repo root, like the bench does.

    The CLI used to write into the current working directory, silently
    scattering trajectory points wherever a sweep happened to be launched
    from (the ROADMAP flagged this footgun).  Falls back to the CWD only
    when the source tree is not recognisable (e.g. an installed package).
    """
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    if (root / "setup.py").exists() or (root / "pytest.ini").exists():
        return root / "BENCH_sweep.json"
    return Path.cwd() / "BENCH_sweep.json"


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


def _write_perf_report(result, path) -> int:
    """Print the perf summary and persist the report; shared by sweep/merge."""
    import json
    from pathlib import Path

    report = result.perf_report()
    print(
        f"perf: {report['executed_cells_per_sec']:.1f} simulated cells/sec "
        f"({report['cells_per_sec']:.1f} incl. cache-served) | "
        f"trace-build {report['trace_build_seconds']:.3f}s, "
        f"simulate {report['simulate_seconds']:.3f}s, "
        f"cache {report['cache_seconds']:.3f}s (worker-time aggregates)"
    )
    print(
        f"perf: {report['events_processed']} engine events "
        f"({report['events_per_sec']:.0f} events/sec of simulate time)"
    )
    for warning in report.get("warnings", ()):
        print(f"perf: WARNING: {warning}")
    if report["executed_cells"] == 0:
        # Don't overwrite the perf trajectory with a cache-read number.
        # Merged results carry the shard runs' real executed counts, so a
        # merge of cold shard runs writes; a merge of warm reruns does not.
        print(
            "perf: every cell came from the result cache — this measures "
            "cache reads, not the simulator; perf report left "
            "untouched (rerun with --no-cache for a hot-path number)"
        )
        return 0
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"perf report written to {path}")
    return 0


def _cmd_sweep(args: List[str]) -> int:
    from repro.configspace import get_preset
    from repro.runner import (
        SweepExecutionError,
        SweepRunner,
        SweepSpec,
        default_manifest_name,
        resume_sweep,
    )

    # Defaults; a --preset replaces them wholesale, later flags override.
    platforms = ["ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG"]
    workloads = ["betw-back", "bfs1-gaus", "pr-gaus"]
    override_axis = {}
    file_overrides = {}
    workers, scale, seed, warps = 4, 0.2, 1, 8
    memory_instructions = 64
    cache: object = True  # memoize in the default cache location
    cache_flagged = False  # did the user say --cache-dir/--no-cache explicitly?
    perf_report = False
    perf_report_path = None
    profile = False
    shard_coords = None
    manifest_arg = None
    resume_arg = None
    index = 0
    try:
        while index < len(args):
            flag = args[index]
            if flag in ("-h", "--help"):
                print(_usage("sweep", "Sweep options"))
                return 0
            if flag == "--no-cache":
                cache = False
                cache_flagged = True
                index += 1
                continue
            if flag == "--perf-report":
                perf_report = True
                index += 1
                continue
            if flag == "--profile":
                profile = True
                index += 1
                continue
            if flag.startswith("--") and index + 1 >= len(args):
                print(f"missing value for {flag}")
                return 2
            if flag == "--preset":
                preset = get_preset(args[index + 1])
                platforms = list(preset.platforms)
                workloads = list(preset.workloads)
                override_axis = preset.override_axis() or {}
                scale = preset.scale
                seed = preset.seed
                warps = preset.warps_per_sm
                memory_instructions = preset.memory_instructions_per_warp
            elif flag == "--platforms":
                platforms = [p for p in args[index + 1].split(",") if p]
            elif flag == "--workloads":
                workloads = [w for w in args[index + 1].split(",") if w]
            elif flag == "--set":
                label, overrides = _parse_override_flag(args[index + 1])
                override_axis[label] = overrides
            elif flag == "--config-file":
                file_overrides.update(_load_config_file(args[index + 1]))
            elif flag in ("--workers", "--scale", "--seed", "--warps"):
                kind = float if flag == "--scale" else int
                try:
                    value = kind(args[index + 1])
                except ValueError:
                    print(f"{flag} expects a number, got {args[index + 1]!r}")
                    return 2
                if flag == "--workers":
                    workers = value
                elif flag == "--scale":
                    scale = value
                elif flag == "--seed":
                    seed = value
                else:
                    warps = value
            elif flag == "--cache-dir":
                cache = args[index + 1]
                cache_flagged = True
            elif flag == "--shard":
                shard_coords = _parse_shard_flag(args[index + 1])
            elif flag == "--manifest":
                manifest_arg = args[index + 1]
            elif flag == "--resume":
                resume_arg = args[index + 1]
            elif flag == "--perf-report-path":
                perf_report_path = args[index + 1]
            else:
                print(f"unknown sweep option {flag!r}")
                return 2
            index += 2
    except OSError as error:
        print(error)
        return 2
    except (ValueError, KeyError) as error:
        print(error.args[0] if error.args else error)
        return 2

    profile_text = None
    profile_forced_workers = None
    if profile:
        from repro.runner import enable_profiling

        if workers != 1:
            # To stderr: this changes the run's parallelism, and stdout is
            # the sweep table that scripts parse.
            print(f"note: --profile forces --workers 1 (was {workers}); pool "
                  f"workers cannot be profiled from the parent process",
                  file=sys.stderr)
            profile_forced_workers = workers
            workers = 1
        enable_profiling()

    try:
        if resume_arg is not None:
            # The grid comes from the manifest; only execution knobs apply.
            if cache is False:
                print("--resume needs the result cache the manifest records; "
                      "drop --no-cache")
                return 2
            if manifest_arg is not None or shard_coords is not None:
                # Both are recorded in the manifest being resumed; silently
                # ignoring a conflicting value would mislead.
                print("--resume takes its manifest path and shard "
                      "coordinates from the manifest; drop --manifest/--shard")
                return 2
            result = resume_sweep(
                resume_arg,
                workers=workers,
                cache=cache if (cache_flagged and cache is not True) else None,
            )
            runner_cache_root = None
        else:
            base_config = None
            if file_overrides:
                from repro.config import default_config
                from repro.runner import apply_overrides

                base_config = apply_overrides(default_config(), file_overrides)
            spec = SweepSpec.create(
                platforms=platforms,
                workloads=workloads,
                overrides=override_axis or None,
                scale=scale,
                seed=seed,
                warps_per_sm=warps,
                memory_instructions_per_warp=memory_instructions,
                base_config=base_config,
            )
            job = spec if shard_coords is None else spec.shard(*shard_coords)
            runner = SweepRunner(workers=workers, cache=cache)
            # Pin the telemetry sink dir before any pool forks, so every
            # worker's per-process event file lands in the same place.
            from repro.telemetry import ensure_sink_env

            # `is not None`: an empty LocalResultCache is falsy (__len__).
            ensure_sink_env(
                runner.cache.root if runner.cache is not None else None)
            manifest_path = None
            if manifest_arg is not None:
                manifest_path = manifest_arg
            elif runner.cache is not None:
                shard_index, shard_count = shard_coords or (0, 1)
                manifest_path = runner.cache.root / default_manifest_name(
                    shard_index, shard_count)
            result = runner.run(
                job,
                manifest_path=manifest_path,
                on_error="record" if manifest_path is not None else "raise",
            )
            runner_cache_root = runner.cache.root if runner.cache else None
    except SweepExecutionError as error:
        print(error.args[0] if error.args else error)
        return 1
    except (ValueError, KeyError) as error:
        # Unknown platform/workload/preset or a bad override: report cleanly.
        message = error.args[0] if error.args else error
        print(message)
        return 2
    finally:
        if profile:
            # Harvest before disarming so the tables survive the reset; the
            # finally also disarms on the error returns above, keeping later
            # in-process sweeps (tests, figure layers) unprofiled.
            from repro.runner import disable_profiling, profile_tables

            profile_text = profile_tables()
            disable_profiling()

    if profile_forced_workers is not None:
        # Persist the override in the perf report: a profiled run's
        # throughput is serial, and the trajectory must say so.
        result.runtime_notes.append(
            f"profile_forced_workers=1: --profile forced --workers 1 "
            f"(requested {profile_forced_workers}); throughput numbers "
            f"measure a serial run.")
    _print_sweep_table(result)
    shard_note = ""
    if result.shard_count is not None:
        shard_note = (f" [shard {result.shard_index + 1}/{result.shard_count} "
                      f"of a {len(result.spec)}-cell grid]")
    print(
        f"{len(result)} cells in {result.elapsed_seconds:.2f}s with {workers} workers; "
        f"{result.cache_hits} served from cache"
        + (f" ({runner_cache_root})" if runner_cache_root is not None else "")
        + shard_note
    )
    if result.failed:
        for failure in result.failed:
            detail = failure.error.strip().splitlines()[-1]
            print(f"FAILED {failure.label}: {detail}")
        print(f"{len(result.failed)} cell(s) failed; re-run them with "
              f"--resume <manifest>")
        return 1
    if perf_report:
        _write_perf_report(result, perf_report_path or _default_perf_report_path())
    if profile and profile_text is not None:
        from pathlib import Path

        report_path = Path(perf_report_path or _default_perf_report_path())
        profile_path = report_path.with_suffix(".profile.txt")
        profile_path.parent.mkdir(parents=True, exist_ok=True)
        profile_path.write_text(profile_text)
        print(f"profile written to {profile_path}")
    return 0


def _cmd_dispatch(args: List[str]) -> int:
    """One lease-queue worker over the sweep grid; see the module docstring."""
    from repro.configspace import get_preset
    from repro.runner import DispatchError, DispatchWorker, SweepSpec, open_cache

    platforms = ["ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG"]
    workloads = ["betw-back", "bfs1-gaus", "pr-gaus"]
    override_axis = {}
    file_overrides = {}
    scale, seed, warps = 0.2, 1, 8
    memory_instructions = 64
    cache_dir = None
    remote_cache = None
    owner = None
    lease_ttl = None
    poll_interval = None
    max_cells = None
    stall_after_claim = 0.0
    index = 0
    try:
        while index < len(args):
            flag = args[index]
            if flag in ("-h", "--help"):
                print(_usage("dispatch", "Dispatch options"))
                return 0
            if flag.startswith("--") and index + 1 >= len(args):
                print(f"missing value for {flag}")
                return 2
            if flag == "--preset":
                preset = get_preset(args[index + 1])
                platforms = list(preset.platforms)
                workloads = list(preset.workloads)
                override_axis = preset.override_axis() or {}
                scale = preset.scale
                seed = preset.seed
                warps = preset.warps_per_sm
                memory_instructions = preset.memory_instructions_per_warp
            elif flag == "--platforms":
                platforms = [p for p in args[index + 1].split(",") if p]
            elif flag == "--workloads":
                workloads = [w for w in args[index + 1].split(",") if w]
            elif flag == "--set":
                label, overrides = _parse_override_flag(args[index + 1])
                override_axis[label] = overrides
            elif flag == "--config-file":
                file_overrides.update(_load_config_file(args[index + 1]))
            elif flag in ("--scale", "--seed", "--warps", "--lease-ttl",
                          "--poll-interval", "--max-cells",
                          "--stall-after-claim"):
                kind = int if flag in ("--seed", "--warps", "--max-cells") else float
                try:
                    value = kind(args[index + 1])
                except ValueError:
                    print(f"{flag} expects a number, got {args[index + 1]!r}")
                    return 2
                if flag == "--scale":
                    scale = value
                elif flag == "--seed":
                    seed = value
                elif flag == "--warps":
                    warps = value
                elif flag == "--lease-ttl":
                    lease_ttl = value
                elif flag == "--poll-interval":
                    poll_interval = value
                elif flag == "--max-cells":
                    max_cells = value
                else:
                    stall_after_claim = value
            elif flag == "--cache-dir":
                cache_dir = args[index + 1]
            elif flag == "--remote-cache":
                remote_cache = args[index + 1]
            elif flag == "--owner":
                owner = args[index + 1]
            else:
                print(f"unknown dispatch option {flag!r}")
                return 2
            index += 2
    except OSError as error:
        print(error)
        return 2
    except (ValueError, KeyError) as error:
        print(error.args[0] if error.args else error)
        return 2

    try:
        base_config = None
        if file_overrides:
            from repro.config import default_config
            from repro.runner import apply_overrides

            base_config = apply_overrides(default_config(), file_overrides)
        spec = SweepSpec.create(
            platforms=platforms,
            workloads=workloads,
            overrides=override_axis or None,
            scale=scale,
            seed=seed,
            warps_per_sm=warps,
            memory_instructions_per_warp=memory_instructions,
            base_config=base_config,
        )
        if remote_cache is not None:
            cache = open_cache(remote_cache, local_root=cache_dir)
        else:
            cache = cache_dir if cache_dir is not None else True
        worker_kwargs = dict(
            cache=cache,
            owner=owner,
            stall_after_claim_seconds=stall_after_claim,
            max_cells=max_cells,
        )
        if lease_ttl is not None:
            worker_kwargs["lease_ttl_seconds"] = lease_ttl
        if poll_interval is not None:
            worker_kwargs["poll_interval_seconds"] = poll_interval
        worker = DispatchWorker(spec, **worker_kwargs)
        from repro.telemetry import ensure_sink_env

        ensure_sink_env(worker.cache.root)
        report = worker.run()
    except DispatchError as error:
        print(error.args[0] if error.args else error)
        return 2
    except (ValueError, KeyError) as error:
        print(error.args[0] if error.args else error)
        return 2

    print(
        f"worker {report.owner}: {report.executed} executed, "
        f"{report.cache_served} from cache, {report.stolen} stolen, "
        f"{report.wasted} wasted, {len(report.failed)} failed "
        f"in {report.elapsed_seconds:.2f}s "
        f"[cache {worker.cache.describe()}]"
    )
    if report.complete and report.manifest_path is not None:
        print(f"grid complete; manifest at {report.manifest_path}")
    elif not report.complete:
        pending = worker.queue.pending(
            [cell.cache_key() for cell in spec.cells()])
        print(f"exiting with the grid incomplete ({len(pending)} cells "
              f"pending); more workers (or a re-run) will finish it")
    if report.failed:
        for label in report.failed:
            print(f"FAILED {label}")
        print(f"{len(report.failed)} cell(s) failed; inspect the manifest and "
              f"re-run dispatch after fixing (committed failures are sticky "
              f"for this queue)")
        return 1
    return 0


def _cmd_status(args: List[str]) -> int:
    """Live dispatch-fleet / sweep status from the on-disk coordination files."""
    import json as json_module
    import time as time_module
    from pathlib import Path

    from repro.runner.cache import default_cache_dir
    from repro.telemetry.status import (
        discover_queue_dirs,
        manifest_status,
        queue_status,
        render_manifest_status,
        render_queue_status,
    )

    cache_dir = None
    queue_args: List[str] = []
    manifest_args: List[str] = []
    watch = False
    interval = 2.0
    validate = False
    as_json = False
    index = 0
    while index < len(args):
        flag = args[index]
        if flag in ("--watch", "--validate", "--json"):
            watch = watch or flag == "--watch"
            validate = validate or flag == "--validate"
            as_json = as_json or flag == "--json"
            index += 1
            continue
        if flag.startswith("--") and index + 1 >= len(args):
            print(f"missing value for {flag}")
            return 2
        if flag == "--cache-dir":
            cache_dir = args[index + 1]
            index += 2
        elif flag == "--queue":
            queue_args.append(args[index + 1])
            index += 2
        elif flag == "--manifest":
            manifest_args.append(args[index + 1])
            index += 2
        elif flag == "--interval":
            try:
                interval = float(args[index + 1])
            except ValueError:
                print(f"--interval expects a number, got {args[index + 1]!r}")
                return 2
            index += 2
        elif flag.startswith("--"):
            print(f"unknown status option {flag!r}")
            return 2
        else:
            print(f"unexpected argument {flag!r} (use --queue/--manifest)")
            return 2

    root = Path(cache_dir) if cache_dir is not None else default_cache_dir()

    def snapshot() -> int:
        """Render one status pass; exit 0 iff everything found is complete."""
        queue_dirs = [Path(q) for q in queue_args] or discover_queue_dirs(root)
        statuses = [queue_status(directory) for directory in queue_dirs]
        manifest_paths = [Path(m) for m in manifest_args] or sorted(
            root.glob("manifest*.json"))
        manifests = [manifest_status(path) for path in manifest_paths]
        if as_json:
            print(json_module.dumps(
                {"queues": statuses,
                 "manifests": [m for m in manifests if m is not None]},
                indent=2, sort_keys=True))
        else:
            blocks = [render_queue_status(status) for status in statuses]
            blocks.extend(
                render_manifest_status(status) if status is not None
                else f"manifest {path}: unreadable"
                for status, path in zip(manifests, manifest_paths))
            if not blocks:
                print(f"no dispatch queues under {root / 'dispatch'} "
                      f"(and no --queue/--manifest given)")
            print("\n\n".join(blocks))
        done = all(status["complete"] for status in statuses) and all(
            status is not None and status["complete"] for status in manifests)
        return 0 if (statuses or manifests) and done else 1

    if watch:
        try:
            while True:
                code = snapshot()
                if code == 0:
                    return 0
                time_module.sleep(interval)
                print()
        except KeyboardInterrupt:
            return 130
    code = snapshot()

    if validate:
        from repro.telemetry import ENV_DIR, validate_events_dir
        import os

        telemetry_dir = Path(os.environ.get(ENV_DIR) or root / "telemetry")
        count, problems = validate_events_dir(telemetry_dir)
        for problem in problems:
            print(f"TELEMETRY VIOLATION: {problem}")
        print(f"telemetry: {count} records under {telemetry_dir}, "
              f"{len(problems)} schema violation(s)")
        if problems:
            return 1
    # One-shot status is informational: report, don't fail, on incomplete.
    return 0 if code in (0, 1) else code


def _cmd_merge(args: List[str]) -> int:
    """Fold N shard manifests + caches into one verified sweep result."""
    from repro.runner import ManifestError, merge_manifests

    manifest_paths: List[str] = []
    metric = "ipc"
    perf_report = False
    perf_report_path = None
    index = 0
    while index < len(args):
        flag = args[index]
        if flag == "--perf-report":
            perf_report = True
            index += 1
            continue
        if flag.startswith("--") and index + 1 >= len(args):
            print(f"missing value for {flag}")
            return 2
        if flag == "--metric":
            metric = args[index + 1]
            index += 2
        elif flag == "--perf-report-path":
            perf_report_path = args[index + 1]
            index += 2
        elif flag.startswith("--"):
            print(f"unknown merge option {flag!r}")
            return 2
        else:
            manifest_paths.append(flag)
            index += 1
    if not manifest_paths:
        print("usage: python -m repro merge <manifest.json>... "
              "[--metric NAME] [--perf-report]")
        return 2

    try:
        result = merge_manifests(manifest_paths)
    except ManifestError as error:
        print(f"merge failed: {error.args[0] if error.args else error}")
        return 1

    print(
        f"merged {result.merged_shards} manifest(s): {len(result)} cells, "
        f"complete and unique (spec {result.spec.fingerprint()[:12]})"
    )
    _print_sweep_table(result)
    try:
        table = result.table(metric)
    except (AttributeError, TypeError, ValueError):
        # Missing attribute, or one that exists but is not a number
        # (platform, stats, ...) — either way not a table metric.
        print(f"unknown metric {metric!r}")
        return 2
    platforms = list(result.spec.platforms)
    print(f"\n{metric} table:")
    print(f"{'workload':12s} " + " ".join(f"{p:>12s}" for p in platforms))
    for workload, row in table.items():
        print(f"{workload:12s} "
              + " ".join(f"{row.get(p, float('nan')):>12.4f}" for p in platforms))
    print(f"total shard time: {result.elapsed_seconds:.2f}s across "
          f"{result.merged_shards} shard run(s)")
    if perf_report:
        _write_perf_report(result, perf_report_path or _default_perf_report_path())
    return 0


def _cmd_config(args: List[str]) -> int:
    """Inspect the configuration space: paths, field cards, diffs, presets."""
    from repro.configspace import (
        EXPERIMENT_PRESETS,
        PLATFORM_LAYERS,
        SCHEMA,
        ConfigPathError,
        FieldRef,
        config_fingerprint,
        resolve_platform_config,
    )

    if not args or args[0] in ("-h", "--help"):
        print("usage: python -m repro config "
              "(--list-paths | --explain PATH | --diff A B | --presets | --golden)")
        return 0 if args else 2

    flag = args[0]
    if flag == "--list-paths":
        print(f"{'path':44s} {'type':6s} {'default':>14s} {'unit':12s}")
        for spec in SCHEMA.fields():
            print(f"{spec.path:44s} {spec.type.__name__:6s} "
                  f"{str(spec.default):>14s} {spec.unit:12s}")
        print(f"{len(SCHEMA)} overridable paths")
        return 0

    if flag == "--golden":
        for line in SCHEMA.golden_lines():
            print(line)
        return 0

    if flag == "--explain":
        if len(args) < 2:
            print("usage: python -m repro config --explain <dotted.path>")
            return 2
        path = args[1]
        try:
            spec = SCHEMA.get(path)
        except ConfigPathError as error:
            print(error.args[0])
            return 2
        print(spec.describe())
        # Which platform layers touch this path (pins win over --set).
        pinned_by = []
        for platform, layer in sorted(PLATFORM_LAYERS.items()):
            for layer_path, value in layer.overrides:
                if layer_path == path:
                    source = (f"copied from {value.path}"
                              if isinstance(value, FieldRef) else repr(value))
                    kind = "pins" if layer.pinned else "sets"
                    pinned_by.append(f"{platform} {kind} {source}")
        if pinned_by:
            print("platforms: " + "; ".join(pinned_by))
        return 0

    if flag == "--diff":
        if len(args) < 3:
            print("usage: python -m repro config --diff <platformA> <platformB>")
            return 2
        name_a, name_b = args[1], args[2]
        from repro.platforms.zng import PLATFORM_NAMES

        known = ["GDDR5"] + PLATFORM_NAMES
        for name in (name_a, name_b):
            if name not in known:
                print(f"unknown platform {name!r}; known: {known}")
                return 2
        resolved_a = resolve_platform_config(name_a)
        resolved_b = resolve_platform_config(name_b)
        differences = SCHEMA.diff(resolved_a.config, resolved_b.config)
        print(f"{'path':40s} {name_a:>14s} {name_b:>14s}")
        for path, (left, right) in sorted(differences.items()):
            print(f"{path:40s} {str(left):>14s} {str(right):>14s}")
            print(f"  {resolved_a.explain(path)}")
            print(f"  {resolved_b.explain(path)}")
        if not differences:
            print("(identical resolved configurations)")
        print(f"fingerprints: {name_a}={config_fingerprint(resolved_a.config)[:12]} "
              f"{name_b}={config_fingerprint(resolved_b.config)[:12]}")
        return 0

    if flag == "--presets":
        for name in sorted(EXPERIMENT_PRESETS):
            preset = EXPERIMENT_PRESETS[name]
            cells = (len(preset.platforms) * len(preset.workloads)
                     * max(1, len(preset.overrides)))
            print(f"{name:20s} {cells:>5d} cells  {preset.description}")
        print("run one with: python -m repro sweep --preset <name>")
        return 0

    print(f"unknown config option {flag!r}")
    return 2


def _cmd_workloads(args: List[str]) -> int:
    """Inspect the workload-family registry; record/replay trace files."""
    from repro.workloads import registry, tracefile

    usage = ("usage: python -m repro workloads (--list | --explain NAME | "
             "--golden | --record TOKEN --out FILE [knobs] | "
             "--replay FILE [--verify])")
    if not args or args[0] in ("-h", "--help"):
        print(usage)
        return 0 if args else 2

    flag = args[0]
    if flag == "--list":
        print(f"{'family':22s} {'suite':12s} {'params':>6s}  description")
        for name in registry.family_names():
            family = registry.WORKLOAD_FAMILIES[name]
            print(f"{name:22s} {family.suite:12s} {len(family.params):>6d}  "
                  f"{family.description}")
        print(f"{len(registry.WORKLOAD_FAMILIES)} families; group tokens: "
              f"{', '.join(registry.GROUP_TOKENS)}; parameterised instances "
              f"as family:param=value,...; replay via trace:<file>")
        return 0

    if flag == "--golden":
        for line in registry.catalog_lines():
            print(line)
        return 0

    if flag == "--explain":
        if len(args) < 2:
            print("usage: python -m repro workloads --explain <family>")
            return 2
        try:
            family = registry.family_by_name(args[1])
        except KeyError as error:
            print(error.args[0])
            return 2
        print(family.describe())
        return 0

    if flag == "--record":
        if len(args) < 2:
            print("usage: python -m repro workloads --record TOKEN --out FILE "
                  "[--scale S] [--seed N] [--sms N] [--warps N] [--mem-insts N]")
            return 2
        token = args[1]
        out_path = None
        # Sweep-default knobs, so a recorded file replays the default sweep.
        knob_values = {"scale": 0.2, "seed": 1, "sms": 16, "warps": 8,
                       "mem-insts": 64}
        index = 2
        while index < len(args):
            option = args[index]
            if index + 1 >= len(args):
                print(f"missing value for {option}")
                return 2
            if option == "--out":
                out_path = args[index + 1]
            elif option.startswith("--") and option[2:] in knob_values:
                name = option[2:]
                kind = float if name == "scale" else int
                try:
                    knob_values[name] = kind(args[index + 1])
                except ValueError:
                    print(f"{option} expects a number, got {args[index + 1]!r}")
                    return 2
            else:
                print(f"unknown record option {option!r}")
                return 2
            index += 2
        if out_path is None:
            print("--record needs --out FILE")
            return 2
        try:
            recorded = tracefile.record_trace(
                token,
                out_path,
                scale=knob_values["scale"],
                seed=knob_values["seed"],
                num_sms=knob_values["sms"],
                warps_per_sm=knob_values["warps"],
                memory_instructions_per_warp=knob_values["mem-insts"],
            )
        except (ValueError, KeyError, OSError) as error:
            if isinstance(error, OSError):
                print(f"cannot record trace to {out_path}: {error}")
            else:
                print(error.args[0] if error.args else error)
            return 2
        trace = recorded.trace
        print(f"recorded {recorded.workload} -> {out_path}")
        print(f"  schema:       {tracefile.TRACE_SCHEMA}")
        print(f"  content hash: {recorded.content_hash}")
        print(f"  warps:        {len(trace.warps)}")
        print(f"  instructions: {trace.total_instructions} "
              f"({trace.total_memory_instructions} memory)")
        print(f"sweep it with: python -m repro sweep --workloads "
              f"trace:{out_path}")
        return 0

    if flag == "--replay":
        if len(args) < 2:
            print("usage: python -m repro workloads --replay FILE [--verify]")
            return 2
        verify = "--verify" in args[2:]
        unknown = [a for a in args[2:] if a != "--verify"]
        if unknown:
            print(f"unknown replay option {unknown[0]!r}")
            return 2
        try:
            loaded = tracefile.read_trace_file(args[1])
        except tracefile.TraceFileError as error:
            print(error.args[0])
            return 1
        trace = loaded.trace
        print(f"{args[1]}: {tracefile.TRACE_SCHEMA} "
              f"(content hash verified: {loaded.content_hash[:16]}...)")
        print(f"  workload:     {loaded.workload or '(external trace)'}")
        print(f"  knobs:        {loaded.knobs}")
        print(f"  warps:        {len(trace.warps)}")
        print(f"  instructions: {trace.total_instructions} "
              f"({trace.total_memory_instructions} memory)")
        if verify:
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

    print(f"unknown workloads option {flag!r}")
    return 2


COMMANDS = {
    "report": _cmd_report,
    "sweep": _cmd_sweep,
    "dispatch": _cmd_dispatch,
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
        print(f"unknown command {command!r}; known: {sorted(COMMANDS)}")
        return 2
    return COMMANDS[command](argv[1:])


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
