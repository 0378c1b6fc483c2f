"""``timeline.html``: the report's per-worker lanes, rebuilt from manifests."""

import html

from repro.analysis.reporting import render_timeline_html, report_from_manifests
from repro.runner import RunManifest, SweepRunner, SweepSpec
from repro.runner.manifest import ManifestCell


def _spec():
    return SweepSpec.create(
        platforms=["ZnG-base", "ZnG"], workloads=["betw-back", "bfs1", "pr"],
        scale=0.06, warps_per_sm=2, memory_instructions_per_warp=12)


def test_two_worker_manifest_gives_a_lane_per_pid_and_a_bar_per_cell(tmp_path):
    spec = _spec()
    path = tmp_path / "manifest.json"
    SweepRunner(workers=2, cache=tmp_path).run(spec, manifest_path=path)
    manifest = RunManifest.load(path)
    pids = {cell.worker_pid for cell in manifest.cells}
    assert None not in pids
    assert all(cell.start_seconds >= 0.0 for cell in manifest.cells)

    timeline = render_timeline_html([manifest])
    assert timeline.count("class='lane'") == len(pids)
    for pid in pids:
        assert f">pid {pid}</text>" in timeline
    assert timeline.count("class='cell'") == len(spec)
    for cell in manifest.cells:
        assert html.escape(cell.label) in timeline


def test_cache_served_cells_draw_no_bar(tmp_path):
    spec = _spec()
    SweepRunner(workers=1, cache=tmp_path).run(spec)
    path = tmp_path / "manifest.json"
    SweepRunner(workers=1, cache=tmp_path).run(spec, manifest_path=path)
    written = report_from_manifests([path], tmp_path / "report", plots=False)
    timeline = written["timeline.html"].read_text()
    assert "class='cell'" not in timeline
    assert "0 executed cells on 0 worker lane(s)" in timeline


def test_shards_get_their_own_lanes(tmp_path):
    spec = _spec()
    paths = []
    for index in range(2):
        paths.append(tmp_path / f"manifest.shard-{index + 1}-of-2.json")
        SweepRunner(workers=1, cache=tmp_path).run(
            spec.shard(index, 2), manifest_path=paths[-1])
    timeline = render_timeline_html([RunManifest.load(p) for p in paths])
    assert timeline.count("class='lane'") == 2
    assert ">shard 1/2 pid " in timeline and ">shard 2/2 pid " in timeline
    assert timeline.count("class='cell'") == len(spec)


def _cell(workload, pid, start, trace_build, simulate, **kwargs):
    cell = ManifestCell(platform="ZnG", workload=workload, override_label="default",
                        cache_key=f"{workload}-{pid}-{start}", status="ok",
                        start_seconds=start, worker_pid=pid, **kwargs)
    cell.timings = {"trace_build_seconds": trace_build, "simulate_seconds": simulate}
    cell.elapsed_seconds = trace_build + simulate
    return cell


def _manifest(*cells, shard_index=0, shard_count=1):
    return RunManifest(spec_payload={}, spec_fingerprint="0" * 64, cells=list(cells),
                       shard_index=shard_index, shard_count=shard_count)


def test_cells_of_one_worker_share_its_lane_and_its_totals():
    timeline = render_timeline_html([_manifest(
        _cell("bfs1", 11, 0.0, 0.25, 0.75), _cell("pr", 11, 1.0, 0.5, 1.5),
        _cell("betw", 12, 0.0, 0.125, 0.375))])
    assert timeline.count("class='lane'") == 2
    assert timeline.count("class='cell'") == 3
    assert "<tr><td>pid 11</td><td>2</td><td>0.750</td><td>2.250</td></tr>" in timeline
    assert "<tr><td>pid 12</td><td>1</td><td>0.125</td><td>0.375</td></tr>" in timeline
    assert "3 executed cells on 2 worker lane(s) over 3.000 s" in timeline


def test_bars_are_placed_and_sized_on_one_time_axis():
    # 720 px of drawing width after the 170 px lane labels, over a 3 s run.
    timeline = render_timeline_html([_manifest(
        _cell("bfs1", 11, 0.0, 0.25, 0.75), _cell("pr", 11, 1.0, 0.5, 1.5))])
    assert "<rect x='170.0' y='13' height='20' width='240.0' fill='#335c81'/>" in timeline
    assert "<rect x='170.0' y='13' height='20' width='60.0' fill='#e09f3e'/>" in timeline
    assert "<rect x='410.0' y='13' height='20' width='480.0' fill='#335c81'/>" in timeline
    assert "<rect x='410.0' y='13' height='20' width='120.0' fill='#e09f3e'/>" in timeline


def test_a_failed_cell_that_ran_draws_a_bar():
    failed = _cell("bfs1", 11, 0.0, 0.25, 0.0)
    failed.status, failed.error = "failed", "RuntimeError: boom"
    timeline = render_timeline_html([_manifest(failed)])
    assert timeline.count("class='cell'") == 1
    assert "ZnG/bfs1: start 0.000 s" in timeline


def test_cell_labels_are_escaped():
    timeline = render_timeline_html([_manifest(_cell("trace:<a&b>.json", 11, 0.0, 0.1, 0.1))])
    assert "ZnG/trace:&lt;a&amp;b&gt;.json" in timeline
    assert "<a&b>" not in timeline


def test_no_manifest_draws_an_empty_timeline():
    timeline = render_timeline_html([])
    assert "class='cell'" not in timeline and "class='lane'" not in timeline
    assert "0 executed cells on 0 worker lane(s)" in timeline
    assert "<a href='report.html'>" in timeline
