"""Conservation invariants of every cell's output counters.

The cells are those of the pinned digest grid (every platform, two workloads,
Table I defaults and a ``stress`` point).  The digests say *that* a result
changed; these checks say whether a result still adds up, so they keep
guarding after a model change regenerates the digests.
"""

from __future__ import annotations

import pytest

from repro.config import GPU_FREQ_HZ
from repro.platforms.base import GPUSSDPlatform
from repro.runner.spec import build_cell_trace
from tests.platforms.test_record_digests import SPEC, _cell_id

#: HybridGPU's SSD engine attributes the array and channel cycles of a flash
#: access but not the time the request queued for the flash, so its latency
#: breakdown may fall short of the request latency, never exceed it.
HYBRIDGPU_SHORTFALL = 0.002

#: The two sides sum the same cycles in different orders.
ROUNDING = 1e-9

#: Cells whose breakdown falls further short than that on this model.
BREAKDOWN_XFAIL = {
    "HybridGPU|betw-back|stress": (
        "SSDEngine.service does not attribute flash queueing: the breakdown "
        "is 2.93% short of the request latency"),
}

CELLS = SPEC.cells()


def _front_end_resources(platform):
    """The single-port resources of the shared front end, by kind; port and
    link statistics are in no result record."""
    return {
        "issue_ports": [sm.issue_port for sm in platform.gpu.sms],
        "noc_links": list(platform.noc.links),
        "l2_bank_ports": list(platform.l2._bank_ports),
    }


def _count_calls(tally, owner, method, **measures):
    """Shadow ``owner.method`` with a wrapper that counts its calls in
    ``tally[method]`` and adds ``measure(*args)`` to ``tally[name]``."""
    call = getattr(owner, method)

    def counted(*args, **kwargs):
        tally[method] = tally.get(method, 0) + 1
        for name, measure in measures.items():
            tally[name] = tally.get(name, 0) + measure(*args)
        return call(*args, **kwargs)

    setattr(owner, method, counted)


def _counted_run(platform, trace):
    """Run ``trace`` and count, call by call, what the platform totals only
    when read: requests, writes, NoC packets and bytes, MMU translations and
    flash page reads."""
    counted = {}
    _count_calls(counted, platform, "memory_access",
                 writes=lambda address, is_write, *rest: int(is_write))
    _count_calls(counted, platform.noc, "send",
                 noc_bytes=lambda destination, num_bytes, now: num_bytes)
    _count_calls(counted, platform.mmu, "translate")
    array = getattr(platform, "array", None)
    if array is not None:
        _count_calls(counted, array, "read_page")
    return platform.run(trace), counted


@pytest.fixture(scope="module")
def run_cell():
    """Runs each cell once per module: ``cell_id -> (result, SM MSHR merges,
    front-end resources, counted calls, platform)``."""
    runs = {}

    def run(cell_id: str):
        if cell_id not in runs:
            cell = next(c for c in CELLS if _cell_id(c) == cell_id)
            platform = GPUSSDPlatform.build(cell.platform, cell.resolved_config())
            result, counted = _counted_run(platform, build_cell_trace(cell))
            runs[cell_id] = (
                result,
                sum(sm.mshr.secondary_misses for sm in platform.gpu.sms),
                _front_end_resources(platform),
                counted,
                platform,
            )
        return runs[cell_id]

    return run


def _breakdown_param(cell):
    cell_id = _cell_id(cell)
    marks = ()
    if cell_id in BREAKDOWN_XFAIL:
        marks = pytest.mark.xfail(strict=True, reason=BREAKDOWN_XFAIL[cell_id])
    return pytest.param(cell_id, id=cell_id, marks=marks)


@pytest.mark.parametrize("cell_id", [_cell_id(cell) for cell in CELLS])
def test_request_counters_conserve(run_cell, cell_id):
    result, mshr_merges, _, _, _ = run_cell(cell_id)
    stats = result.stats
    requests = stats.get("requests")
    reads = stats.get("read_requests")
    writes = stats.get("write_requests")
    assert requests > 0
    assert requests == reads + writes
    assert stats.get("l2_hits") + stats.get("l2_misses") == reads
    assert stats.get("writes_below_l2") == writes
    l1_hits = sum(sm.l1_hits for sm in result.execution.per_sm.values())
    assert result.execution.memory_requests == l1_hits + mshr_merges + requests
    assert stats.histograms["request_latency"].count == requests


@pytest.mark.parametrize("cell_id", [_breakdown_param(cell) for cell in CELLS])
def test_breakdown_sums_to_request_latency(run_cell, cell_id):
    result, _, _, _, _ = run_cell(cell_id)
    total = result.stats.histograms["request_latency"].total
    attributed = sum(result.latency_breakdown.values())
    assert total > 0
    if result.platform == "HybridGPU":
        assert attributed <= total * (1.0 + ROUNDING)
        assert attributed >= total * (1.0 - HYBRIDGPU_SHORTFALL - ROUNDING)
    else:
        assert attributed == pytest.approx(total, rel=ROUNDING, abs=0.0)


@pytest.mark.parametrize("cell_id", [_cell_id(cell) for cell in CELLS])
def test_front_end_resources_conserve(run_cell, cell_id):
    result, _, resources, counted, _ = run_cell(cell_id)
    requests = result.stats.get("requests")
    links, ports = resources["noc_links"], resources["l2_bank_ports"]
    # Every request crosses one NoC link and books one L2 bank port.
    assert sum(link.requests_served for link in links) == requests
    assert sum(port.requests_served for port in ports) == requests
    assert sum(link.bytes_transferred for link in links) == counted["noc_bytes"]
    # Utilisation <= 1 at each single-port resource's last completion.
    for kind, members in resources.items():
        for resource in members:
            assert resource.ports == 1, (kind, resource.name)
            assert resource.wait_cycles >= 0, (kind, resource.name)
            assert resource.busy_cycles <= resource.last_completion, (kind, resource.name)


@pytest.mark.parametrize("cell_id", [_cell_id(cell) for cell in CELLS])
def test_counters_computed_on_read_equal_the_increments(run_cell, cell_id):
    """Each total the model computes when read equals the per-call count it
    replaced."""
    result, _, _, counted, platform = run_cell(cell_id)
    stats = result.stats
    requests, writes = counted["memory_access"], counted["writes"]
    assert stats.get("requests") == requests
    assert stats.get("writes_below_l2") == writes
    seconds = result.cycles / GPU_FREQ_HZ
    assert result.memory_bandwidth_gbps == (
        requests * platform.request_bytes / seconds / 1e9)
    assert platform.noc.packets == counted["send"]
    assert platform.noc.bytes_moved == counted["noc_bytes"]
    assert platform.mmu.translations == counted["translate"]
    array = getattr(platform, "array", None)
    if array is not None:
        page_reads = counted.get("read_page", 0)
        assert array.page_reads == page_reads
        assert array.bytes_read_from_array == page_reads * array.config.page_size_bytes
