"""Pinned digests of complete result records: the bit-identity contract.

Every platform runs two workloads at a small scale, each at the Table I
defaults and under a ``stress`` point that shrinks the flash geometry, the
register pools and both L2s.  The stress point drives the paths the report
goldens barely touch: register evictions, helper-GC merges, thrashing spills
into pinned L2 lines, L2 evictions feeding the prefetch access monitor.

Each cell's canonical ``PlatformResult.to_record()`` is hashed.  A hot-path
change that moves any simulated number, or that adds a counter the record did
not have before (even a zero-valued one), changes a digest.  Regenerate only
for an intended model change or an intended change of the record's format::

    PYTHONPATH=src python tests/platforms/test_record_digests.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.configspace.presets import get_preset
from repro.platforms.base import GPUSSDPlatform
from repro.runner.spec import SweepSpec, build_cell_trace

PLATFORMS = ["GDDR5", "Hetero", "HybridGPU", "Optane",
             "ZnG-base", "ZnG-rdopt", "ZnG-wropt", "ZnG"]
WORKLOADS = ["betw-back", "kv-lookup:get_ratio=0.3"]
STRESS = {
    "znand.pages_per_block": 4,
    "znand.registers_per_plane": 1,
    "znand.dies_per_package": 1,
    "znand.planes_per_die": 1,
    "register_cache.registers_per_plane": 1,
    "register_cache.thrashing_window": 8,
    "register_cache.thrashing_eviction_ratio": 0.05,
    "gpu.l2_size_bytes": 98304,
    "stt_mram.size_bytes": 196608,
}

SPEC = SweepSpec.create(
    platforms=PLATFORMS,
    workloads=WORKLOADS,
    overrides={"default": {}, "stress": STRESS},
    scale=0.2,
    seed=1,
    warps_per_sm=8,
    memory_instructions_per_warp=64,
)

EXPECTED = {
    'GDDR5|betw-back|default':
        'fd7e8ee5c8820c38f9d943fa9b0cd59a2bcad13af61c2dc509026a7e1ee1fc34',
    'Hetero|betw-back|default':
        '5fc9517fabd144012336b442e8870b2bf1a312c4e5b5484d93b7441db6951e14',
    'HybridGPU|betw-back|default':
        'a8f52bc6fa1dd31cf9ed47e7b1a6cd45d2cd594c17531559f9d8b98fcd97a625',
    'Optane|betw-back|default':
        '2abc93b44b410fcfcfa3fc771af8c81145d3f87df9c7a4989246c2c8ae830216',
    'ZnG-base|betw-back|default':
        'b3c0ae0d9e80d37cb52b6323949c252cbd447c738842415db73741e63ace36a1',
    'ZnG-rdopt|betw-back|default':
        '01fd5ea3b2f4aa3c7cd4a3142df634c2c0c09b13445f3ba0e592d642cbc01766',
    'ZnG-wropt|betw-back|default':
        'd29968f08fc11e1cd328b16c4079b892ec90965b783a32ff3812a830d399682e',
    'ZnG|betw-back|default':
        '81421e1a12badd543a5a8d55d293e4f9ea92ffce5eb1ecdbc3c11e28b1fac624',
    'GDDR5|kv-lookup:get_ratio=0.3|default':
        '976e8390920b3fb8f36418d6dfb288c9ee3cbe7ede71ebb8626e17d73e8d3a01',
    'Hetero|kv-lookup:get_ratio=0.3|default':
        'ee2ae1a07582ccedc1dbbd430b0983d90edb90fa75d6896e89ac3d906903a7c0',
    'HybridGPU|kv-lookup:get_ratio=0.3|default':
        'd0a27c1da9a04eeaa2c44707057576c2b2b6d87bea68a4f860beffdd73c385fa',
    'Optane|kv-lookup:get_ratio=0.3|default':
        '706805ed9abdc809f140de039048b1b113b9b47aa2d5cb3d79cfc85846aedcbf',
    'ZnG-base|kv-lookup:get_ratio=0.3|default':
        '1db1101f22cb9a49e493a152214e7212da993c23e8f068aa34a8ef2184774cb0',
    'ZnG-rdopt|kv-lookup:get_ratio=0.3|default':
        '3a19c1f364979169c88c2e7382988def1e479757cc6bf5d85d75161b1549e354',
    'ZnG-wropt|kv-lookup:get_ratio=0.3|default':
        'a58858261d2620e280fa90e3aed6911ec0293d2d59c66725b85a49f128f1d18a',
    'ZnG|kv-lookup:get_ratio=0.3|default':
        '75c443208c150d2207706d5d956b392932ce51f5ea3dabc062e9c08686fb3193',
    'GDDR5|betw-back|stress':
        'adfe471a7ca4a9fe7bcc90788be1bf6bab4a526ea32255e3f18e420e2f22ae6f',
    'Hetero|betw-back|stress':
        '0050e9e1afaba9df47d54378d1bdcfc2e97ed09e2bfe0cdb21a4926b01274cdd',
    'HybridGPU|betw-back|stress':
        'bfe2bddd8410e0cfaef048a94e877ba61d0132d572e54209782966475128eea9',
    'Optane|betw-back|stress':
        'db73f2241900970b897818d2168c55b3d2015a2f374bd2ffb041ae3b9996cefa',
    'ZnG-base|betw-back|stress':
        '92544faf04ea77de213b9226641885d0f7d535db1d3f141a4bfbec0559f0ef9f',
    'ZnG-rdopt|betw-back|stress':
        '0740c21cfb906112f4beeabbddbc5862224c64e905de8245cbf84f83f287b2f6',
    'ZnG-wropt|betw-back|stress':
        'b315dea2897e2e3f4654b77f95d4f475dc2345fe6c0ca201297251407a91b871',
    'ZnG|betw-back|stress':
        'b1387f5964c83a1924f8f85f301911c819e3ae462c3dbf324d1592253b7224c0',
    'GDDR5|kv-lookup:get_ratio=0.3|stress':
        '976e8390920b3fb8f36418d6dfb288c9ee3cbe7ede71ebb8626e17d73e8d3a01',
    'Hetero|kv-lookup:get_ratio=0.3|stress':
        'ee2ae1a07582ccedc1dbbd430b0983d90edb90fa75d6896e89ac3d906903a7c0',
    'HybridGPU|kv-lookup:get_ratio=0.3|stress':
        'd6e712f7bd3c04654c7a0a7c3e0e2240cccf252d501203f71f569a282fda4d04',
    'Optane|kv-lookup:get_ratio=0.3|stress':
        '706805ed9abdc809f140de039048b1b113b9b47aa2d5cb3d79cfc85846aedcbf',
    'ZnG-base|kv-lookup:get_ratio=0.3|stress':
        'd947e66b3c8fbe6319a732603c465a014978e8b387a5d7b6495d419d49a7c60a',
    'ZnG-rdopt|kv-lookup:get_ratio=0.3|stress':
        'f472a96fb266453969b41a79f50cfa59f2bc1141493540716893848ed77aaa1c',
    'ZnG-wropt|kv-lookup:get_ratio=0.3|stress':
        '51db277f07fb6bb9c91256701af0bc907c820b29f4361b9e93d0ba690db414df',
    'ZnG|kv-lookup:get_ratio=0.3|stress':
        '23196087d46cf079b57b044c67747200fb93e71e5119d6065ebe9759e27e8d9e',
}


#: One paper-scale cell: ``ZnG|betw-back`` of the ``fig10`` preset at scale
#: 1.0, seed 1.  It pins a record of 23,447 ``request_latency`` samples, about
#: 25 times the 954 that the largest cell of the grid above draws.
PAPER_SCALE_SPEC = get_preset("fig10").spec(
    platforms=["ZnG"], workloads=["betw-back"], scale=1.0, seed=1)
PAPER_SCALE_EXPECTED = {
    'ZnG|betw-back|default':
        'dbd2fe60b86c841008dab776a564cd38d2113967e63c37b8ceaad153869a73d4',
}


def _cell_id(cell) -> str:
    return f"{cell.platform}|{cell.workload}|{cell.override_set.label}"


def record_digest(cell) -> str:
    result = GPUSSDPlatform.build(cell.platform, cell.resolved_config()).run(
        build_cell_trace(cell))
    canonical = json.dumps(result.to_record(), sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


@pytest.mark.parametrize("cell", SPEC.cells(), ids=_cell_id)
def test_record_digest_is_pinned(cell):
    assert record_digest(cell) == EXPECTED[_cell_id(cell)]


def test_every_cell_is_pinned():
    assert sorted(EXPECTED) == sorted(_cell_id(cell) for cell in SPEC.cells())


@pytest.mark.parametrize("cell", PAPER_SCALE_SPEC.cells(), ids=_cell_id)
def test_paper_scale_record_digest_is_pinned(cell):
    assert record_digest(cell) == PAPER_SCALE_EXPECTED[_cell_id(cell)]


if __name__ == "__main__":
    for spec in (SPEC, PAPER_SCALE_SPEC):
        for cell in spec.cells():
            print(f"    {_cell_id(cell)!r}:\n        {record_digest(cell)!r},")
