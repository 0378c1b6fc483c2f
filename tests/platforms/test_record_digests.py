"""Pinned digests of complete result records: the bit-identity contract.

Every platform runs two workloads at a small scale, each at the Table I
defaults and under a ``stress`` point that shrinks the flash geometry, the
register pools and both L2s.  The stress point drives the paths the report
goldens barely touch: register evictions, helper-GC merges, thrashing spills
into pinned L2 lines, L2 evictions feeding the prefetch access monitor.

Each cell's canonical ``PlatformResult.to_record()`` is hashed.  A hot-path
change that moves any simulated number, or that adds a counter the record did
not have before (even a zero-valued one), changes a digest.  Regenerate only
for an intended model change::

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
        'e07e162d12759cab8c9abeaf652af8b351d8d8095ce09c90c897be4d4b8bd39c',
    'Hetero|betw-back|default':
        '61e800a7c9dbcf29ff05b1b15713813b6c4c84c04c4d21bdd1ded7884722e76a',
    'HybridGPU|betw-back|default':
        'c83266e8ec04e662f0b635d7cb247d59d78d1ef54226608a312adf0d0add0064',
    'Optane|betw-back|default':
        '794f0d04cf20942d805a29ee9b82e97818ca3b3d133df2edd6e7c949fd44d861',
    'ZnG-base|betw-back|default':
        '604c696fe97ada917fd51612eff148b80792c853f39ab4a72547c4a1dd1602b6',
    'ZnG-rdopt|betw-back|default':
        '5e8c181e3acabb86dfd7df14f15d1bc4eee4905a1cb83d460513cda80db84192',
    'ZnG-wropt|betw-back|default':
        'a9f6786ec53d658a5d92b201136d527a3efb5d9732c0b7afa1c92e97fb52e581',
    'ZnG|betw-back|default':
        'a34b88a21f4bb25573b5045cc5833e844b34999cec86b99fb37b10b17160b864',
    'GDDR5|kv-lookup:get_ratio=0.3|default':
        '9eb10c7ddef7c27c1107ca494dac869d35e1a82c21331374ca50effe050332fc',
    'Hetero|kv-lookup:get_ratio=0.3|default':
        '87e2b768733898d1f5ce43a2f66caa0d3d6dd16516730302f1a67fc859b8638b',
    'HybridGPU|kv-lookup:get_ratio=0.3|default':
        '97b7e980195e7197765be8e09805648fa204b7616773262dbef34cc404436fa1',
    'Optane|kv-lookup:get_ratio=0.3|default':
        '3e242278d9c4eced0b6f805c1f2bfa30adec637a615acceb8a05e474e95ec429',
    'ZnG-base|kv-lookup:get_ratio=0.3|default':
        '033a40a73a47ad44b84604831016393236f2891a67a15f8bb3c1a192f16b290f',
    'ZnG-rdopt|kv-lookup:get_ratio=0.3|default':
        '2ffd490b1668b11a5a12cefc38ce752e29920f047d4e1cd45f66181da4db0821',
    'ZnG-wropt|kv-lookup:get_ratio=0.3|default':
        'e576a7c10775da9b577e05082b928f1458543fab708ca92d2ede6efae7ab335f',
    'ZnG|kv-lookup:get_ratio=0.3|default':
        '2ebd073f2a80d6db4daf23ba01fbb736ea2d1de5b72d04f8f73693f9932eacc0',
    'GDDR5|betw-back|stress':
        '64b6df85558c9293a593cfd2404bbc498ff3d86a91dc34e342c63ea2462bb340',
    'Hetero|betw-back|stress':
        '6e17b5200a2ed146aebbd3cbc8892957e4930fc623b6be4e50b49b605cf68c10',
    'HybridGPU|betw-back|stress':
        '38f498f5c1c6eb3515f961eb231376ae2217398200c19711d24dcb7379f5d0c2',
    'Optane|betw-back|stress':
        '47e7b07261b9973f9e9031521a48c92b2a1c42a6213bbe4840986a11d1ce16ab',
    'ZnG-base|betw-back|stress':
        '52382c82b297261816a4520d9130c54c147eecf25ad26682a0a2245fb33df498',
    'ZnG-rdopt|betw-back|stress':
        '1b1f2c925d9bb19d3a86c33f317090c15ff6195ee84e74cdc202d1e57f230060',
    'ZnG-wropt|betw-back|stress':
        'bf8f1409b082949506bab13a7c451493ae0655fd9ebda461eeca9beb523c2ddc',
    'ZnG|betw-back|stress':
        '0102e2cf8d75033c4ae4175a1403da60e69ec4fb23f000fb92fdffd6c04f31e0',
    'GDDR5|kv-lookup:get_ratio=0.3|stress':
        '9eb10c7ddef7c27c1107ca494dac869d35e1a82c21331374ca50effe050332fc',
    'Hetero|kv-lookup:get_ratio=0.3|stress':
        '87e2b768733898d1f5ce43a2f66caa0d3d6dd16516730302f1a67fc859b8638b',
    'HybridGPU|kv-lookup:get_ratio=0.3|stress':
        '11f49525c9948802396a41a3609b0c64bd520c4b921d87977d534c432fc7806a',
    'Optane|kv-lookup:get_ratio=0.3|stress':
        '3e242278d9c4eced0b6f805c1f2bfa30adec637a615acceb8a05e474e95ec429',
    'ZnG-base|kv-lookup:get_ratio=0.3|stress':
        'ecd4d36abecc2fb0d30eb17a521a39d676a89a62d329f733618caafdf7fc9a09',
    'ZnG-rdopt|kv-lookup:get_ratio=0.3|stress':
        'a37370fca7c18f6b6deee061b4e76b2c7fedbe5b007579c7a3dd1263f1e5acfd',
    'ZnG-wropt|kv-lookup:get_ratio=0.3|stress':
        'd0e62c2ab1d111a599cd300cc3373e74849924515967d73d7b83e8d2c27b3db0',
    'ZnG|kv-lookup:get_ratio=0.3|stress':
        'b58d8ebe8432298b8e44ed73ee267d15cf2e80ad4e2059c1a21c17aa816b3d5d',
}


#: One paper-scale cell: ``ZnG|betw-back`` of the ``fig10`` preset at scale
#: 1.0, seed 1.  It pins a record of 23,447 ``request_latency`` samples, about
#: 25 times the 954 that the largest cell of the grid above draws.
PAPER_SCALE_SPEC = get_preset("fig10").spec(
    platforms=["ZnG"], workloads=["betw-back"], scale=1.0, seed=1)
PAPER_SCALE_EXPECTED = {
    'ZnG|betw-back|default':
        'd932cd077c3502ca28610b43768e820d4b7559289326dca2f9c967c1fb9edd8b',
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
