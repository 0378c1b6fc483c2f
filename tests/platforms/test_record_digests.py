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
        '8a8fc827b19af9c2b5524f5ac0ebdf1888dde4ad5b7c1934be1d6e2ecad0613b',
    'Hetero|betw-back|default':
        '24db232d9e68ffc50446d5186266b156e52f99c2f9a0342947bc23f6941d319f',
    'HybridGPU|betw-back|default':
        'ff97a25f49b1a932d58e98450feaa5952f3a02fcb22cfec48f29bd9756acd689',
    'Optane|betw-back|default':
        '594bd90d3d13c5bcd907904957030dee434f8f09373b43a1a480212d36cad0ab',
    'ZnG-base|betw-back|default':
        '58976823fdc9eacc396532b9c47a9abd9b4244a365bcff699659927cc54b465f',
    'ZnG-rdopt|betw-back|default':
        '0230a0fc5a35c492a187cb94a93dc3cc9f7014bb7c81cb4c7f51ddb0f238135e',
    'ZnG-wropt|betw-back|default':
        '273209a969bdc67f570c3755c0d8afba62e0e71747b2d8a901330aa4fa730a76',
    'ZnG|betw-back|default':
        '81a8f92da20cc5e1097da6be30e24690fb64e8b564546189eabcdfea2baa4137',
    'GDDR5|kv-lookup:get_ratio=0.3|default':
        'f34818eb0fbc51ef070d43f528ea97e4d92cee64c1a1279c41087b88034018ac',
    'Hetero|kv-lookup:get_ratio=0.3|default':
        'a7c877237c7c5f80b06ac5eb86450f15f5d33e14555ab23d62f5777f7ba5ea91',
    'HybridGPU|kv-lookup:get_ratio=0.3|default':
        'a0a435c61221b41acd9faf11adcfdb1aed78bbee2f7ad6feb483685b8679f119',
    'Optane|kv-lookup:get_ratio=0.3|default':
        'ba5b4db24cd9a63dbf3592887db8eaa60c07639b3ce351d8f80067431f15900d',
    'ZnG-base|kv-lookup:get_ratio=0.3|default':
        'ea73b7f6fbdc8383e081eef1120027217a9f5a31e7436777f72dfb57a6923b1f',
    'ZnG-rdopt|kv-lookup:get_ratio=0.3|default':
        'eeb61aa19e276e608e6955cc3e0fe17ba67b9d95e678f822b2910cdd76a2b0c4',
    'ZnG-wropt|kv-lookup:get_ratio=0.3|default':
        '7c1cbe35f9ed00b6f6b65765028605d5ab46e83e20ab21a16bc1bf896438c4fd',
    'ZnG|kv-lookup:get_ratio=0.3|default':
        '88fca93ba67df6a9bf1ea412e1aa38881623b9f8f68699f3f6bd952a0c80cebc',
    'GDDR5|betw-back|stress':
        '6c781792b866d499cd0c2a4172d6a42d5183ab96f8547c0694142f93aa10ce5c',
    'Hetero|betw-back|stress':
        'b81efc28d2388cde8208c0fedaa19965f7b72c60f23ed795b81c335b4170700b',
    'HybridGPU|betw-back|stress':
        '9e074e96612feee156ff7ed8e9f51d16a0c5ce997e6bf978453d31655564ca51',
    'Optane|betw-back|stress':
        '479be9ac7bb85e3634c11e1900f3cc54bbd3543d1f423613fe4529ec9ae64b70',
    'ZnG-base|betw-back|stress':
        'c2156b13d87f4f9eeaa3316e00427d5694ef4a13bb0b1395599b4f0c87eb2323',
    'ZnG-rdopt|betw-back|stress':
        '3dcf3f929694fcdc6774bdcb9a033e6b7c9c3b4440343e84324b1b033c1be019',
    'ZnG-wropt|betw-back|stress':
        '7a59cc1e92514227d78ff3c0bc34c71ca2a627980e9caadf2e98110c52bd86ae',
    'ZnG|betw-back|stress':
        '3761e0cf94ae7d1dfff1b56306f76db1fa416c3268681c4285bbee09e7fc11a9',
    'GDDR5|kv-lookup:get_ratio=0.3|stress':
        'f34818eb0fbc51ef070d43f528ea97e4d92cee64c1a1279c41087b88034018ac',
    'Hetero|kv-lookup:get_ratio=0.3|stress':
        'a7c877237c7c5f80b06ac5eb86450f15f5d33e14555ab23d62f5777f7ba5ea91',
    'HybridGPU|kv-lookup:get_ratio=0.3|stress':
        '1cb730cf477192b5bfad38e12cd6fb7dbb3bcabd9d41cc6a5c305128cbbed9c2',
    'Optane|kv-lookup:get_ratio=0.3|stress':
        'ba5b4db24cd9a63dbf3592887db8eaa60c07639b3ce351d8f80067431f15900d',
    'ZnG-base|kv-lookup:get_ratio=0.3|stress':
        '437bcacc88651bcd1013656a346fe2dee18e5653b63302a0cee4436a886cfe5e',
    'ZnG-rdopt|kv-lookup:get_ratio=0.3|stress':
        'c7f9ae1dd03aa59b99db617be8656abd101a796cbdce30bd5e3c3cf726c5fd40',
    'ZnG-wropt|kv-lookup:get_ratio=0.3|stress':
        '2b9890a8935c2972717f1a822ce2c84bbfcc757718b07c46cf5268212a72a738',
    'ZnG|kv-lookup:get_ratio=0.3|stress':
        'eae32c17adc95a40f6ede2b2717c475cf8863eed8fc4273b9fed2b06db1e9f8a',
}


#: One paper-scale cell: ``ZnG|betw-back`` of the ``fig10`` preset at scale
#: 1.0, seed 1.  It draws 23,447 ``request_latency`` samples, far past the
#: 2,048-sample reservoir, so Algorithm R's replacement step is pinned too;
#: the grid above stays below the reservoir.
PAPER_SCALE_SPEC = get_preset("fig10").spec(
    platforms=["ZnG"], workloads=["betw-back"], scale=1.0, seed=1)
PAPER_SCALE_EXPECTED = {
    'ZnG|betw-back|default':
        '87d83f79a65f4918abcf1bf06f5d71f3c8add726254dba52646aff39857dadcb',
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
