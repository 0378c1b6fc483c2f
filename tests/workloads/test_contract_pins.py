"""Pinned digests of what the trace knobs feed: traces, sweep keys, trace files.

A refactor of how the trace knobs (``scale``, ``seed``, ``num_sms``,
``warps_per_sm``, ``memory_instructions_per_warp``) are declared or passed
must leave every generated trace, every sweep fingerprint and cache key and
every recorded trace file byte-identical, so manifests, caches and trace
files written before it still resume, merge, replay and verify.

The pins go through the surfaces that outlive such a refactor: the sweep
spec, ``build_cell_trace``, the ``workloads --record`` command and
``read_trace_file``.  Every trace knob is passed explicitly and set off its
default, so a knob dropped on the way to the generator moves a digest.
Regenerate only for an intended generator or schema change::

    PYTHONPATH=src python tests/workloads/test_contract_pins.py
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.__main__ import main
from repro.configspace.presets import get_preset
from repro.runner.spec import SweepSpec, build_cell_trace
from repro.workloads.io import trace_to_dict
from repro.workloads.tracefile import read_trace_file

KNOBS = dict(scale=0.25, seed=5, num_sms=8, warps_per_sm=3,
             memory_instructions_per_warp=40)

#: The same knobs as ``workloads --record`` flags.
RECORD_FLAGS = ["--scale", "0.25", "--seed", "5", "--sms", "8",
                "--warps", "3", "--mem-insts", "40"]

TRACE_TOKENS = ["betw", "betw-back", "kv-lookup:get_ratio=0.3",
                # A write-intensive Table II application, a PUT-only
                # keyspace and a mix with a parametric read half.
                "gaus", "kv-lookup:get_ratio=0.0", "kv-lookup-back",
                # Zipf alpha exactly 1, the inverse CDF's middle branch.
                "kv-lookup:zipf=1.0",
                # Footprints past 2**32 pages: each warp's stream page is a
                # bounded draw over more than 2**32 values, which takes
                # whole 64-bit outputs instead of 32-bit halves.
                "betw:footprint_pages=34359738368",
                "kv-lookup:keyspace_pages=68719476736"]

TRACE_DIGESTS = {
    "betw":
        "d741c8d103f7390f21ce04c66fd6a4e085d4700ea5936483eb8fc870466798cc",
    "betw-back":
        "b96320c5d32b49a51b24e8ad0ce7929ee3d9acf0b21c598bf12bbec95b889417",
    "kv-lookup:get_ratio=0.3":
        "1844c1e364061cca0f6e9bc3c1ffdc088dd9ed71b410ab76b3027c24ddf6935f",
    "gaus":
        "1190fceff6df5c9726f43becbc11e62d2b2c4b5b9954aa759a732d03bb59f5e5",
    "kv-lookup:get_ratio=0.0":
        "913187e1a03f280f42c6e136698b01891f0de81fd5bfda57e0599b443358e54f",
    "kv-lookup-back":
        "c506898df52eb65e403749ebb97e32eec4bbcf6f31835d8ea7f729c526e4528c",
    "kv-lookup:zipf=1.0":
        "04ee7b4ed41736502ad2f585b4199fe17f2910f76e7e95542f290c0e08fa93ef",
    "betw:footprint_pages=34359738368":
        "6900c3179d11dd15d2e33f4dd1ac1919d2ef4bcb4aeebb472e5b706467471649",
    "kv-lookup:keyspace_pages=68719476736":
        "73ec596f23942b0c67b8c624fed1fc1c2d011b4daf5664d4e8d8b68d15786204",
}

FIG10_FINGERPRINT = (
    "99a0392866006ec02cc670d576c21af63925f7985c54df6595cefcf92794fa3f")
FIG10_CELL = "ZnG|betw-back"
FIG10_CELL_KEY = (
    "b10b4b8b88136e076db7bc687927db5594dccb307e69e55ec46049df1e9c992d")

#: The token ``test_replayed_trace_digest_is_pinned`` records and replays.
REPLAY_TOKEN = "betw-back"

#: ``content_hash`` of ``workloads --record kv-lookup:zipf=1.1 --scale 0.1``.
RECORDED_CONTENT_HASH = (
    "5720485be50e2c15169c4e7d960647bc4093e4112eb6b3bf63fa1feda7cb2f4a")


def trace_digest(trace) -> str:
    payload = json.dumps(trace_to_dict(trace), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def token_trace(token: str):
    spec = SweepSpec.create(platforms=["ZnG"], workloads=[token], **KNOBS)
    return build_cell_trace(spec.cells()[0])


def record(token: str, path, flags) -> str:
    assert main(["workloads", "--record", token, "--out", str(path)]
                + flags) == 0
    return read_trace_file(path).content_hash


def fig10_keys():
    spec = get_preset("fig10").spec(scale=0.1)
    cell = next(cell for cell in spec.cells()
                if f"{cell.platform}|{cell.workload}" == FIG10_CELL)
    return spec.fingerprint(), cell.cache_key()


@pytest.mark.parametrize("token", TRACE_TOKENS)
def test_generated_trace_digest_is_pinned(token):
    assert trace_digest(token_trace(token)) == TRACE_DIGESTS[token]


def test_replayed_trace_digest_is_pinned(tmp_path, capsys):
    # A recorded trace replays to exactly the trace its token generates.
    path = tmp_path / "replay.trace.json"
    record(REPLAY_TOKEN, path, RECORD_FLAGS)
    assert (trace_digest(token_trace(f"trace:{path}"))
            == TRACE_DIGESTS[REPLAY_TOKEN])


def test_fig10_spec_fingerprint_and_cell_key_are_pinned():
    assert fig10_keys() == (FIG10_FINGERPRINT, FIG10_CELL_KEY)


def test_recorded_content_hash_is_pinned(tmp_path, capsys):
    path = tmp_path / "kv.trace.json"
    assert record("kv-lookup:zipf=1.1", path,
                  ["--scale", "0.1"]) == RECORDED_CONTENT_HASH


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    import tempfile
    from pathlib import Path

    for token in TRACE_TOKENS:
        print(f"    {token!r}: {trace_digest(token_trace(token))!r},")
    fingerprint, key = fig10_keys()
    print(f"FIG10_FINGERPRINT = {fingerprint!r}")
    print(f"FIG10_CELL_KEY = {key!r}")
    with tempfile.TemporaryDirectory() as scratch:
        content_hash = record("kv-lookup:zipf=1.1", Path(scratch) / "kv.json",
                              ["--scale", "0.1"])
        print(f"RECORDED_CONTENT_HASH = {content_hash!r}")
