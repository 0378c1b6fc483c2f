"""End-to-end data-integrity tests for the zero-overhead FTL.

The timing model moves no bytes, so :class:`IntegrityModel` keeps a value
per physical page beside the FTL and routes each read and write through the
FTL's own DBMT/LPMT/helper-GC translation.  The tests check that ZnG keeps
read-after-write semantics across log-block redirection and GC merges.
"""

import random
from typing import Dict, Optional

from hypothesis import given, settings, strategies as st

from repro.config import FTLConfig, ZNANDConfig
from repro.core.helper_gc import HelperThreadGC
from repro.core.zero_overhead_ftl import ZeroOverheadFTL
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.znand import ZNANDArray


class IntegrityModel:
    """A functional shadow of the FTL's data, keyed by physical page.

    A write stores its value at the log page the FTL allocates; a read
    fetches the value wherever the FTL says the latest copy is.  The helper
    GC's page copy is wrapped so that a value follows its page in a merge.
    """

    def __init__(self, ftl: ZeroOverheadFTL) -> None:
        self.ftl = ftl
        self.ppn_values: Dict[int, int] = {}
        helper = ftl.helper_gc
        original_copy = helper.copy_page

        def traced_copy(source_ppn, target_ppn, now):
            if source_ppn in self.ppn_values:
                self.ppn_values[target_ppn] = self.ppn_values[source_ppn]
            return original_copy(source_ppn, target_ppn, now)

        helper.copy_page = traced_copy

    def write(self, virtual_page: int, value: int, now: float = 0.0) -> None:
        ppn, _, _ = self.ftl.allocate_write(virtual_page, now)
        self.ppn_values[ppn] = value

    def read(self, virtual_page: int) -> Optional[int]:
        return self.ppn_values.get(self.ftl.translate_read(virtual_page))


def make_ftl(pages_per_block=8, blocks=16, data_blocks_per_log_block=4):
    config = ZNANDConfig(
        channels=2, dies_per_package=1, planes_per_die=2,
        blocks_per_plane=blocks, pages_per_block=pages_per_block,
    )
    array = ZNANDArray(config, network=FlashNetwork(config, "mesh"))
    ftl = ZeroOverheadFTL(array, FTLConfig(data_blocks_per_log_block=data_blocks_per_log_block))
    ftl.helper_gc = HelperThreadGC(ftl, array)
    return ftl


class TestBasicIntegrity:
    def test_read_after_write(self):
        ftl = make_ftl()
        ftl.setup_mapping(16)
        model = IntegrityModel(ftl)
        model.write(3, value=42)
        assert model.read(3) == 42

    def test_overwrite_returns_latest(self):
        ftl = make_ftl()
        ftl.setup_mapping(16)
        model = IntegrityModel(ftl)
        model.write(3, value=1)
        model.write(3, value=2)
        model.write(3, value=3)
        assert model.read(3) == 3

    def test_independent_pages(self):
        ftl = make_ftl()
        ftl.setup_mapping(16)
        model = IntegrityModel(ftl)
        model.write(0, value=100)
        model.write(1, value=200)
        assert model.read(0) == 100
        assert model.read(1) == 200

    def test_unwritten_page_reads_none(self):
        ftl = make_ftl()
        ftl.setup_mapping(16)
        model = IntegrityModel(ftl)
        assert model.read(5) is None


class TestIntegrityThroughGC:
    def test_values_survive_gc_merges(self):
        ftl = make_ftl(pages_per_block=4, blocks=32)
        ftl.setup_mapping(16)
        model = IntegrityModel(ftl)
        rng = random.Random(1)
        expected = {}
        for step in range(300):
            vp = rng.randint(0, 15)
            value = rng.randint(0, 10_000_000)
            model.write(vp, value, now=step * 1000.0)
            expected[vp] = value
        assert ftl.gc_merges > 0, "test should exercise GC"
        for vp, value in expected.items():
            assert model.read(vp) == value


class TestProperties:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 1_000_000)),
            min_size=1, max_size=60,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_last_write_wins(self, ops):
        ftl = make_ftl(pages_per_block=8, blocks=32)
        ftl.setup_mapping(8)
        model = IntegrityModel(ftl)
        expected = {}
        for i, (vp, value) in enumerate(ops):
            model.write(vp, value, now=i * 1000.0)
            expected[vp] = value
        for vp, value in expected.items():
            assert model.read(vp) == value
