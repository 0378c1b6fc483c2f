"""The bit-level CAM of Fig. 7b, the reference model for the LPMT.

``repro.core.lpmt`` models log-page remapping as a dict keyed by ``(data
block, page index)``.  The mechanism the paper describes is a programmable
row decoder: each wordline connects to 2N flash cells and 4N bitlines (A0..AN,
B0..BN, A'0..A'N, B'0..B'N), where N is the physical address length.  A write
programs the page-index bits into the cells through B/B'; a search is a
two-phase CAM operation (pre-charge, then compare through A/A') that
discharges the matching wordline.  :class:`ProgrammableDecoderCAM` models the
cells bit by bit, and ``TestEquivalenceWithLPMT`` holds the LPMT to it.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.lpmt import LogPageMappingTable


@dataclass
class CAMRow:
    """One programmable-decoder wordline storing an N-bit key."""

    wordline: int
    #: Stored key bits (programmed via the B / B' bitlines).
    bits: List[int] = field(default_factory=list)
    valid: bool = False
    #: The log page this row selects when it matches.
    payload: int = 0

    def program(self, key_bits: List[int], payload: int) -> None:
        self.bits = list(key_bits)
        self.payload = payload
        self.valid = True


class ProgrammableDecoderCAM:
    """A content-addressable programmable row decoder for one log block.

    ``address_bits`` is N (the physical address length); the decoder has as
    many wordlines as the flash block has pages.
    """

    def __init__(self, pages_per_block: int, address_bits: int = 16) -> None:
        self.pages_per_block = pages_per_block
        self.address_bits = address_bits
        self.rows: List[CAMRow] = [CAMRow(wordline=i) for i in range(pages_per_block)]
        self.next_free_row = 0
        self.searches = 0
        self.matches = 0
        self.programs = 0

    # -- key encoding ---------------------------------------------------------
    def encode_key(self, pdbn: int, page_index: int) -> List[int]:
        """Encode (data block, page index) into an N-bit key (MSB first)."""
        key = (pdbn << (self.address_bits // 2)) | (
            page_index & ((1 << (self.address_bits // 2)) - 1)
        )
        return [(key >> bit) & 1 for bit in range(self.address_bits - 1, -1, -1)]

    # -- programming (write, Figure 7b step 1-3) ------------------------------
    def program(self, pdbn: int, page_index: int) -> int:
        """Program a free wordline with the key; return the allocated page.

        The paper's steps: activate the wordline for the free page, drive the
        page-index bits onto B/B' to program the cells, and protect other rows.
        Re-programming the same key allocates a new wordline (in-order
        programming), and the CAM search returns the most recent match.
        """
        if self.next_free_row >= self.pages_per_block:
            raise RuntimeError("programmable decoder is full")
        row = self.rows[self.next_free_row]
        row.program(self.encode_key(pdbn, page_index), payload=self.next_free_row)
        self.next_free_row += 1
        self.programs += 1
        return row.payload

    # -- searching (read, Figure 7b phase 1-2) --------------------------------
    def search(self, pdbn: int, page_index: int) -> Optional[int]:
        """Two-phase CAM search; return the payload of the latest match.

        Phase 1 pre-charges all wordlines high.  Phase 2 applies the query bits
        to A/A'; a row whose stored bits all match discharges its wordline.
        With in-order programming the latest matching row wins.
        """
        self.searches += 1
        query = self.encode_key(pdbn, page_index)
        match_payload: Optional[int] = None
        # Phase 1: all wordlines charged high (conceptually).  Phase 2: compare.
        for row in self.rows[: self.next_free_row]:
            if not row.valid:
                continue
            if self._row_matches(row.bits, query):
                # A matching row discharges; later rows override earlier ones.
                match_payload = row.payload
        if match_payload is not None:
            self.matches += 1
        return match_payload

    @staticmethod
    def _row_matches(stored: List[int], query: List[int]) -> bool:
        """A CAM row matches iff every stored bit equals the query bit."""
        return stored == query

    # -- state ----------------------------------------------------------------
    @property
    def is_full(self) -> bool:
        return self.next_free_row >= self.pages_per_block

    @property
    def occupancy(self) -> int:
        return self.next_free_row

    def reset(self) -> None:
        for row in self.rows:
            row.valid = False
            row.bits = []
        self.next_free_row = 0
        self.searches = 0
        self.matches = 0
        self.programs = 0


class TestKeyEncoding:
    def test_encode_length(self):
        cam = ProgrammableDecoderCAM(pages_per_block=8, address_bits=16)
        bits = cam.encode_key(3, 5)
        assert len(bits) == 16
        assert all(b in (0, 1) for b in bits)

    def test_distinct_keys_distinct_encodings(self):
        cam = ProgrammableDecoderCAM(pages_per_block=8)
        assert cam.encode_key(1, 0) != cam.encode_key(0, 1)
        assert cam.encode_key(2, 3) != cam.encode_key(2, 4)


class TestProgramSearch:
    def test_program_then_search(self):
        cam = ProgrammableDecoderCAM(pages_per_block=8)
        page = cam.program(3, 5)
        assert cam.search(3, 5) == page

    def test_search_miss(self):
        cam = ProgrammableDecoderCAM(pages_per_block=8)
        assert cam.search(1, 1) is None

    def test_in_order_allocation(self):
        cam = ProgrammableDecoderCAM(pages_per_block=8)
        first = cam.program(0, 0)
        second = cam.program(0, 1)
        assert second == first + 1

    def test_rewrite_returns_latest(self):
        cam = ProgrammableDecoderCAM(pages_per_block=8)
        cam.program(0, 0)
        latest = cam.program(0, 0)
        assert cam.search(0, 0) == latest

    def test_full_decoder_raises(self):
        cam = ProgrammableDecoderCAM(pages_per_block=2)
        cam.program(0, 0)
        cam.program(0, 1)
        assert cam.is_full
        with pytest.raises(RuntimeError):
            cam.program(0, 2)

    def test_statistics(self):
        cam = ProgrammableDecoderCAM(pages_per_block=8)
        cam.program(0, 0)
        cam.search(0, 0)
        cam.search(9, 9)
        assert cam.programs == 1
        assert cam.searches == 2
        assert cam.matches == 1

    def test_occupancy_and_reset(self):
        cam = ProgrammableDecoderCAM(pages_per_block=8)
        cam.program(0, 0)
        assert cam.occupancy == 1
        cam.reset()
        assert cam.occupancy == 0
        assert cam.search(0, 0) is None


class TestCAMRow:
    def test_program_sets_valid(self):
        row = CAMRow(wordline=0)
        row.program([1, 0, 1], payload=7)
        assert row.valid
        assert row.payload == 7
        assert row.bits == [1, 0, 1]


class TestEquivalenceWithLPMT:
    """The bit-level CAM must behave like the logical LPMT abstraction."""

    def test_matches_lpmt_semantics(self):
        cam = ProgrammableDecoderCAM(pages_per_block=16)
        lpmt = LogPageMappingTable(plbn=0, pages_per_block=16)
        operations = [(0, 0), (1, 2), (0, 0), (3, 3), (1, 2)]
        for pdbn, page_index in operations:
            cam_page = cam.program(pdbn, page_index)
            lpmt_page = lpmt.program(pdbn, page_index)
            assert cam_page == lpmt_page
        for pdbn, page_index in {(0, 0), (1, 2), (3, 3)}:
            assert cam.search(pdbn, page_index) == lpmt.search(pdbn, page_index)


    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=40
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_lpmt_agrees_with_cam_until_full(self, ops):
        cam = ProgrammableDecoderCAM(pages_per_block=16)
        lpmt = LogPageMappingTable(plbn=0, pages_per_block=16)
        for pdbn, page_index in ops:
            if cam.is_full:
                with pytest.raises(RuntimeError):
                    lpmt.program(pdbn, page_index)
                break
            assert lpmt.program(pdbn, page_index) == cam.program(pdbn, page_index)
        assert lpmt.is_full == cam.is_full
        for pdbn in range(8):
            for page_index in range(8):
                assert lpmt.search(pdbn, page_index) == cam.search(pdbn, page_index)

class TestProperties:
    @given(
        ops=st.lists(
            st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=1, max_size=30
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_latest_write_wins(self, ops):
        cam = ProgrammableDecoderCAM(pages_per_block=64)
        last_page = {}
        for pdbn, page_index in ops:
            last_page[(pdbn, page_index)] = cam.program(pdbn, page_index)
        for key, expected in last_page.items():
            assert cam.search(*key) == expected
