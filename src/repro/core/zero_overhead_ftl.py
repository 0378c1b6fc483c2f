"""The zero-overhead FTL (Section IV-A).

The conventional SSD firmware is replaced by three cooperating structures:

* the block-granular, read-only **DBMT** inside the MMU (cached by the TLB),
* a per-log-block **LPMT** realised in the programmable row decoders,
* the **LBMT** in GPU shared memory that maps groups of data blocks to their
  shared physical log block, and
* a GPU **helper thread** that performs garbage collection and wear levelling
  when a log block fills up.

Reads translate through the DBMT (plus a CAM search in the row decoder to
catch re-written pages); writes are redirected to the next in-order page of
the group's log block.  Neither path involves an SSD controller.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import FTLConfig, ZNANDConfig
from repro.core.dbmt import DataBlockMappingTable, DBMTEntry
from repro.core.lbmt import LogBlockMappingTable
from repro.core.lpmt import ProgrammableRowDecoder
from repro.ssd.geometry import FlashGeometry
from repro.ssd.znand import ZNANDArray


class ZeroOverheadFTL:
    """DBMT + LPMT + LBMT address translation with helper-thread GC."""

    def __init__(
        self,
        array: ZNANDArray,
        config: Optional[FTLConfig] = None,
    ) -> None:
        self.array = array
        self.geometry: FlashGeometry = array.geometry
        self.znand_config: ZNANDConfig = array.config
        self.config = config or FTLConfig()

        self.dbmt = DataBlockMappingTable(self.config.dbmt_size_bytes)
        self.lbmt = LogBlockMappingTable(self.config.data_blocks_per_log_block)
        # Row decoders materialise on first touch: one per plane exists
        # physically, but a cell only exercises the planes its footprint
        # maps to, and eagerly building 1024 of them per platform dominated
        # construction at smoke scales.
        self.row_decoders: Dict[int, ProgrammableRowDecoder] = {}

        # Physical block allocation: data blocks come from the bottom of each
        # plane, log blocks from the over-provisioned top fraction.
        self._op_blocks_per_plane = max(
            1, int(self.geometry.blocks_per_plane * self.znand_config.overprovisioning_ratio)
        )
        self._data_blocks_per_plane = self.geometry.blocks_per_plane - self._op_blocks_per_plane
        self._next_data_block = 0
        self._free_data_blocks: List[int] = []
        self._next_log_block_per_plane: Dict[int, int] = {}
        self._free_log_blocks_per_plane: Dict[int, List[int]] = {}

        # helper-thread GC is attached after construction to avoid a cycle.
        self.helper_gc = None  # type: Optional[object]

        # Statistics.
        self.reads_translated = 0
        self.reads_from_log = 0
        self.writes_allocated = 0
        self.gc_merges = 0

    # ------------------------------------------------------------------
    # Physical block allocation helpers
    # ------------------------------------------------------------------
    def pages_per_block(self) -> int:
        return self.geometry.pages_per_block

    def _allocate_data_block(self) -> int:
        """Allocate a physical data block, reusing GC-freed blocks first."""
        if self._free_data_blocks:
            return self._free_data_blocks.pop()
        index = self._next_data_block
        self._next_data_block += 1
        plane = index % self.geometry.total_planes
        block_in_plane = index // self.geometry.total_planes
        if block_in_plane >= self._data_blocks_per_plane:
            raise RuntimeError("out of physical data blocks")
        return self.geometry.block_id(
            self.geometry.decompose(self.geometry.ppn_of(plane, block_in_plane, 0))
        )

    def release_data_block(self, flat_block_id: int) -> None:
        """Return an erased data block to the free pool (called by the helper GC)."""
        self._free_data_blocks.append(flat_block_id)

    def _allocate_log_block(self, preferred_plane: int) -> int:
        """Allocate a log block from the over-provisioned space of a plane."""
        plane = preferred_plane % self.geometry.total_planes
        free = self._free_log_blocks_per_plane.setdefault(
            plane,
            list(
                range(
                    self._data_blocks_per_plane,
                    self.geometry.blocks_per_plane,
                )
            ),
        )
        if not free:
            # Fall back to any plane that still has over-provisioned blocks.
            for other_plane, other_free in self._free_log_blocks_per_plane.items():
                if other_free:
                    plane, free = other_plane, other_free
                    break
            else:
                raise RuntimeError("out of over-provisioned log blocks")
        block_in_plane = free.pop(0)
        return plane * self.geometry.blocks_per_plane + block_in_plane

    def release_log_block(self, flat_block_id: int) -> None:
        """Return an erased log block to its plane's free pool."""
        plane = flat_block_id // self.geometry.blocks_per_plane
        block_in_plane = flat_block_id % self.geometry.blocks_per_plane
        self._free_log_blocks_per_plane.setdefault(plane, []).append(block_in_plane)

    # ------------------------------------------------------------------
    # Flat block id <-> flash coordinates
    # ------------------------------------------------------------------
    def block_plane(self, flat_block_id: int) -> int:
        return flat_block_id // self.geometry.blocks_per_plane

    def block_in_plane(self, flat_block_id: int) -> int:
        return flat_block_id % self.geometry.blocks_per_plane

    def ppn_in_block(self, flat_block_id: int, page_index: int) -> int:
        plane, block = divmod(flat_block_id, self.geometry.blocks_per_plane)
        return self.geometry.ppn_of(plane, block, page_index)

    def row_decoder(self, plane: int) -> ProgrammableRowDecoder:
        """The (lazily created) programmable row decoder of one plane."""
        decoder = self.row_decoders.get(plane)
        if decoder is None:
            decoder = self.row_decoders[plane] = ProgrammableRowDecoder(
                plane, self.geometry.pages_per_block
            )
        return decoder

    def decoder_of_block(self, flat_block_id: int) -> ProgrammableRowDecoder:
        return self.row_decoder(self.block_plane(flat_block_id))

    # ------------------------------------------------------------------
    # Mapping setup (loading the data set into flash)
    # ------------------------------------------------------------------
    def map_virtual_block(self, vbn: int) -> DBMTEntry:
        """Map one virtual block to a fresh data block and its group log block."""
        existing = self.dbmt.lookup(vbn)
        if existing is not None:
            return existing
        pdbn = self._allocate_data_block()
        group_plane = self.block_plane(pdbn)
        plbn = self.lbmt.log_block_for(pdbn)
        if plbn is None:
            plbn = self._allocate_log_block(group_plane)
        self.lbmt.assign(pdbn, plbn)
        return self.dbmt.install(vbn=vbn, lbn=vbn, pdbn=pdbn, plbn=plbn)

    def setup_mapping(self, total_virtual_pages: int) -> int:
        """Pre-map a contiguous virtual footprint; returns blocks mapped."""
        pages_per_block = self.pages_per_block()
        num_blocks = (total_virtual_pages + pages_per_block - 1) // pages_per_block
        for vbn in range(num_blocks):
            self.map_virtual_block(vbn)
        return num_blocks

    # ------------------------------------------------------------------
    # Address translation
    # ------------------------------------------------------------------
    def entry_for_page(self, virtual_page: int) -> DBMTEntry:
        vbn = virtual_page // self.geometry.pages_per_block
        entry = self.dbmt.lookup(vbn)
        if entry is None:
            entry = self.map_virtual_block(vbn)
        return entry

    def translate_read(self, virtual_page: int) -> int:
        """The PPN holding the latest copy of a virtual page.

        ``reads_from_log`` counts the translations the log block served.
        The DBMT lookup, the row decoder's LPMT search and the PPN
        arithmetic run inlined in this one body; keep in lockstep with
        DataBlockMappingTable.lookup, ZeroOverheadFTL.row_decoder,
        ProgrammableRowDecoder.search, LogPageMappingTable.search,
        ZeroOverheadFTL.ppn_in_block and FlashGeometry.ppn_of.
        """
        self.reads_translated += 1
        geometry = self.geometry
        pages_per_block = geometry.pages_per_block
        vbn, page_index = divmod(virtual_page, pages_per_block)
        dbmt = self.dbmt
        dbmt.lookups += 1
        entry = dbmt._entries.get(vbn)
        if entry is None:
            dbmt.misses += 1
            entry = self.map_virtual_block(vbn)
        # The log block's row decoder and its LPMT: a CAM search for a
        # re-written copy of the page.
        blocks_per_plane = geometry.blocks_per_plane
        plbn = entry.plbn
        pdbn = entry.pdbn
        plane, block = divmod(plbn, blocks_per_plane)
        decoder = self.row_decoders.get(plane)
        if decoder is None:
            decoder = self.row_decoder(plane)
        table = decoder._tables.get(plbn)
        if table is None:
            table = decoder.table_for(plbn)
        table.searches += 1
        remapped = table._entries.get((pdbn, page_index))
        if remapped is not None:
            table.hits += 1
            self.reads_from_log += 1
            page = remapped.log_page
        else:
            plane, block = divmod(pdbn, blocks_per_plane)
            page = page_index
        planes_per_die = geometry.planes_per_die
        dies = geometry.dies_per_channel
        channel, rest = divmod(plane, dies * planes_per_die)
        die, plane_in_die = divmod(rest, planes_per_die)
        remainder = (block * pages_per_block + page) * planes_per_die + plane_in_die
        return (remainder * dies + die) * geometry.channels + channel

    def allocate_write(self, virtual_page: int, now: float) -> Tuple[int, float, bool]:
        """Reserve a log page for a write; run the helper GC if the log block is full.

        Returns ``(ppn, ready_cycle, gc_performed)``: the log page, the cycle
        after any merge, and whether the helper GC merged the log block.  The
        caller is responsible for charging the actual flash program (either
        immediately, for ZnG-base, or lazily when a flash register evicts).
        """
        self.writes_allocated += 1
        page_index = virtual_page % self.geometry.pages_per_block
        entry = self.entry_for_page(virtual_page)
        decoder = self.decoder_of_block(entry.plbn)
        table = decoder.table_for(entry.plbn)
        time = now
        gc_performed = False
        if table.is_full:
            if self.helper_gc is None:
                raise RuntimeError("log block full and no helper GC attached")
            time = self.helper_gc.merge_group(entry.plbn, time)
            gc_performed = True
            self.gc_merges += 1
            # The entry's log block may have been replaced by the merge.
            entry = self.entry_for_page(virtual_page)
            decoder = self.decoder_of_block(entry.plbn)
            table = decoder.table_for(entry.plbn)
        log_page = decoder.program(entry.plbn, entry.pdbn, page_index)
        return self.ppn_in_block(entry.plbn, log_page), time, gc_performed

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    @property
    def dbmt_size_bytes(self) -> int:
        return self.dbmt.size_bytes

    @property
    def log_read_fraction(self) -> float:
        if self.reads_translated == 0:
            return 0.0
        return self.reads_from_log / self.reads_translated
