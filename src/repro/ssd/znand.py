"""The Z-NAND flash array: planes, blocks, pages, registers and timing.

Z-NAND characteristics captured here (Section II-B):

* page-granular access (4 KB pages, 384 pages/block),
* SLC timing — 3 us reads, 100 us programs, block erases,
* in-order programming within a block and erase-before-write,
* a small number of per-plane registers used as staging buffers,
* a parallel backbone: 16 channels x 8 dies x 8 planes.

The array books per-plane occupancy for array operations and the flash
network for data movement; valid/invalid page state and P/E wear are tracked
so the FTLs (firmware and zero-overhead) can run garbage collection and the
benches can report write asymmetry and WAF.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.config import GPU_FREQ_HZ, ZNANDConfig
from repro.sim.engine import Resource
from repro.ssd.flash_network import FlashNetwork
from repro.ssd.geometry import FlashGeometry


class PageState:
    """Per-page lifecycle used for GC accounting."""

    FREE = 0
    VALID = 1
    INVALID = 2


@dataclass
class BlockState:
    """Valid-page bookkeeping for one flash block."""

    next_free_page: int = 0
    valid_pages: int = 0
    erase_count: int = 0

    def is_full(self, pages_per_block: int) -> bool:
        return self.next_free_page >= pages_per_block


class PlaneResources:
    """List-like lazy pool of per-plane occupancy :class:`Resource` objects.

    The backbone has 16 x 8 x 8 = 1024 planes but a sweep cell only occupies
    the planes its footprint stripes onto; building every Resource eagerly
    dominated platform construction at smoke scales.  Iteration yields only
    the planes that were actually touched (untouched planes are idle by
    construction, so resets and busy-cycle sums are unaffected).
    """

    __slots__ = ("_count", "_resources")

    def __init__(self, count: int) -> None:
        self._count = count
        self._resources: Dict[int, Resource] = {}

    def __getitem__(self, plane_id: int) -> Resource:
        resource = self._resources.get(plane_id)
        if resource is None:
            if not 0 <= plane_id < self._count:
                raise IndexError(f"plane {plane_id} out of range (0..{self._count - 1})")
            resource = self._resources[plane_id] = Resource(f"plane{plane_id}", ports=1)
        return resource

    def __iter__(self):
        return iter(self._resources.values())

    def __len__(self) -> int:
        return self._count

    @property
    def touched(self) -> int:
        return len(self._resources)


class ZNANDArray:
    """The flash backbone with timing, registers and wear state."""

    #: Command/decode overhead of issuing one flash command, in cycles.
    COMMAND_OVERHEAD_CYCLES = 10.0

    def __init__(
        self,
        config: ZNANDConfig,
        network: Optional[FlashNetwork] = None,
    ) -> None:
        self.config = config
        self.geometry = FlashGeometry(config)
        self.network = network or FlashNetwork(config)
        # One occupancy resource per plane: a plane can perform a single read,
        # program or erase at a time.  Materialised on first touch.
        self.planes = PlaneResources(self.geometry.total_planes)
        # Per-plane register pools; their *contents* are managed by the write
        # cache (repro.core.register_cache), the array only limits concurrency
        # of register <-> array transfers per plane.
        self.registers_per_plane = config.registers_per_plane
        # Plane occupancy of one array operation, command overhead included.
        # The config is fixed, so these are computed once, not per operation.
        self.read_array_cycles = config.read_latency_cycles + self.COMMAND_OVERHEAD_CYCLES
        self.program_array_cycles = (
            config.program_latency_cycles + self.COMMAND_OVERHEAD_CYCLES)
        self.erase_array_cycles = config.erase_latency_cycles + self.COMMAND_OVERHEAD_CYCLES
        # State tracking.
        self._block_state: Dict[int, BlockState] = {}
        self._page_state: Dict[int, int] = {}
        # Statistics.
        self.page_reads = 0
        self.page_programs = 0
        self.block_erases = 0
        # Int lists, not numpy arrays: a list element's ``+= 1`` is ~4x
        # cheaper than a numpy scalar's, and both run on every operation.
        self.reads_per_plane = [0] * self.geometry.total_planes
        self.writes_per_plane = [0] * self.geometry.total_planes
        self.bytes_read_from_array = 0
        self.bytes_programmed = 0

    # -- block/page state helpers -------------------------------------------
    def _block_key(self, plane_id: int, block: int) -> int:
        return plane_id * self.geometry.blocks_per_plane + block

    def block_state(self, plane_id: int, block: int) -> BlockState:
        key = self._block_key(plane_id, block)
        if key not in self._block_state:
            self._block_state[key] = BlockState()
        return self._block_state[key]

    def page_state(self, ppn: int) -> int:
        return self._page_state.get(ppn, PageState.FREE)

    def mark_valid(self, ppn: int) -> None:
        location = self.geometry.decompose(ppn)
        plane_id = self.geometry.plane_id(location)
        state = self.block_state(plane_id, location.block)
        previous = self._page_state.get(ppn, PageState.FREE)
        if previous != PageState.VALID:
            state.valid_pages += 1
        self._page_state[ppn] = PageState.VALID

    def mark_invalid(self, ppn: int) -> None:
        location = self.geometry.decompose(ppn)
        plane_id = self.geometry.plane_id(location)
        state = self.block_state(plane_id, location.block)
        if self._page_state.get(ppn) == PageState.VALID and state.valid_pages > 0:
            state.valid_pages -= 1
        self._page_state[ppn] = PageState.INVALID

    # -- timing primitives ----------------------------------------------------
    def read_page(
        self, ppn: int, now: float, transfer_bytes: Optional[int] = None
    ) -> Tuple[float, float]:
        """Sense a page from the array and ship it over the flash network.

        Returns ``(sensed, completion)``: the cycle the plane finished
        sensing (it held the plane for :attr:`read_array_cycles`) and the
        cycle the data left the flash network.  ``transfer_bytes`` allows the
        caller to move only part of the page (e.g. a reduced prefetch
        granularity); the array sensing time is paid in full regardless,
        which is exactly the granularity mismatch the paper highlights.
        """
        plane_id = self.geometry.plane_of_ppn(ppn)
        plane = self.planes._resources.get(plane_id)
        if plane is None:
            plane = self.planes[plane_id]
        array_cycles = self.read_array_cycles
        sensed = plane.acquire(now, array_cycles) + array_cycles
        page_size = self.config.page_size_bytes
        completion = self.network.transfer(
            ppn % self.config.channels, transfer_bytes or page_size, sensed)
        self.page_reads += 1
        self.reads_per_plane[plane_id] += 1
        self.bytes_read_from_array += page_size
        return sensed, completion

    def program_page(
        self, ppn: int, now: float, transfer_bytes: Optional[int] = None
    ) -> Tuple[float, float]:
        """Transfer data to the plane register and program it into the array.

        Returns ``(transferred, completion)``: the cycle the data reached the
        plane register and the cycle the program finished (it held the plane
        for :attr:`program_array_cycles`).
        """
        location = self.geometry.decompose(ppn)
        plane_id = self.geometry.plane_id(location)
        bytes_to_move = transfer_bytes or self.config.page_size_bytes
        transferred = self.network.transfer(location.channel, bytes_to_move, now)
        array_cycles = self.program_array_cycles
        completion = self.planes[plane_id].acquire(transferred, array_cycles) + array_cycles
        # Bookkeeping: in-order programming within the block.
        state = self.block_state(plane_id, location.block)
        state.next_free_page = max(state.next_free_page, location.page + 1)
        self.mark_valid(ppn)
        self.page_programs += 1
        self.writes_per_plane[plane_id] += 1
        self.bytes_programmed += self.config.page_size_bytes
        return transferred, completion

    def erase_block(self, plane_id: int, block: int, now: float) -> float:
        """Erase a block, resetting its in-order programming pointer.

        Returns the completion cycle.
        """
        latency = self.erase_array_cycles
        completion = self.planes[plane_id].acquire(now, latency) + latency
        state = self.block_state(plane_id, block)
        state.next_free_page = 0
        state.valid_pages = 0
        state.erase_count += 1
        # Invalidate residual page state of this block.
        for page in range(self.geometry.pages_per_block):
            ppn = self.geometry.ppn_of(plane_id, block, page)
            self._page_state.pop(ppn, None)
        self.block_erases += 1
        return completion

    def register_to_register_copy(
        self, src_channel: int, dst_channel: int, num_bytes: int, now: float
    ) -> float:
        """Copy data between registers on different packages over the flash network.

        This is the data movement SWnet pays for when a register's data must
        land on a remote plane (Section IV-C).
        """
        after_src = self.network.transfer(src_channel, num_bytes, now)
        if dst_channel == src_channel:
            return after_src
        return self.network.transfer(dst_channel, num_bytes, after_src)

    # -- reporting -------------------------------------------------------------
    def write_heatmap(self) -> np.ndarray:
        """Writes per (channel, plane-within-channel): the Fig. 8b heat map."""
        channels = self.config.channels
        planes_per_channel = self.geometry.total_planes // channels
        heatmap = np.zeros((channels, planes_per_channel), dtype=np.int64)
        for plane_id in range(self.geometry.total_planes):
            channel = plane_id // (self.geometry.dies_per_channel * self.geometry.planes_per_die)
            within = plane_id % (self.geometry.dies_per_channel * self.geometry.planes_per_die)
            heatmap[channel, within] = self.writes_per_plane[plane_id]
        return heatmap

    def array_read_bandwidth_bytes_per_s(self, horizon_cycles: float) -> float:
        """Achieved flash-array read bandwidth (Fig. 11 metric)."""
        if horizon_cycles <= 0:
            return 0.0
        seconds = horizon_cycles / GPU_FREQ_HZ
        return self.bytes_read_from_array / seconds

    def array_total_bandwidth_bytes_per_s(self, horizon_cycles: float) -> float:
        if horizon_cycles <= 0:
            return 0.0
        seconds = horizon_cycles / GPU_FREQ_HZ
        return (self.bytes_read_from_array + self.bytes_programmed) / seconds

    def max_erase_count(self) -> int:
        if not self._block_state:
            return 0
        return max(state.erase_count for state in self._block_state.values())

    def reset_statistics(self) -> None:
        self.page_reads = 0
        self.page_programs = 0
        self.block_erases = 0
        self.reads_per_plane = [0] * self.geometry.total_planes
        self.writes_per_plane = [0] * self.geometry.total_planes
        self.bytes_read_from_array = 0
        self.bytes_programmed = 0
        for plane in self.planes:
            plane.reset()
        self.network.reset()
