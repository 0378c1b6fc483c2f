"""Physical flash geometry and address decomposition.

A *physical page number* (PPN) is a linear index over all flash pages in the
device.  Consecutive PPNs are striped channel-first, then die, then plane, so
sequential data naturally exploits channel/die/plane parallelism — the same
layout SimpleSSD uses and the layout the accumulated-bandwidth argument of the
paper relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ZNANDConfig


@dataclass(frozen=True)
class FlashLocation:
    """Fully decoded flash coordinates of one page."""

    channel: int
    die: int
    plane: int
    block: int
    page: int

    @property
    def plane_index(self) -> "tuple[int, int, int]":
        """(channel, die, plane) triple identifying the physical plane."""
        return (self.channel, self.die, self.plane)


class FlashGeometry:
    """Address arithmetic over the Z-NAND backbone described by a config."""

    #: Decompose-memo bound: far above any working set the sweeps touch,
    #: small enough (5-int locations) that the memo can never matter for
    #: memory.  Cleared wholesale on overflow rather than LRU-tracked —
    #: decode order is access order, so precision buys nothing here.
    _DECOMPOSE_CACHE_MAX = 1 << 16

    def __init__(self, config: ZNANDConfig) -> None:
        self.config = config
        self.channels = config.channels
        self.dies_per_channel = config.packages_per_channel * config.dies_per_package
        self.planes_per_die = config.planes_per_die
        self.blocks_per_plane = config.blocks_per_plane
        self.pages_per_block = config.pages_per_block
        self.page_size_bytes = config.page_size_bytes
        self._decompose_cache: "dict[int, FlashLocation]" = {}
        self._total_pages = self.total_pages

    # -- capacity -----------------------------------------------------------
    @property
    def total_planes(self) -> int:
        return self.channels * self.dies_per_channel * self.planes_per_die

    @property
    def pages_per_plane(self) -> int:
        return self.blocks_per_plane * self.pages_per_block

    @property
    def total_pages(self) -> int:
        return self.total_planes * self.pages_per_plane

    @property
    def total_blocks(self) -> int:
        return self.total_planes * self.blocks_per_plane

    @property
    def capacity_bytes(self) -> int:
        return self.total_pages * self.page_size_bytes

    # -- PPN <-> location ----------------------------------------------------
    def decompose(self, ppn: int) -> FlashLocation:
        """Decode a physical page number into flash coordinates.

        The page stripe order is: channel, then die, then plane, then page
        within the block, then block — i.e. consecutive pages land on
        different channels to maximise parallelism.

        Memoized per geometry: decode is pure, and the hot request paths
        decode the same working-set pages over and over.
        """
        location = self._decompose_cache.get(ppn)
        if location is not None:
            return location
        if not 0 <= ppn < self._total_pages:
            raise ValueError(f"PPN {ppn} out of range (total {self.total_pages})")
        channel = ppn % self.channels
        remainder = ppn // self.channels
        die = remainder % self.dies_per_channel
        remainder //= self.dies_per_channel
        plane = remainder % self.planes_per_die
        remainder //= self.planes_per_die
        page = remainder % self.pages_per_block
        block = remainder // self.pages_per_block
        location = FlashLocation(
            channel=channel, die=die, plane=plane, block=block, page=page)
        if len(self._decompose_cache) >= self._DECOMPOSE_CACHE_MAX:
            self._decompose_cache.clear()
        self._decompose_cache[ppn] = location
        return location

    def compose(self, location: FlashLocation) -> int:
        """Inverse of :meth:`decompose`."""
        remainder = location.block * self.pages_per_block + location.page
        remainder = remainder * self.planes_per_die + location.plane
        remainder = remainder * self.dies_per_channel + location.die
        return remainder * self.channels + location.channel

    # -- plane / block indexing ----------------------------------------------
    def plane_id(self, location: FlashLocation) -> int:
        """Flat plane index (0 .. total_planes-1)."""
        return (
            location.channel * self.dies_per_channel + location.die
        ) * self.planes_per_die + location.plane

    def plane_of_ppn(self, ppn: int) -> int:
        # plane_id(decompose(ppn)) without building the location: the
        # channel, die and plane digits of the PPN, as decompose() reads them.
        if not 0 <= ppn < self._total_pages:
            raise ValueError(f"PPN {ppn} out of range (total {self.total_pages})")
        dies = self.dies_per_channel
        rest, channel = divmod(ppn, self.channels)
        rest, die = divmod(rest, dies)
        planes = self.planes_per_die
        return (channel * dies + die) * planes + rest % planes

    def block_id(self, location: FlashLocation) -> int:
        """Flat block index (0 .. total_blocks-1)."""
        return self.plane_id(location) * self.blocks_per_plane + location.block

    def ppn_of(self, plane_id: int, block: int, page: int) -> int:
        """Build a PPN from a flat plane index, block and page.

        Same digits as ``compose(FlashLocation(...))``, without the location.
        """
        channel, rest = divmod(plane_id, self.dies_per_channel * self.planes_per_die)
        die, plane = divmod(rest, self.planes_per_die)
        remainder = (block * self.pages_per_block + page) * self.planes_per_die + plane
        return (remainder * self.dies_per_channel + die) * self.channels + channel

    def byte_address_to_ppn(self, byte_address: int) -> int:
        """PPN that holds ``byte_address`` under the linear striped layout."""
        return (byte_address // self.page_size_bytes) % self.total_pages

    def channel_of_ppn(self, ppn: int) -> int:
        return ppn % self.channels
