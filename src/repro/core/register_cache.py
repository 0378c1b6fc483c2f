"""Fully-associative flash-register write cache (Section III-C / IV-C).

ZnG raises the number of registers per Z-NAND plane and groups all registers
of a package into one fully-associative cache for dirty pages: incoming 128 B
writes are merged into the register that holds their 4 KB page, and only when
a register is evicted is a real (100 us) program issued to the log block.
The register interconnect (SWnet/FCnet/NiF) determines the cost of landing a
register's data on a plane it is not physically attached to, and the
thrashing checker spills to pinned L2 lines when the dirty working set
exceeds the registers.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.config import RegisterCacheConfig, ZNANDConfig
from repro.core.register_network import RegisterNetwork, build_register_network
from repro.core.thrashing import ThrashingChecker
from repro.ssd.znand import ZNANDArray

#: Callback used to program an evicted page: (virtual_page, now) -> completion.
ProgramFn = Callable[[int, float], float]


@dataclass(slots=True)
class RegisterEntry:
    """One register holding (part of) a dirty page."""

    virtual_page: int
    home_plane: int          # plane within the package the register belongs to
    dirty_bytes: int = 0
    writes_merged: int = 0


class FlashRegisterCache:
    """Write cache built from the Z-NAND plane registers.

    Two scopes are supported:

    * ``scope="package"`` — ZnG's write optimisation: every register of a
      package forms one fully-associative cache; dirty pages can live in any
      register and reach their destination plane over the register
      interconnect (SWnet/FCnet/NiF).
    * ``scope="plane"`` — the native organisation used by ZnG-base/rdopt: a
      plane's own registers (2 by default) buffer only pages destined for
      that plane, so hot pages mapping to the same plane thrash quickly.
    """

    #: Cycles to merge a 128 B write into an already-resident register.
    MERGE_LATENCY_CYCLES = 4.0

    def __init__(
        self,
        array: ZNANDArray,
        config: Optional[RegisterCacheConfig] = None,
        network: Optional[RegisterNetwork] = None,
        page_size_bytes: Optional[int] = None,
        scope: str = "package",
    ) -> None:
        if scope not in ("package", "plane"):
            raise ValueError(f"unknown register cache scope {scope!r}")
        self.array = array
        self.znand: ZNANDConfig = array.config
        self.config = config or RegisterCacheConfig()
        self.scope = scope
        self.network = network or build_register_network(array, self.config)
        self.page_size_bytes = page_size_bytes or self.znand.page_size_bytes
        self.planes_per_package = self.znand.dies_per_package * self.znand.planes_per_die
        self.registers_per_package = (
            self.config.registers_per_plane * self.planes_per_package
        )
        self.packages = self.znand.channels * self.znand.packages_per_channel
        num_groups = (
            self.packages
            if scope == "package"
            else self.packages * self.planes_per_package
        )
        self._group_capacity = (
            self.registers_per_package
            if scope == "package"
            else self.config.registers_per_plane
        )
        self.num_groups = num_groups
        # Per-group LRU map (virtual page -> RegisterEntry), materialised on
        # first touch: plane scope means up to 1024 groups per platform and
        # building them all eagerly dominated construction at smoke scales.
        self._packages: Dict[int, "OrderedDict[int, RegisterEntry]"] = {}
        self._allocation_rotor: Dict[int, int] = {}
        self.thrashing_checker = ThrashingChecker(self.config)
        # Statistics.
        self.write_hits = 0
        self.write_misses = 0
        self.evictions = 0
        self.l2_spills = 0
        self.programs_issued = 0
        self.forced_read_flushes = 0

    # ------------------------------------------------------------------
    def package_of_plane(self, plane_id: int) -> int:
        return plane_id // self.planes_per_package

    def plane_within_package(self, plane_id: int) -> int:
        return plane_id % self.planes_per_package

    def group_of_plane(self, plane_id: int) -> int:
        """The register group serving writes destined for ``plane_id``."""
        if self.scope == "package":
            return self.package_of_plane(plane_id)
        return plane_id

    def occupancy(self, group: int) -> int:
        registers = self._packages.get(group)
        return len(registers) if registers is not None else 0

    def holds(self, group: int, virtual_page: int) -> bool:
        registers = self._packages.get(group)
        return registers is not None and virtual_page in registers

    # ------------------------------------------------------------------
    def write(
        self,
        virtual_page: int,
        target_plane: int,
        write_bytes: int,
        now: float,
        program_fn: ProgramFn,
        l2_spill_fn: Optional[Callable[[int, float], float]] = None,
    ) -> Tuple[float, bool, Optional[int]]:
        """Absorb one write request destined for ``target_plane``.

        Returns ``(ready_cycle, register_hit, evicted_page)``; the evicted
        page is ``None`` when no register was evicted.

        ``program_fn`` is invoked when a victim register must be flushed; it
        performs the log-block program (through the zero-overhead FTL) and
        returns its completion cycle.  ``l2_spill_fn`` is the thrashing escape
        hatch: when provided and thrashing is detected, the victim page is
        pinned into the L2 instead of being programmed.
        """
        package_scope = self.scope == "package"
        group = target_plane // self.planes_per_package if package_scope else target_plane
        registers = self._packages.get(group)
        if registers is None:
            registers = self._packages[group] = OrderedDict()
        entry = registers.get(virtual_page)

        if entry is not None:
            registers.move_to_end(virtual_page)
            entry.dirty_bytes = min(self.page_size_bytes, entry.dirty_bytes + write_bytes)
            entry.writes_merged += 1
            self.write_hits += 1
            self.thrashing_checker.observe(False)
            return now + self.MERGE_LATENCY_CYCLES, True, None

        self.write_misses += 1
        time = now + self.MERGE_LATENCY_CYCLES
        evicted_page: Optional[int] = None
        if len(registers) >= self._group_capacity:
            evicted_page, time = self._evict(group, time, program_fn, l2_spill_fn)
        # Allocate a register; in package scope its physical home plane rotates
        # round-robin so asymmetric write patterns still spread over the
        # package's registers, in plane scope it is the target plane itself.
        if package_scope:
            rotor = self._allocation_rotor.get(group, 0)
            home_plane = rotor % self.planes_per_package
            self._allocation_rotor[group] = rotor + 1
        else:
            home_plane = self.plane_within_package(target_plane)
        registers[virtual_page] = RegisterEntry(virtual_page, home_plane, write_bytes, 1)
        self.thrashing_checker.observe(evicted_page is not None)
        return time, False, evicted_page

    def _evict(
        self,
        group: int,
        now: float,
        program_fn: ProgramFn,
        l2_spill_fn: Optional[Callable[[int, float], float]],
    ) -> Tuple[int, float]:
        """Evict the LRU register of a group; returns ``(page, time)``."""
        registers = self._packages[group]
        victim_page, victim = registers.popitem(last=False)
        self.evictions += 1
        if self.thrashing_checker.thrashing and l2_spill_fn is not None:
            # Pin the dirty page into the L2 instead of programming flash.
            self.l2_spills += 1
            return victim_page, l2_spill_fn(victim_page, now)
        # Move the register's data to its destination plane (possibly remote)
        # over the register interconnect, then program the log page.
        package = group if self.scope == "package" else self.package_of_plane(group)
        dest_plane_local = self._destination_plane_local(victim_page, group)
        moved = self.network.transfer(
            package, victim.home_plane, dest_plane_local,
            victim.dirty_bytes or self.page_size_bytes, now,
        )
        completion = program_fn(victim_page, moved)
        self.programs_issued += 1
        return victim_page, completion

    def _destination_plane_local(self, virtual_page: int, group: int) -> int:
        """Plane (within its package) that receives the programmed page.

        The exact plane is decided by the FTL at program time; for the
        interconnect-cost model we use the page's natural striping target,
        which matches how the FTL assigns log blocks to groups.  In plane
        scope the destination is simply the group's own plane.
        """
        if self.scope == "plane":
            return self.plane_within_package(group)
        return virtual_page % self.planes_per_package

    # ------------------------------------------------------------------
    def prepare_plane_for_read(
        self, target_plane: int, now: float, program_fn: ProgramFn
    ) -> float:
        """Make a plane's registers available for a read sensing.

        With plane-private registers (ZnG-base/rdopt) the cache/data registers
        are needed to sense and stream out read data, so any dirty page parked
        in them must be programmed into the array before the plane can serve
        the read.  The package-wide cache (ZnG-wropt/ZnG) keeps dirty pages in
        *other* planes' registers, so reads proceed immediately.
        """
        if self.scope != "plane":
            return now
        registers = self._packages.get(target_plane)
        if not registers:
            return now
        time = now
        while registers:
            victim_page, _ = registers.popitem(last=False)
            time = program_fn(victim_page, time)
            self.programs_issued += 1
            self.evictions += 1
            self.forced_read_flushes += 1
        return time

    # ------------------------------------------------------------------
    @property
    def hit_rate(self) -> float:
        total = self.write_hits + self.write_misses
        return self.write_hits / total if total else 0.0
