"""Queueing-network primitives for the cycle-approximate simulator.

The ZnG evaluation is dominated by memory-system contention: SSD-engine
saturation, narrow flash channels, plane occupancy during 3 us reads and
100 us programs, and L2 bank pressure.  We model each physical unit that can
be busy as a :class:`Resource` with a fixed number of *ports* (parallel
servers).  A request asks the resource for service at time ``t`` with a
duration ``d``; the resource returns when the service actually starts, which
is the earliest time a port frees up.  Bandwidth-limited links (buses, PCIe,
DRAM channels) are modelled by :class:`BandwidthResource`, which converts a
transfer size to a duration.

This approach is deterministic, fast (no event heap per cycle) and produces
the latency/bandwidth/ordering behaviour the paper's figures depend on.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Optional


class Resource:
    """A service station with ``ports`` parallel servers.

    Each call to :meth:`acquire` books one port for ``duration`` cycles at the
    earliest opportunity at or after ``when``.  The call returns the cycle at
    which service starts; the caller computes completion as
    ``start + duration``.  Utilisation statistics are tracked so benches can
    report achieved bandwidth per component.
    """

    __slots__ = ("name", "ports", "_free_at", "busy_cycles", "requests_served",
                 "last_completion", "wait_cycles")

    def __init__(self, name: str, ports: int = 1) -> None:
        if ports < 1:
            raise ValueError(f"resource {name!r} needs at least one port")
        self.name = name
        self.ports = ports
        # Min-heap of the times at which each port becomes free, for
        # multi-port resources only.  A single port is free at
        # ``last_completion``: its completions only move forward.  A list of
        # identical values is already a valid heap, so no heapify is needed —
        # platforms construct thousands of these per sweep cell.
        self._free_at: Optional[List[float]] = [0.0] * ports if ports > 1 else None
        self.busy_cycles: float = 0.0
        self.requests_served: int = 0
        self.last_completion: float = 0.0
        # Cycles requests spent queued before service started (start - when,
        # summed).  Pure observation for the record's wait counters and the
        # benches: like busy_cycles it never feeds back into scheduling.
        self.wait_cycles: float = 0.0

    def acquire(self, when: float, duration: float) -> float:
        """Book a port; return the start time of service.

        The single-port branch is inlined in SharedL2Cache.access (the
        bank), Interconnect.send (the link) and
        StreamingMultiprocessor.execute_instruction (the issue port).
        """
        # ``not >=`` rather than ``<`` also rejects a NaN duration, which
        # would otherwise poison ``last_completion`` for every later booking.
        if not duration >= 0:
            raise ValueError(f"duration must be non-negative, got {duration!r}")
        free_at = self._free_at
        if free_at is None:
            # Single port (issue ports, banks, planes): no heap.  The port
            # frees at the last completion, and this one cannot be earlier.
            last = self.last_completion
            start = when if when > last else last
            self.last_completion = start + duration
        else:
            earliest_free = heapq.heappop(free_at)
            start = when if when > earliest_free else earliest_free
            completion = start + duration
            heapq.heappush(free_at, completion)
            if completion > self.last_completion:
                self.last_completion = completion
        self.busy_cycles += duration
        self.wait_cycles += start - when
        self.requests_served += 1
        return start

    def next_free(self) -> float:
        """Earliest cycle at which at least one port is idle."""
        free_at = self._free_at
        return self.last_completion if free_at is None else free_at[0]

    def utilization(self, horizon: float) -> float:
        """Fraction of port-cycles spent busy up to ``horizon``.

        Deliberately *unclamped*: a value above 1.0 at a horizon that covers
        every completion means ports were double-booked, and that bug must be
        visible to the invariant tests rather than silently capped away.
        (Values above 1.0 are expected — and honest — for horizons shorter
        than ``last_completion``, where booked work extends past the horizon.)
        """
        if horizon <= 0:
            return 0.0
        return self.busy_cycles / (horizon * self.ports)

    def reset(self) -> None:
        self._free_at = [0.0] * self.ports if self.ports > 1 else None
        self.busy_cycles = 0.0
        self.requests_served = 0
        self.last_completion = 0.0
        self.wait_cycles = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Resource({self.name!r}, ports={self.ports})"


class BandwidthResource(Resource):
    """A link whose service time is ``bytes / bytes_per_cycle`` plus a fixed latency.

    Used for flash channels, the widened flash network, the HybridGPU DRAM
    buffer bus, PCIe, and DRAM/Optane channels.
    """

    __slots__ = ("bytes_per_cycle", "fixed_latency", "bytes_transferred")

    def __init__(
        self,
        name: str,
        bytes_per_cycle: float,
        ports: int = 1,
        fixed_latency: float = 0.0,
    ) -> None:
        super().__init__(name, ports)
        if not 0 < bytes_per_cycle < math.inf:
            raise ValueError(
                f"link {name!r} needs a finite positive bandwidth, got {bytes_per_cycle!r}")
        if not 0 <= fixed_latency < math.inf:
            raise ValueError(
                f"link {name!r} needs a finite non-negative latency, got {fixed_latency!r}")
        self.bytes_per_cycle = bytes_per_cycle
        self.fixed_latency = fixed_latency
        self.bytes_transferred: int = 0

    def transfer_time(self, num_bytes: int) -> float:
        """Cycles needed to move ``num_bytes`` over this link."""
        return self.fixed_latency + num_bytes / self.bytes_per_cycle

    def transfer(self, when: float, num_bytes: int) -> float:
        """Book the link for a transfer; return the completion cycle."""
        duration = self.fixed_latency + num_bytes / self.bytes_per_cycle
        start = self.acquire(when, duration)
        self.bytes_transferred += num_bytes
        return start + duration

    def achieved_bandwidth(self, horizon: float) -> float:
        """Bytes per cycle actually moved up to ``horizon``."""
        if horizon <= 0:
            return 0.0
        return self.bytes_transferred / horizon

    def reset(self) -> None:
        super().reset()
        self.bytes_transferred = 0


class ResourcePool:
    """A striped collection of identical resources (e.g. L2 banks, channels).

    Requests are routed by an index (address hash, channel id, ...); the pool
    simply owns the resources so platforms can reset and report them together.
    :meth:`least_loaded_index` / :meth:`acquire_least_loaded` additionally
    support *dynamic* load-balanced routing for schedulers that are free to
    pick any member (the current platform paths all stripe by address, which
    keeps placement deterministic and physically faithful, so these are for
    dispatcher-style consumers and run O(log n) instead of a linear scan).
    """

    def __init__(self, resources: List[Resource]) -> None:
        if not resources:
            raise ValueError("a resource pool needs at least one resource")
        self.resources = resources
        # Lazily maintained (next_free, index) heap for least_loaded_index.
        # Entries go stale whenever a resource is acquired (directly or via
        # the pool); staleness is detected on pop by comparing against the
        # live next_free(), so routing stays O(log n) amortised instead of a
        # full O(n) scan per request.  Built on first use: address-striped
        # pools never pay for it.
        self._free_heap: Optional[List[tuple]] = None

    def __len__(self) -> int:
        return len(self.resources)

    def __getitem__(self, index: int) -> Resource:
        return self.resources[index % len(self.resources)]

    def __iter__(self):
        return iter(self.resources)

    def reset(self) -> None:
        for resource in self.resources:
            resource.reset()
        # next_free() moved backwards for every resource, which lazy repair
        # cannot detect; drop the heap and rebuild it on next use.
        self._free_heap = None

    @property
    def busy_cycles(self) -> float:
        return sum(r.busy_cycles for r in self.resources)

    @property
    def requests_served(self) -> int:
        return sum(r.requests_served for r in self.resources)

    @property
    def wait_cycles(self) -> float:
        return sum(r.wait_cycles for r in self.resources)

    @property
    def last_completion(self) -> float:
        return max(r.last_completion for r in self.resources)

    def least_loaded_index(self) -> int:
        """Index of the resource that frees up first (for load balancing).

        Amortised O(log n): the heap top is validated against the resource's
        live ``next_free()`` and lazily repaired when an acquire made it
        stale.  Ties resolve to the lowest index, matching the linear scan
        this replaced.

        Invariant: lazy repair can only see ``next_free()`` moving *forward*
        (acquires).  Reset pool members through :meth:`ResourcePool.reset`
        (which drops the heap), never via a member's own ``reset()`` — a
        direct member reset moves its ``next_free()`` backwards where the
        heap cannot observe it and later answers may name a busier resource.
        """
        resources = self.resources
        heap = self._free_heap
        if heap is None:
            heap = self._free_heap = [
                (resource.next_free(), index)
                for index, resource in enumerate(resources)
            ]
            heapq.heapify(heap)
        while True:
            recorded_free, index = heap[0]
            actual_free = resources[index].next_free()
            if actual_free == recorded_free:
                return index
            heapq.heapreplace(heap, (actual_free, index))

    def acquire_least_loaded(self, when: float, duration: float) -> tuple:
        """Book the first-free resource; return ``(index, start_cycle)``."""
        index = self.least_loaded_index()
        start = self.resources[index].acquire(when, duration)
        return index, start
