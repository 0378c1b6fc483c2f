"""Cycle-approximate simulation primitives.

The simulator models the memory system as a network of :class:`~repro.sim.engine.Resource`
objects (queueing servers with a fixed number of ports).  Memory requests flow
through the components of a platform; each component charges latency and
occupies resources, and the engine keeps per-resource availability so that
contention and bandwidth limits emerge naturally.
"""

from repro.sim.request import AccessType, MemoryRequest
from repro.sim.engine import Resource, BandwidthResource, SimClock
from repro.sim.stats import Counter, Histogram, StatsCollector

__all__ = [
    "AccessType",
    "MemoryRequest",
    "Resource",
    "BandwidthResource",
    "SimClock",
    "Counter",
    "Histogram",
    "StatsCollector",
]
