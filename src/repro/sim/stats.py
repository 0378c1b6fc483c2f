"""Statistics collection used by platforms and the analysis layer.

The hot path of a simulation samples a latency histogram once per memory
request, so :class:`Histogram` keeps O(1) state and does O(1) work per
sample: exact running count, total, minimum and maximum (and therefore the
mean).  It keeps no samples, so a result's size does not grow with the
length of the run.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, Mapping


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Counter)
            and self.name == other.name
            and self.value == other.value
        )


class DerivedCounter(Counter):
    """A counter whose value is the sum of other counters, computed when read.

    It serialises, pickles and copies as a plain :class:`Counter` holding
    that sum.
    """

    __slots__ = ("_parts",)

    def __init__(self, name: str, parts: Iterable[Counter]) -> None:
        self.name = name
        self._parts = tuple(parts)

    @property
    def value(self) -> float:
        return sum((part.value for part in self._parts), 0.0)

    def __reduce__(self):
        return Counter, (self.name, self.value)


class Histogram:
    """A constant-memory latency summary: exact count, total, min and max."""

    __slots__ = ("name", "_count", "_total", "_min", "_max")

    def __init__(self, name: str) -> None:
        self.name = name
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # -- sampling -----------------------------------------------------------
    def add(self, value: float) -> None:
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    # -- serialisation ------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """A JSON-safe snapshot that :meth:`load_state` restores exactly."""
        return {
            "count": self._count,
            "total": self._total,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        self._count = int(state["count"])
        self._total = float(state["total"])
        self._min = math.inf if state["min"] is None else float(state["min"])
        self._max = -math.inf if state["max"] is None else float(state["max"])


class StatsCollector:
    """Collects counters, histograms and per-component latency breakdowns."""

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.breakdown: Dict[str, float] = defaultdict(float)

    # -- counters -----------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name)
        return counter

    def derived(self, name: str, parts: Iterable[Counter]) -> DerivedCounter:
        """Register ``name`` as the sum of ``parts``, computed when read.

        A counter already registered under ``name`` is replaced in place, so
        it keeps its position in :meth:`to_dict`.
        """
        counter = self.counters[name] = DerivedCounter(name, parts)
        return counter

    def add(self, name: str, amount: float = 1.0) -> None:
        try:
            self.counters[name].value += amount
        except KeyError:
            counter = self.counters[name] = Counter(name)
            counter.value += amount

    def get(self, name: str, default: float = 0.0) -> float:
        counter = self.counters.get(name)
        return counter.value if counter is not None else default

    # -- histograms ---------------------------------------------------------
    def histogram(self, name: str) -> Histogram:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram(name)
        return histogram

    # -- latency breakdown --------------------------------------------------
    def add_breakdown(self, components: Mapping[str, float]) -> None:
        breakdown = self.breakdown
        for component, cycles in components.items():
            breakdown[component] += cycles

    # -- serialisation ------------------------------------------------------
    #
    # Sweep workers return their statistics across process boundaries and the
    # result cache persists them as JSON, so the collector must round-trip
    # losslessly through plain dictionaries (and through pickle, which the
    # plain-data attributes already guarantee).

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable snapshot that :meth:`from_dict` restores exactly."""
        return {
            "counters": {name: c.value for name, c in self.counters.items()},
            "histograms": {name: h.state_dict() for name, h in self.histograms.items()},
            "breakdown": dict(self.breakdown),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "StatsCollector":
        """Rebuild a collector from a :meth:`to_dict` snapshot.

        A missing field raises ``KeyError``: the result cache then drops the
        entry and recomputes the cell instead of loading silent zeros.
        """
        collector = cls()
        for name, value in dict(payload["counters"]).items():
            collector.counter(name).value = float(value)
        for name, state in dict(payload["histograms"]).items():
            collector.histogram(name).load_state(state)
        collector.add_breakdown(dict(payload["breakdown"]))
        return collector

    def as_dict(self) -> Dict[str, float]:
        summary: Dict[str, float] = {name: c.value for name, c in self.counters.items()}
        for name, histogram in self.histograms.items():
            summary[f"{name}.mean"] = histogram.mean
            summary[f"{name}.count"] = float(histogram.count)
        return summary
