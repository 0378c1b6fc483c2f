"""Statistics collection used by platforms and the analysis layer.

The hot path of a simulation samples a latency histogram once per memory
request, so :class:`Histogram` must be O(1) memory and O(1) time per sample.
Aggregates (count/total/min/max, and therefore the mean) are exact running
values; percentiles come from a bounded reservoir (Vitter's algorithm R)
driven by a deterministic inline LCG so that serial, parallel and cached
sweep runs stay bit-identical.  Up to ``reservoir_size`` samples the
reservoir holds *every* sample and percentiles are exact nearest-rank
results; beyond that they are unbiased estimates.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Mapping, Tuple


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str, value: float = 0.0) -> None:
        self.name = name
        self.value = value

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name!r}, value={self.value!r})"

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Counter)
            and self.name == other.name
            and self.value == other.value
        )


# Knuth/Numerical-Recipes 64-bit LCG constants: full period, cheap, and —
# unlike ``random.Random`` — trivially serialisable as a single integer.
_LCG_MULTIPLIER = 6364136223846793005
_LCG_INCREMENT = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


class Histogram:
    """A constant-memory streaming histogram for latency distributions.

    Exact: ``count``, ``total``, ``mean``, ``minimum``, ``maximum``.
    Bounded: ``percentile`` (exact while ``count <= reservoir_size``, an
    unbiased reservoir estimate afterwards, always clamped to the exact
    min/max at the extremes).
    """

    #: Default reservoir capacity; large enough that the smoke/bench scales
    #: stay exact while a million-sample run still holds ~2 K floats.
    RESERVOIR_SIZE = 2048

    __slots__ = (
        "name",
        "reservoir_size",
        "_count",
        "_total",
        "_min",
        "_max",
        "_reservoir",
        "_rng_state",
    )

    def __init__(self, name: str, reservoir_size: int = RESERVOIR_SIZE) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be at least 1")
        self.name = name
        self.reservoir_size = reservoir_size
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: List[float] = []
        # Deterministic per-histogram seed: same name + same sample stream
        # (in any process) -> same reservoir, which is what keeps cached and
        # fresh sweep results bit-identical.
        self._rng_state = self._seed_from_name(name)

    @staticmethod
    def _seed_from_name(name: str) -> int:
        seed = 0
        for char in name:
            seed = (seed * 131 + ord(char)) & _LCG_MASK
        return seed or 1

    # -- sampling -----------------------------------------------------------
    def add(self, value: float) -> None:
        count = self._count
        self._count = count + 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        reservoir = self._reservoir
        if count < self.reservoir_size:
            reservoir.append(value)
            return
        # Algorithm R: replace a random slot with probability size/(count+1).
        state = (self._rng_state * _LCG_MULTIPLIER + _LCG_INCREMENT) & _LCG_MASK
        self._rng_state = state
        slot = (state >> 33) % (count + 1)
        if slot < self.reservoir_size:
            reservoir[slot] = value

    def __len__(self) -> int:
        return self._count

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

    @property
    def samples(self) -> Tuple[float, ...]:
        """The retained samples (all of them while ``count <= reservoir_size``)."""
        return tuple(self._reservoir)

    def percentile(self, fraction: float) -> float:
        """Return the ``fraction`` percentile (0..1), nearest-rank style.

        The extremes are always exact: ``fraction=0.0`` returns the running
        minimum and ``1.0`` the running maximum, even when the reservoir has
        subsampled its stream and no longer retains those samples.
        """
        if not self._count:
            return 0.0
        if not 0.0 <= fraction <= 1.0:
            raise ValueError("fraction must be within [0, 1]")
        if fraction == 0.0:
            return self._min
        if fraction == 1.0:
            return self._max
        ordered = sorted(self._reservoir)
        index = min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1)
        value = ordered[max(0, index)]
        # The running extremes are exact even when the reservoir subsampled.
        return min(max(value, self._min), self._max)

    # -- serialisation ------------------------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """A JSON-safe snapshot that :meth:`load_state` restores exactly."""
        return {
            "count": self._count,
            "total": self._total,
            "min": self._min if self._count else None,
            "max": self._max if self._count else None,
            "reservoir": list(self._reservoir),
            "reservoir_size": self.reservoir_size,
            "rng_state": self._rng_state,
        }

    def load_state(self, state: Mapping[str, object]) -> None:
        self._count = int(state["count"])
        self._total = float(state["total"])
        self._min = math.inf if state.get("min") is None else float(state["min"])
        self._max = -math.inf if state.get("max") is None else float(state["max"])
        self._reservoir = [float(v) for v in state["reservoir"]]
        self.reservoir_size = int(state.get("reservoir_size", self.RESERVOIR_SIZE))
        self._rng_state = int(state.get("rng_state", self._seed_from_name(self.name)))

    def reset(self) -> None:
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir = []
        self._rng_state = self._seed_from_name(self.name)


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

    def sample(self, name: str, value: float) -> None:
        self.histogram(name).add(value)

    # -- latency breakdown --------------------------------------------------
    def add_breakdown(self, components: Mapping[str, float]) -> None:
        breakdown = self.breakdown
        for component, cycles in components.items():
            breakdown[component] += cycles

    def breakdown_fractions(self) -> Dict[str, float]:
        total = sum(self.breakdown.values())
        if total <= 0:
            return {}
        return {name: value / total for name, value in self.breakdown.items()}

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

        Accepts both the streaming-histogram state dictionaries and the
        legacy plain-list sample payloads of earlier cache versions.
        """
        collector = cls()
        for name, value in dict(payload.get("counters", {})).items():
            collector.counter(name).value = float(value)
        for name, state in dict(payload.get("histograms", {})).items():
            histogram = collector.histogram(name)
            if isinstance(state, Mapping):
                histogram.load_state(state)
            else:  # legacy format: the raw sample list
                for sample in state:
                    histogram.add(float(sample))
        collector.add_breakdown(dict(payload.get("breakdown", {})))
        return collector

    def as_dict(self) -> Dict[str, float]:
        summary: Dict[str, float] = {name: c.value for name, c in self.counters.items()}
        for name, histogram in self.histograms.items():
            summary[f"{name}.mean"] = histogram.mean
            summary[f"{name}.count"] = float(histogram.count)
        return summary

    def reset(self) -> None:
        for counter in self.counters.values():
            counter.reset()
        for histogram in self.histograms.values():
            histogram.reset()
        self.breakdown.clear()


def ratio(numerator: float, denominator: float) -> float:
    """A defensive division helper for metric code."""
    if denominator == 0:
        return 0.0
    return numerator / denominator


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean used for cross-workload speedup summaries."""
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
