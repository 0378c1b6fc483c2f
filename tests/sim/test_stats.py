"""Unit tests for the statistics collector."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.stats import Counter, Histogram, StatsCollector, geometric_mean, ratio


class TestCounter:
    def test_add_and_reset(self):
        counter = Counter("c")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5
        counter.reset()
        assert counter.value == 0.0


class TestHistogram:
    def test_basic_statistics(self):
        histogram = Histogram("h")
        for value in [1.0, 2.0, 3.0, 4.0]:
            histogram.add(value)
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.maximum == 4.0
        assert histogram.minimum == 1.0
        assert histogram.total == 10.0

    def test_empty_histogram(self):
        histogram = Histogram("h")
        assert histogram.mean == 0.0
        assert histogram.maximum == 0.0
        assert histogram.percentile(0.5) == 0.0

    def test_percentile(self):
        histogram = Histogram("h")
        for value in range(1, 101):
            histogram.add(float(value))
        assert histogram.percentile(0.5) == pytest.approx(50.0)
        assert histogram.percentile(0.99) == pytest.approx(99.0)
        assert histogram.percentile(1.0) == pytest.approx(100.0)

    def test_percentile_rejects_out_of_range(self):
        histogram = Histogram("h")
        histogram.add(1.0)
        with pytest.raises(ValueError):
            histogram.percentile(1.5)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_mean_bounded_by_extremes(self, values):
        histogram = Histogram("h")
        for value in values:
            histogram.add(value)
        assert histogram.minimum - 1e-6 <= histogram.mean <= histogram.maximum + 1e-6


class TestStatsCollector:
    def test_counters(self):
        stats = StatsCollector()
        stats.add("requests")
        stats.add("requests", 2)
        assert stats.get("requests") == 3
        assert stats.get("missing", default=-1) == -1

    def test_histograms(self):
        stats = StatsCollector()
        stats.sample("latency", 10.0)
        stats.sample("latency", 20.0)
        assert stats.histogram("latency").mean == 15.0

    def test_breakdown_fractions_sum_to_one(self):
        stats = StatsCollector()
        stats.add_breakdown({"a": 30.0, "b": 70.0})
        fractions = stats.breakdown_fractions()
        assert fractions["a"] == pytest.approx(0.3)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_breakdown_empty(self):
        assert StatsCollector().breakdown_fractions() == {}

    def test_as_dict(self):
        stats = StatsCollector()
        stats.add("x", 4)
        stats.sample("lat", 2.0)
        summary = stats.as_dict()
        assert summary["x"] == 4
        assert summary["lat.mean"] == 2.0
        assert summary["lat.count"] == 1

    def test_reset(self):
        stats = StatsCollector()
        stats.add("x")
        stats.sample("lat", 1.0)
        stats.add_breakdown({"c": 1.0})
        stats.reset()
        assert stats.get("x") == 0
        assert stats.histogram("lat").count == 0
        assert not stats.breakdown


def _nearest_rank(values, fraction):
    """The exact nearest-rank percentile the streaming estimate must track."""
    import math

    ordered = sorted(values)
    index = min(len(ordered) - 1, int(math.ceil(fraction * len(ordered))) - 1)
    return ordered[max(0, index)]


class TestStreamingHistogram:
    """The streaming histogram: O(1) memory, exact aggregates, bounded error."""

    @given(
        values=st.lists(
            st.floats(min_value=0, max_value=1e6), min_size=1, max_size=300
        ),
        fraction=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_percentile_exact_below_reservoir_capacity(self, values, fraction):
        histogram = Histogram("h")
        for value in values:
            histogram.add(value)
        assert histogram.percentile(fraction) == _nearest_rank(values, fraction)

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        fraction=st.sampled_from([0.1, 0.25, 0.5, 0.9, 0.99]),
    )
    @settings(max_examples=25, deadline=None)
    def test_percentile_within_tolerance_beyond_capacity(self, seed, fraction):
        import random

        rng = random.Random(seed)
        values = [rng.random() * 1e4 for _ in range(3000)]
        histogram = Histogram("h", reservoir_size=256)
        for value in values:
            histogram.add(value)
        estimate = histogram.percentile(fraction)
        # Rank-based tolerance: the estimate's true rank must be close to the
        # requested one (robust to the shape of the distribution).
        rank = sum(1 for v in values if v <= estimate) / len(values)
        assert abs(rank - fraction) < 0.15

    def test_memory_stays_bounded(self):
        histogram = Histogram("h", reservoir_size=128)
        for i in range(50_000):
            histogram.add(float(i))
        assert len(histogram.samples) <= 128
        assert histogram.count == 50_000

    def test_no_unbounded_sample_lists_in_results(self):
        """Every histogram of a real simulated result stays within its
        reservoir, on the platforms with and without the read path."""
        from repro.runner import SweepSpec, run_sweep

        spec = SweepSpec.create(platforms=["ZnG-base", "ZnG"],
                                workloads=["betw-back", "bfs1-gaus"],
                                scale=0.08, warps_per_sm=2)
        result = run_sweep(spec, workers=1)
        assert len(result) == 4
        for run in result:
            histograms = run.result.stats.histograms.values()
            assert histograms
            for histogram in histograms:
                assert len(histogram.samples) <= histogram.reservoir_size

    def test_aggregates_exact_beyond_capacity(self):
        histogram = Histogram("h", reservoir_size=64)
        values = [float((7 * i) % 1000) for i in range(10_000)]
        for value in values:
            histogram.add(value)
        assert histogram.count == len(values)
        assert histogram.total == pytest.approx(sum(values))
        assert histogram.mean == pytest.approx(sum(values) / len(values))
        assert histogram.minimum == min(values)
        assert histogram.maximum == max(values)
        # The extremes stay exact even when the reservoir subsampled.
        assert histogram.percentile(0.0) == min(values)
        assert histogram.percentile(1.0) == max(values)

    def test_state_roundtrip_is_exact_and_resumable(self):
        original = Histogram("lat", reservoir_size=32)
        for i in range(100):
            original.add(float(i % 17))
        restored = Histogram("lat", reservoir_size=32)
        restored.load_state(original.state_dict())
        assert restored.state_dict() == original.state_dict()
        # Continuing the stream on both produces identical states: cached
        # and fresh sweep runs cannot diverge.
        for i in range(100):
            original.add(float(i))
            restored.add(float(i))
        assert restored.state_dict() == original.state_dict()

    def test_same_stream_same_name_is_deterministic(self):
        a, b = Histogram("x", reservoir_size=16), Histogram("x", reservoir_size=16)
        for i in range(500):
            a.add(float(i * 3 % 97))
            b.add(float(i * 3 % 97))
        assert a.state_dict() == b.state_dict()

    def test_percentile_extremes_exact_on_subsampled_reservoir(self):
        import random

        rng = random.Random(0)
        histogram = Histogram("lat", reservoir_size=8)
        values = [rng.uniform(10.0, 100.0) for _ in range(1000)]
        for value in values:
            histogram.add(value)
        assert histogram.percentile(0.0) == min(values)
        assert histogram.percentile(1.0) == max(values)

    def test_percentile_extremes_empty_and_single_sample(self):
        empty = Histogram("e")
        assert empty.percentile(0.0) == 0.0
        assert empty.percentile(1.0) == 0.0
        single = Histogram("s")
        single.add(5.5)
        assert single.percentile(0.0) == 5.5
        assert single.percentile(1.0) == 5.5
        assert single.percentile(0.5) == 5.5

    def test_legacy_sample_list_payload_still_loads(self):
        collector = StatsCollector.from_dict(
            {"counters": {"x": 2.0}, "histograms": {"lat": [1.0, 3.0, 2.0]}}
        )
        histogram = collector.histogram("lat")
        assert histogram.count == 3
        assert histogram.mean == pytest.approx(2.0)
        assert histogram.maximum == 3.0

    def test_collector_roundtrip_preserves_histogram_state(self):
        collector = StatsCollector()
        for i in range(4000):
            collector.sample("lat", float(i % 101))
        clone = StatsCollector.from_dict(collector.to_dict())
        assert clone.to_dict() == collector.to_dict()
        assert clone.histogram("lat").percentile(0.5) == collector.histogram(
            "lat"
        ).percentile(0.5)


class PerSampleHistogram:
    """Reference model: Algorithm R folded one sample per ``add``, with the
    histogram's own LCG, seed and state layout."""

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, name, reservoir_size):
        self.histogram = Histogram(name, reservoir_size)  # for the seed only
        self.load_state(self.histogram.state_dict())

    def add(self, value):
        count = self.count
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if count < self.reservoir_size:
            self.reservoir.append(value)
            return
        self.rng_state = (self.rng_state * self.MULTIPLIER + self.INCREMENT) & self.MASK
        slot = (self.rng_state >> 33) % (count + 1)
        if slot < self.reservoir_size:
            self.reservoir[slot] = value

    def state_dict(self):
        return {"count": self.count, "total": self.total,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "reservoir": list(self.reservoir),
                "reservoir_size": self.reservoir_size, "rng_state": self.rng_state}

    def load_state(self, state):
        self.count = state["count"]
        self.total = state["total"]
        self.min = math.inf if state["min"] is None else state["min"]
        self.max = -math.inf if state["max"] is None else state["max"]
        self.reservoir = list(state["reservoir"])
        self.reservoir_size = state["reservoir_size"]
        self.rng_state = state["rng_state"]


#: Reservoir and LCG state of a 4-slot reservoir after the samples 0.0..11.0.
FIXED_RESERVOIR = [5.0, 10.0, 7.0, 3.0]
FIXED_RNG_STATE = 4784348634721014858

#: Stream positions around the reservoir size and a few multiples of it.
_EDGES = [1, 2047, 2048, 2049, 4095, 4096, 4097, 6143, 6144, 6145, 8192, 10_240]

#: Reads, each checked against the reference.
_READS = {
    "state_dict": lambda h, ref: h.state_dict() == ref.state_dict(),
    "count": lambda h, ref: h.count == ref.count,
    "samples": lambda h, ref: list(h.samples) == ref.reservoir,
    "maximum": lambda h, ref: h.percentile(1.0) == (ref.max if ref.count else 0.0),
}


class TestReservoirMatchesPerSampleReference:
    """Algorithm R's replacement step under the bit-identity contract: the
    pinned digest grid never draws past the 2,048-sample reservoir."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        length=st.one_of(st.sampled_from(_EDGES + [20_000]), st.integers(1, 20_000)),
        reads=st.lists(st.one_of(st.sampled_from(_EDGES), st.integers(0, 20_000)),
                       max_size=6),
        reload_at=st.one_of(st.none(), st.sampled_from(_EDGES), st.integers(0, 20_000)),
        reservoir_size=st.sampled_from([2048, 2048, 1, 300]),
        read=st.sampled_from(sorted(_READS)),
    )
    @settings(max_examples=40, deadline=None)
    def test_state_is_bit_identical_at_every_read(self, seed, length, reads,
                                                  reload_at, reservoir_size, read):
        import json
        import random

        rng = random.Random(seed)
        histogram = Histogram("request_latency", reservoir_size)
        reference = PerSampleHistogram("request_latency", reservoir_size)
        reads = set(reads)
        for position in range(length):
            if position == reload_at:
                # Resume the stream in a fresh histogram from a JSON snapshot.
                state = json.loads(json.dumps(histogram.state_dict()))
                histogram = Histogram("request_latency", reservoir_size)
                histogram.add(-2.0)
                histogram.load_state(state)
            if position in reads:
                assert _READS[read](histogram, reference)
            value = rng.choice((rng.random() * 1e4, float(rng.randrange(50)), 0.0))
            histogram.add(value)
            reference.add(value)
        assert (json.dumps(histogram.state_dict(), sort_keys=True)
                == json.dumps(reference.state_dict(), sort_keys=True))

    def test_reference_pins_the_replacement_step(self):
        """A fixed stream's reservoir, independent of both implementations."""
        histogram = Histogram("request_latency", reservoir_size=4)
        for i in range(12):
            histogram.add(float(i))
        state = histogram.state_dict()
        assert state["reservoir"] == FIXED_RESERVOIR
        assert state["rng_state"] == FIXED_RNG_STATE
        reference = PerSampleHistogram("request_latency", reservoir_size=4)
        for i in range(12):
            reference.add(float(i))
        assert reference.state_dict() == state


class TestHelpers:
    def test_ratio_handles_zero(self):
        assert ratio(1.0, 0.0) == 0.0
        assert ratio(6.0, 3.0) == 2.0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)  # zeros are skipped
