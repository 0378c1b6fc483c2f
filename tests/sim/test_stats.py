"""Unit tests for the statistics collector."""

import json
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.stats import Counter, Histogram, StatsCollector, geometric_mean


class TestCounter:
    def test_add(self):
        counter = Counter("c")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5


class TestDerivedCounter:
    def test_value_is_the_sum_of_its_parts_when_read(self):
        stats = StatsCollector()
        stats.counter("total")
        reads, writes = stats.counter("reads"), stats.counter("writes")
        total = stats.derived("total", (reads, writes))
        assert total.value == 0.0 and type(total.value) is float
        reads.add(3)
        writes.add()
        assert stats.get("total") == 4.0
        # Replacing the placeholder kept its place in the record.
        assert stats.to_dict()["counters"] == {"total": 4.0, "reads": 3.0, "writes": 1.0}

    def test_pickles_and_round_trips_as_a_plain_counter(self):
        stats = StatsCollector()
        reads = stats.counter("reads")
        stats.derived("total", (reads,))
        reads.add(2)
        copied = pickle.loads(pickle.dumps(stats))
        assert type(copied.counters["total"]) is Counter
        assert copied.get("total") == 2.0
        rebuilt = StatsCollector.from_dict(stats.to_dict())
        assert rebuilt.get("total") == 2.0

    def test_cannot_be_added_to(self):
        stats = StatsCollector()
        stats.derived("total", (stats.counter("reads"),))
        with pytest.raises(AttributeError):
            stats.add("total")


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
        assert histogram.minimum == 0.0

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1, max_size=100))
    @settings(max_examples=50, deadline=None)
    def test_mean_bounded_by_extremes(self, values):
        histogram = Histogram("h")
        for value in values:
            histogram.add(value)
        assert histogram.minimum - 1e-6 <= histogram.mean <= histogram.maximum + 1e-6

    @pytest.mark.parametrize("field", ["count", "total", "min", "max"])
    def test_load_state_requires_every_field(self, field):
        histogram = Histogram("h")
        histogram.add(5.0)
        state = histogram.state_dict()
        del state[field]
        with pytest.raises(KeyError):
            Histogram("h").load_state(state)


class TestStatsCollector:
    def test_counters(self):
        stats = StatsCollector()
        stats.add("requests")
        stats.add("requests", 2)
        assert stats.get("requests") == 3
        assert stats.get("missing", default=-1) == -1

    def test_histograms(self):
        stats = StatsCollector()
        stats.histogram("latency").add(10.0)
        stats.histogram("latency").add(20.0)
        assert stats.histogram("latency").mean == 15.0

    def test_as_dict(self):
        stats = StatsCollector()
        stats.add("x", 4)
        stats.histogram("lat").add(2.0)
        summary = stats.as_dict()
        assert summary["x"] == 4
        assert summary["lat.mean"] == 2.0
        assert summary["lat.count"] == 1

    @pytest.mark.parametrize("field", ["counters", "histograms", "breakdown"])
    def test_from_dict_requires_every_field(self, field):
        stats = StatsCollector()
        stats.add("x")
        stats.histogram("lat").add(2.0)
        stats.add_breakdown({"flash": 3.0})
        payload = stats.to_dict()
        del payload[field]
        with pytest.raises(KeyError):
            StatsCollector.from_dict(payload)


class TestStreamingHistogram:
    """The streaming histogram: O(1) state, exact aggregates."""

    def test_sweep_histograms_hold_exact_aggregates_only(self):
        """Every histogram of a real sweep keeps exactly count/total/min/max,
        and counts one sample per request, on the platforms with and without
        the read path and on the embedded-SSD baseline."""
        from repro.runner import SweepSpec, run_sweep

        spec = SweepSpec.create(platforms=["ZnG-base", "ZnG", "HybridGPU"],
                                workloads=["betw-back", "bfs1-gaus"],
                                scale=0.08, warps_per_sm=2)
        result = run_sweep(spec, workers=1)
        assert len(result) == 6
        for run in result:
            stats = run.result.stats
            assert stats.histograms
            for histogram in stats.histograms.values():
                state = histogram.state_dict()
                assert set(state) == {"count", "total", "min", "max"}
                assert state["min"] <= histogram.mean <= state["max"]
            assert stats.histogram("request_latency").count == stats.get("requests") > 0

    def test_aggregates_exact_beyond_capacity(self):
        histogram = Histogram("h")
        values = [float((7 * i) % 1000) for i in range(10_000)]
        for value in values:
            histogram.add(value)
        assert histogram.count == len(values)
        assert histogram.total == pytest.approx(sum(values))
        assert histogram.mean == pytest.approx(sum(values) / len(values))
        assert histogram.minimum == min(values)
        assert histogram.maximum == max(values)

    def test_state_roundtrip_is_exact_and_resumable(self):
        original = Histogram("lat")
        for i in range(100):
            original.add(float(i % 17))
        restored = Histogram("lat")
        restored.load_state(original.state_dict())
        assert restored.state_dict() == original.state_dict()
        # Continuing the stream on both produces identical states: cached
        # and fresh sweep runs cannot diverge.
        for i in range(100):
            original.add(float(i))
            restored.add(float(i))
        assert restored.state_dict() == original.state_dict()

    def test_empty_state_is_json_safe_and_roundtrips(self):
        state = Histogram("lat").state_dict()
        assert state == {"count": 0, "total": 0.0, "min": None, "max": None}
        restored = Histogram("lat")
        restored.load_state(json.loads(json.dumps(state, allow_nan=False)))
        assert (restored.count, restored.minimum, restored.maximum) == (0, 0.0, 0.0)
        restored.add(-2.0)
        assert restored.minimum == restored.maximum == -2.0

    def test_state_size_does_not_grow_with_the_stream(self):
        histogram = Histogram("lat")
        histogram.add(1.0)
        short = histogram.state_dict()
        for i in range(50_000):
            histogram.add(float(i % 13))
        assert histogram.state_dict().keys() == short.keys()
        assert len(json.dumps(histogram.state_dict())) < 80

    def test_same_stream_same_name_is_deterministic(self):
        a, b = Histogram("x"), Histogram("x")
        for i in range(500):
            a.add(float(i * 3 % 97))
            b.add(float(i * 3 % 97))
        assert a.state_dict() == b.state_dict()

    def test_collector_roundtrip_preserves_histogram_state(self):
        collector = StatsCollector()
        for i in range(4000):
            collector.histogram("lat").add(float(i % 101))
        clone = StatsCollector.from_dict(collector.to_dict())
        assert clone.to_dict() == collector.to_dict()


class TestHelpers:
    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)  # zeros are skipped
