"""Unit tests for the statistics collector."""

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

    def test_merge(self):
        a = StatsCollector()
        b = StatsCollector()
        a.add("x", 1)
        b.add("x", 2)
        b.sample("lat", 5.0)
        b.add_breakdown({"c": 10.0})
        a.merge(b)
        assert a.get("x") == 3
        assert a.histogram("lat").count == 1
        assert a.breakdown["c"] == 10.0

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

    def test_merge_keeps_aggregates_exact(self):
        a, b = Histogram("m", reservoir_size=32), Histogram("m", reservoir_size=32)
        for i in range(200):
            a.add(float(i))
        for i in range(300):
            b.add(float(1000 + i))
        a.merge(b)
        assert a.count == 500
        assert a.total == pytest.approx(sum(range(200)) + sum(1000 + i for i in range(300)))
        assert a.minimum == 0.0 and a.maximum == 1299.0
        assert len(a.samples) <= 32

    def test_merge_weights_subsampled_reservoirs(self):
        """A 50-sample shard must not drag the percentiles of a 100k shard.

        Unweighted reservoir concatenation gives the small shard
        len(small)/len(merged) of the slots instead of its true
        count-proportional weight, visibly skewing p50.
        """
        import random

        big = Histogram("m", reservoir_size=256)
        rng = random.Random(11)
        for _ in range(100_000):
            big.add(rng.random() * 1000.0)  # uniform 0..1000, true p50 ~500
        small = Histogram("m", reservoir_size=256)
        for _ in range(50):
            small.add(1e6)
        big.merge(small)
        assert big.count == 100_050
        assert big.maximum == 1e6
        # Weighted merge keeps p50 where 100k of the 100 050 samples put it;
        # the unweighted concat shifted it to ~595 in this construction.
        assert 440.0 <= big.percentile(0.5) <= 560.0

    def test_merge_into_empty_copies_state(self):
        a, b = Histogram("m"), Histogram("m")
        for value in [3.0, 1.0, 2.0]:
            b.add(value)
        a.merge(b)
        assert a.state_dict() == b.state_dict()

    def test_merge_into_empty_keeps_own_identity(self):
        """An empty merge target keeps its reservoir capacity and RNG stream.

        The old path ``load_state(other.state_dict())`` silently adopted the
        *other* histogram's ``reservoir_size`` and RNG state, so the merged
        result depended on which operand happened to be empty.
        """
        small_source = Histogram("src", reservoir_size=8)
        for i in range(100):
            small_source.add(float(i))
        target = Histogram("dst", reservoir_size=64)
        own_rng = target.state_dict()["rng_state"]
        target.merge(small_source)
        assert target.reservoir_size == 64
        assert target.state_dict()["rng_state"] == own_rng
        assert target.count == 100
        assert target.minimum == 0.0 and target.maximum == 99.0
        # add() relies on len(reservoir) == min(count, reservoir_size).
        assert len(target.samples) == min(target.count, target.reservoir_size)
        for i in range(200):
            target.add(float(i))  # must not raise or overflow the reservoir
        assert len(target.samples) <= target.reservoir_size

    def test_merge_fresh_vs_restored_bit_identical(self):
        """Merging a restored histogram must equal merging the original."""
        import json

        source = Histogram("a", reservoir_size=16)
        for i in range(500):
            source.add(float((i * 13) % 271))
        other = Histogram("b", reservoir_size=16)
        for i in range(120):
            other.add(float(i) * 2.5)

        fresh = Histogram("a", reservoir_size=16)
        for i in range(500):
            fresh.add(float((i * 13) % 271))
        restored = Histogram("a", reservoir_size=16)
        restored.load_state(json.loads(json.dumps(source.state_dict())))

        fresh.merge(other)
        restored.merge(other)
        assert fresh.state_dict() == restored.state_dict()

    def test_merge_never_overfills_reservoir(self):
        """len(reservoir) stays min(count, size) even for lopsided merges."""
        subsampled = Histogram("s", reservoir_size=4)
        for i in range(10):
            subsampled.add(float(i))
        target = Histogram("t", reservoir_size=64)
        target.add(1.0)
        target.add(2.0)
        target.merge(subsampled)
        assert target.count == 12
        assert len(target.samples) == min(target.count, target.reservoir_size)
        for i in range(100):
            target.add(float(i))
        assert len(target.samples) <= target.reservoir_size
        assert target.count == 112

    @given(
        streams=st.lists(
            st.lists(st.floats(min_value=-1e6, max_value=1e6),
                     min_size=0, max_size=60),
            min_size=2, max_size=3,
        ),
        size=st.sampled_from([4, 16, 2048]),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_commutes_and_associates_on_retained_aggregates(
        self, streams, size
    ):
        """count/total/min/max agree for any merge order; reservoirs agree
        as multisets for commuted operands."""

        def build(stream):
            histogram = Histogram("p", reservoir_size=size)
            for value in stream:
                histogram.add(value)
            return histogram

        def aggregates(histogram):
            return (histogram.count, histogram.minimum, histogram.maximum,
                    pytest.approx(histogram.total, rel=1e-9, abs=1e-6))

        left = build(streams[0])
        for stream in streams[1:]:
            left.merge(build(stream))
        right_tail = build(streams[-1])
        for stream in reversed(streams[:-1]):
            tail_owner = build(stream)
            tail_owner.merge(right_tail)
            right_tail = tail_owner
        assert aggregates(left) == aggregates(right_tail)

        ab, ba = build(streams[0]), build(streams[1])
        ab.merge(build(streams[1]))
        ba.merge(build(streams[0]))
        assert aggregates(ab) == aggregates(ba)
        assert sorted(ab.samples) == sorted(ba.samples)

    @given(
        stream_a=st.lists(st.floats(min_value=0, max_value=1e6),
                          min_size=1, max_size=80),
        stream_b=st.lists(st.floats(min_value=0, max_value=1e6),
                          min_size=0, max_size=80),
    )
    @settings(max_examples=40, deadline=None)
    def test_merge_deterministic_across_state_roundtrip(self, stream_a, stream_b):
        """merge(load(save(A)), load(save(B))) == merge(A, B), bit for bit."""
        import json

        def build(name, stream):
            histogram = Histogram(name, reservoir_size=8)
            for value in stream:
                histogram.add(value)
            return histogram

        direct = build("a", stream_a)
        direct.merge(build("b", stream_b))

        via_roundtrip = Histogram("a", reservoir_size=8)
        via_roundtrip.load_state(
            json.loads(json.dumps(build("a", stream_a).state_dict())))
        other = Histogram("b", reservoir_size=8)
        other.load_state(
            json.loads(json.dumps(build("b", stream_b).state_dict())))
        via_roundtrip.merge(other)
        assert via_roundtrip.state_dict() == direct.state_dict()

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


class TestHelpers:
    def test_ratio_handles_zero(self):
        assert ratio(1.0, 0.0) == 0.0
        assert ratio(6.0, 3.0) == 2.0

    def test_geometric_mean(self):
        assert geometric_mean([2.0, 8.0]) == pytest.approx(4.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([0.0, 4.0]) == pytest.approx(4.0)  # zeros are skipped
