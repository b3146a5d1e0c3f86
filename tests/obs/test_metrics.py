"""Counters / gauges / histograms and their snapshots."""

import pytest

from repro.obs import Counter, Gauge, Histogram, MetricsRegistry


class TestInstruments:
    def test_counter_increases_only(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_is_instantaneous(self):
        g = Gauge()
        g.set(7)
        g.set(3.5)
        assert g.value == 3.5

    def test_histogram_bucketing(self):
        h = Histogram(edges=(0.1, 0.5, 1.0))
        for v in (0.05, 0.1, 0.3, 0.9, 2.0):
            h.observe(v)
        # value <= edge lands in that bucket; 2.0 overflows.
        assert h.bucket_counts == [2, 1, 1, 1]
        assert h.count == 5
        assert h.mean == pytest.approx((0.05 + 0.1 + 0.3 + 0.9 + 2.0) / 5)

    def test_bucket_search_equals_the_linear_scan(self):
        """``observe`` bisects; the rule stays "first edge >= value",
        on every edge, either side of it, and past both ends."""
        edges = (0.0, 1.0, 2.0, 4.0, 8.0)
        values = [-1.0, 9.0, 100] + [e + d for e in edges for d in (-0.5, 0, 0.5)]
        h = Histogram(edges)
        expected = [0] * (len(edges) + 1)
        for value in values:
            h.observe(value)
            expected[
                next((i for i, e in enumerate(edges) if value <= e), len(edges))
            ] += 1
        assert h.bucket_counts == expected

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram(edges=())
        with pytest.raises(ValueError):
            Histogram(edges=(0.5, 0.5))
        with pytest.raises(ValueError):
            Histogram(edges=(1.0, 0.5))


class TestRegistry:
    def test_instruments_created_on_first_use(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc()
        assert reg.counter("a").value == 2
        assert reg.names() == ["a"]

    def test_histogram_needs_edges_on_creation(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError):
            reg.histogram("h")
        reg.histogram("h", edges=(1.0, 2.0)).observe(1.5)
        assert reg.histogram("h").count == 1
        with pytest.raises(ValueError):
            reg.histogram("h", edges=(1.0, 3.0))
        # The same edges in any spelling are the same histogram.
        for same in ((1.0, 2.0), [1, 2], (1, 2.0)):
            assert reg.histogram("h", edges=same) is reg.histogram("h")
        with pytest.raises(ValueError):
            reg.histogram("h", edges=[1, 2, 3])

    def test_snapshot_is_immutable_copy(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(2)
        snap = reg.snapshot()
        reg.counter("c").inc(5)
        assert snap.counters["c"] == 2
        assert reg.snapshot().counters["c"] == 7


class TestWindowing:
    """A snapshot's export form (windows over store stats come from
    ``StatsSnapshot.delta``)."""

    def test_to_dict_round_trips_shape(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        reg.gauge("g").set(1.5)
        reg.histogram("h", edges=(1.0,)).observe(0.2)
        d = reg.snapshot().to_dict()
        assert d["counters"] == {"c": 1}
        assert d["gauges"] == {"g": 1.5}
        assert d["histograms"]["h"]["counts"] == [1, 0]
        assert d["histograms"]["h"]["edges"] == [1.0]
