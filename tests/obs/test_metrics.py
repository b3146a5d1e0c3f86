"""Counters / gauges / histograms and their snapshot-delta windowing."""

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
    def test_counters_and_buckets_subtract_gauges_stay(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(10)
        reg.histogram("h", edges=(1.0,)).observe(0.5)
        earlier = reg.snapshot()

        reg.counter("c").inc(4)
        reg.gauge("g").set(99)
        reg.histogram("h").observe(0.7)
        reg.histogram("h").observe(5.0)

        window = reg.window_since(earlier)
        assert window.counters["c"] == 4
        assert window.gauges["g"] == 99
        edges, buckets, total, count = window.histograms["h"]
        assert buckets == (1, 1)
        assert count == 2
        assert total == pytest.approx(0.7 + 5.0)

    def test_instruments_absent_earlier_count_from_zero(self):
        reg = MetricsRegistry()
        earlier = reg.snapshot()
        reg.counter("new").inc(2)
        reg.histogram("h", edges=(1.0,)).observe(0.5)
        window = reg.window_since(earlier)
        assert window.counters["new"] == 2
        assert window.histograms["h"][3] == 1

    def test_changed_edges_raise(self):
        a = MetricsRegistry()
        a.histogram("h", edges=(1.0,))
        b = MetricsRegistry()
        b.histogram("h", edges=(2.0,))
        with pytest.raises(ValueError):
            b.snapshot().delta(a.snapshot())

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
