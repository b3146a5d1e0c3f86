"""Histogram percentile estimation and the stall-observability hooks.

The interpolation bug this tier pins down: with a handful of samples, a
naive bucket interpolation reads far above every real observation (one
sample of 3 in a ``(2, 64]`` bucket "estimates" ~64 at any quantile).
``max_observed`` clamps every bucket's upper bound, so small-sample
percentiles can never exceed what was actually seen.
"""

import pytest

from repro.obs import (
    PAGES_EDGES,
    MetricsRegistry,
    StoreObserver,
    percentile_from_buckets,
)
from repro.policies import make_policy
from repro.store import LogStructuredStore, StoreConfig
from repro.workloads import UniformWorkload


def drive(store, n_writes, seed=3):
    wl = UniformWorkload(store.config.user_pages, seed=seed)
    for batch in wl.batches(n_writes):
        for pid in batch:
            store.write(int(pid))


class TestPercentileFromBuckets:
    def test_empty_histogram_is_zero(self):
        assert percentile_from_buckets((1, 2, 4), (0, 0, 0, 0), 0.99) == 0.0

    def test_quantile_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile_from_buckets((1, 2), (1, 1, 0), 1.5)
        with pytest.raises(ValueError):
            percentile_from_buckets((1, 2), (1, 1, 0), -0.1)

    def test_interpolates_within_covering_bucket(self):
        # 100 observations in (10, 20]: the median interpolates to the
        # bucket midpoint, p99 to just under the upper edge.
        edges = (10.0, 20.0)
        counts = (0, 100, 0)
        assert percentile_from_buckets(edges, counts, 0.5) == pytest.approx(15.0)
        assert percentile_from_buckets(edges, counts, 0.99) == pytest.approx(19.9)

    def test_crosses_buckets_in_order(self):
        edges = (1.0, 2.0, 4.0)
        counts = (50, 25, 25, 0)
        # First 50% fills [0, 1]; q=0.25 lands mid-first-bucket.
        assert percentile_from_buckets(edges, counts, 0.25) == pytest.approx(0.5)
        # q=0.75 exactly exhausts the (1, 2] bucket.
        assert percentile_from_buckets(edges, counts, 0.75) == pytest.approx(2.0)
        assert percentile_from_buckets(edges, counts, 1.0) == pytest.approx(4.0)

    def test_small_sample_clamped_by_hi(self):
        # THE small-count fix: one sample of 3 in a (2, 64] bucket must
        # estimate 3 at every quantile once hi is tracked — not ~64.
        edges = (2.0, 64.0)
        counts = (0, 1, 0)
        naive = percentile_from_buckets(edges, counts, 0.99)
        clamped = percentile_from_buckets(edges, counts, 0.99, hi=3.0)
        assert naive > 60.0
        assert 2.0 <= clamped <= 3.0

    def test_overflow_bucket_bounded_by_hi(self):
        edges = (1.0, 2.0)
        counts = (0, 0, 5)  # everything beyond the last edge
        assert percentile_from_buckets(edges, counts, 0.99, hi=7.0) <= 7.0
        # Without hi the last edge is the only finite bound.
        assert percentile_from_buckets(edges, counts, 0.99) == pytest.approx(2.0)

    def test_q1_returns_hi(self):
        edges = (1.0, 2.0, 4.0)
        counts = (1, 1, 1, 1)
        assert percentile_from_buckets(edges, counts, 1.0, hi=3.5) == 3.5


class TestHistogramPercentiles:
    def test_max_observed_tracked(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", (1, 2, 4))
        for v in (0.5, 3.0, 1.5):
            h.observe(v)
        assert h.max_observed == 3.0

    def test_percentile_never_exceeds_max_observed(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", (2, 64, 4096))
        h.observe(3.0)
        for q in (0.5, 0.9, 0.99, 0.999, 1.0):
            assert h.percentile(q) <= 3.0

    def test_percentile_matches_dense_population(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", tuple(range(1, 101)))
        for v in range(1, 101):
            h.observe(float(v))
        # Unit-wide buckets: the estimate tracks the exact quantile
        # within one bucket width.
        assert h.percentile(0.99) == pytest.approx(99.0, abs=1.0)
        assert h.percentile(0.5) == pytest.approx(50.0, abs=1.0)

    def test_empty_percentile_is_zero(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", (1, 2))
        assert h.percentile(0.99) == 0.0

    def test_snapshot_to_dict_carries_p99_p999(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", (1, 2, 4))
        h.observe(1.0)
        h.observe(3.0)
        row = reg.snapshot().to_dict()
        hist = row["histograms"]["h"]
        assert "p99" in hist and "p999" in hist
        assert hist["p99"] <= 4.0
        assert hist["count"] == 2

    def test_snapshot_format_unchanged(self):
        """The 4-tuple snapshot wire format must not grow: downstream
        delta() and exports index it positionally."""
        reg = MetricsRegistry()
        h = reg.histogram("h", (1, 2))
        h.observe(1.0)
        snap = reg.snapshot().histograms["h"]
        assert len(snap) == 4
        edges, counts, total, count = snap
        assert edges == (1.0, 2.0)
        assert sum(counts) == count == 1


class TestStallHooks:
    def _observed_store(self):
        cfg = StoreConfig(
            n_segments=16, segment_units=8, fill_factor=0.6,
            clean_trigger=2, clean_batch=2,
        )
        store = LogStructuredStore(cfg, make_policy("greedy"))
        observer = StoreObserver(store).attach()
        return store, observer

    def test_reactive_stall_recorded(self):
        store, observer = self._observed_store()
        drive(store, 1500)
        counters = observer.metrics.snapshot().counters
        assert counters.get("write_stalls", 0) > 0
        hist = observer.metrics.histogram("write_stall_pages")
        assert hist.count == counters["write_stalls"]

    def test_clean_step_metrics_recorded(self):
        store, observer = self._observed_store()
        drive(store, 600)
        if store.sealed_segments().size == 0 or store.free_segment_count == 0:
            pytest.skip("nothing cleanable at this geometry")
        store.clean_begin()
        while store.clean_cursor is not None:
            store.clean_step(2)
        counters = observer.metrics.snapshot().counters
        assert counters.get("cleaner_steps", 0) > 0
        hist = observer.metrics.histogram("cleaner_step_pages")
        assert hist.edges == tuple(float(e) for e in PAGES_EDGES)
        # The cycle drained: the pending gauge must read 0 again.
        gauges = observer.metrics.snapshot().gauges
        assert gauges.get("cleaner_pending") == 0

    def test_no_step_events_flood_the_ring(self):
        """Steps are metrics-only: a cycle driven one page at a time
        adds one decision record to the bounded ring, however many
        steps it took."""
        store, observer = self._observed_store()
        drive(store, 600)
        if store.sealed_segments().size == 0 or store.free_segment_count == 0:
            pytest.skip("nothing cleanable at this geometry")
        before = len(observer.decisions)
        steps_before = observer.metrics.snapshot().counters.get("cleaner_steps", 0)
        store.clean_begin()
        steps = 0
        while store.clean_cursor is not None:
            store.clean_step(1)
            steps += 1
        assert steps >= 2
        assert len(observer.decisions) - before == 1
        counters = observer.metrics.snapshot().counters
        assert counters["cleaner_steps"] - steps_before == steps
