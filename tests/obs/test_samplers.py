"""Clock-keyed time-series sampling."""

import pytest

from repro.obs import TimeSeriesSampler, default_interval
from repro.obs.samplers import HIST_BUCKETS
from repro.policies import make_policy
from repro.store import LogStructuredStore


@pytest.fixture
def loaded_store(small_config):
    store = LogStructuredStore(small_config, make_policy("greedy"))
    store.load_sequential(small_config.user_pages)
    return store


class TestMarks:
    def test_default_interval_is_quarter_of_user_pages(self, loaded_store):
        assert default_interval(loaded_store) == max(
            1, loaded_store.config.user_pages // 4
        )

    def test_samples_land_on_clock_marks(self, loaded_store):
        n = loaded_store.config.user_pages
        sampler = TimeSeriesSampler(loaded_store, interval=100)
        assert sampler.maybe_sample() is None  # next mark not reached yet
        start = loaded_store.clock
        for i in range(250):
            loaded_store.write(i % n)
            sampler.maybe_sample()
        clocks = [row["clock"] for row in sampler.samples]
        # Sampling after every single write lands exactly on the marks.
        first_mark = (start // 100 + 1) * 100
        expected = list(range(first_mark, loaded_store.clock + 1, 100))
        assert clocks == expected

    def test_same_interval_aligns_across_seeds(self, small_config):
        """Two runs with different write orders sample at the same
        clocks — what makes curves averageable across a sweep."""
        clocks = []
        for seed in (1, 2):
            store = LogStructuredStore(small_config, make_policy("greedy"))
            store.load_sequential(small_config.user_pages)
            sampler = TimeSeriesSampler(store, interval=64)
            n = small_config.user_pages
            for i in range(300):
                store.write((i * (seed + 2)) % n)
                sampler.maybe_sample()
            clocks.append([row["clock"] for row in sampler.samples])
        assert clocks[0] == clocks[1]

    def test_interval_must_be_positive(self, loaded_store):
        with pytest.raises(ValueError):
            TimeSeriesSampler(loaded_store, interval=0)


class TestRows:
    def test_sample_now_dedupes_unchanged_clock(self, loaded_store):
        sampler = TimeSeriesSampler(loaded_store)
        assert sampler.sample_now() is not None
        assert sampler.sample_now() is None
        assert len(sampler.samples) == 1

    def test_row_contents(self, loaded_store):
        n = loaded_store.config.user_pages
        sampler = TimeSeriesSampler(loaded_store, interval=10)
        for i in range(2000):
            loaded_store.write((i * 3) % n)
        row = sampler.sample_now()
        assert row["type"] == "sample"
        assert row["clock"] == loaded_store.clock
        assert row["user_writes"] == loaded_store.stats.user_writes
        assert len(row["emptiness_hist"]) == HIST_BUCKETS
        assert row["fill"] == pytest.approx(loaded_store.fill_factor_now())
        assert row["free_segments"] == loaded_store.free_segment_count
        assert row["wamp_win"] >= 0.0
        assert row["device_wamp_win"] >= row["wamp_win"]

    def test_windowed_wamp_is_since_previous_sample(self, loaded_store):
        n = loaded_store.config.user_pages
        sampler = TimeSeriesSampler(loaded_store, interval=10)
        first = sampler.sample_now()
        assert first["wamp_win"] == 0.0  # nothing happened since init
        gc_before = loaded_store.stats.gc_writes
        user_before = loaded_store.stats.user_writes
        for i in range(3000):
            loaded_store.write((i * 3) % n)
        row = sampler.sample_now()
        gc = loaded_store.stats.gc_writes - gc_before
        user = loaded_store.stats.user_writes - user_before
        assert row["wamp_win"] == pytest.approx(gc / user)
        # While the cumulative figure still includes the load phase.
        assert row["wamp_cum"] == pytest.approx(
            loaded_store.stats.gc_writes / loaded_store.stats.user_writes
        )
