"""Erase-count (flash wear) tracking."""

import pytest

from repro.policies import make_policy
from repro.store import LogStructuredStore


class TestWear:
    def test_fresh_store_has_no_wear(self, tiny_config):
        store = LogStructuredStore(tiny_config, make_policy("greedy"))
        summary = store.wear_summary()
        assert summary["total_erases"] == 0
        assert summary["cv"] == 0.0

    def test_cleaning_increments_erases(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        store.load_sequential(small_config.user_pages)
        victim = store.sealed_segments()[0]
        for pid in store.pages.live_pages_of(store.segments, victim)[:4]:
            store.write(pid)
        store.policy.select_victims = lambda c, n=None, deficit=0, page_cap=None: [victim]
        store.clean()
        assert store.segments.erase_count[victim] == 1
        assert store.wear_summary()["total_erases"] == 1

    def test_total_erases_equals_segments_cleaned(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        n = small_config.user_pages
        store.load_sequential(n)
        for i in range(20_000):
            store.write((i * 11) % n)
        assert (
            store.wear_summary()["total_erases"]
            == store.stats.segments_cleaned
        )

    def test_wear_spreads_across_segments(self, small_config):
        store = LogStructuredStore(small_config, make_policy("age"))
        n = small_config.user_pages
        store.load_sequential(n)
        for i in range(30_000):
            store.write((i * 11) % n)
        summary = store.wear_summary()
        # Age-based cleaning is a circular buffer: the most even wear a
        # policy can achieve.
        assert summary["max"] - summary["min"] <= 3
        assert summary["cv"] < 0.3
