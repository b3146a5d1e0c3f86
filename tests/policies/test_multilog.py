"""Multi-log policy: frequency classes, routing, demotion, locality."""

import numpy as np
import pytest

from repro.policies import MultiLogPolicy, make_policy
from repro.policies.multilog import _COLD_CLASS
from repro.store import LogStructuredStore, StoreConfig


def place_gc(policy, page_ids, src_segs):
    """``place_gc_batch`` as ``(page, stream)`` pairs in emission order."""
    pids, streams = policy.place_gc_batch(
        np.asarray(page_ids, dtype=np.int64), np.asarray(src_segs, dtype=np.int64)
    )
    assert streams.dtype == np.int64
    return list(zip(pids.tolist(), streams.tolist()))


@pytest.fixture
def store_and_policy():
    cfg = StoreConfig(
        n_segments=64, segment_units=8, fill_factor=0.6,
        clean_trigger=2, clean_batch=2,
    )
    policy = MultiLogPolicy(exact=False, max_logs=8)
    return LogStructuredStore(cfg, policy), policy


class TestClasses:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            MultiLogPolicy(max_logs=0)
        with pytest.raises(ValueError):
            MultiLogPolicy(class_base=1.0)

    def test_starts_with_one_log(self, store_and_policy):
        _, policy = store_and_policy
        assert policy.n_logs == 1

    def test_classes_created_lazily(self, store_and_policy):
        store, policy = store_and_policy
        store.write(0)  # first write: no history -> cold class
        n0 = policy.n_logs
        store.write(0)  # interval 1 -> very hot class
        store.route = None
        assert policy.n_logs >= n0

    def test_class_of_is_log_scale(self, store_and_policy):
        _, policy = store_and_policy
        # base 4: frequencies within a factor of 4 share a class.
        c1 = policy._class_of(0.5)
        c2 = policy._class_of(0.3)
        c3 = policy._class_of(0.01)
        assert c1 == c2
        assert c3 < c1

    def test_class_cap_clamps_to_nearest(self):
        cfg = StoreConfig(
            n_segments=256, segment_units=8, fill_factor=0.5,
            clean_trigger=2, clean_batch=2,
        )
        policy = MultiLogPolicy(max_logs=2)
        LogStructuredStore(cfg, policy)
        a = policy._class_of(1.0)
        b = policy._class_of(1e-9)
        assert policy.n_logs == 2
        mid = policy._class_of(2.0 ** -6)
        assert mid in (a, b)

    def test_effective_cap_respects_device_slack(self):
        cfg = StoreConfig(
            n_segments=32, segment_units=8, fill_factor=0.7,
            clean_trigger=2, clean_batch=2,
        )
        policy = MultiLogPolicy(max_logs=16)
        LogStructuredStore(cfg, policy)
        # slack is ~9.6 segments; the cap must leave room for open
        # segments plus the free reserve.
        assert policy._max_logs_effective < 16


class TestEstimation:
    def test_first_write_routes_cold(self, store_and_policy):
        store, policy = store_and_policy
        store.pages.ensure(0)
        assert policy._freq(0) == 0.0

    def test_frequency_is_inverse_interval(self, store_and_policy):
        store, policy = store_and_policy
        store.write(0)
        for pid in range(1, 11):
            store.write(pid)
        assert policy._freq(0) == pytest.approx(1.0 / 10)

    def test_exact_variant_reads_oracle(self):
        cfg = StoreConfig(
            n_segments=64, segment_units=8, fill_factor=0.6,
            clean_trigger=2, clean_batch=2,
        )
        policy = MultiLogPolicy(exact=True)
        store = LogStructuredStore(cfg, policy)
        store.set_oracle_frequencies([0.25, 0.75])
        assert policy._freq(1) == 0.75


class TestPlacement:
    def test_hot_and_cold_pages_use_different_streams(self, store_and_policy):
        store, policy = store_and_policy
        n = store.config.user_pages
        store.load_sequential(n)
        # Page 0 updated every other write -> hot; page tracked once -> cold.
        for i in range(200):
            store.write(0)
            store.write(1 + (i % (n - 1)))
        hot_stream = policy.route_user(0)
        cold_stream = policy.route_user(n - 1)
        assert hot_stream != cold_stream
        assert hot_stream > cold_stream  # classes sort cold -> hot

    def test_gc_demotes_one_class_colder(self, store_and_policy):
        store, policy = store_and_policy
        policy._ensure_class(-10)
        policy._ensure_class(-5)
        policy._ensure_class(-1)
        policy._seg_class[7] = -5
        assert place_gc(policy, [42], [7]) == [(42, -10)]

    def test_gc_demotion_floors_at_coldest(self, store_and_policy):
        _, policy = store_and_policy
        policy._ensure_class(-10)
        policy._seg_class[7] = -10
        assert place_gc(policy, [42], [7]) == [(42, -10)]

    def test_gc_from_an_unassigned_segment_lands_in_the_coldest(
        self, store_and_policy
    ):
        _, policy = store_and_policy
        policy._ensure_class(-10)
        policy._ensure_class(-5)
        # Segment 9 was never opened by a class.
        assert place_gc(policy, [42], [9]) == [(42, -10)]

    def test_first_demotion_creates_the_cold_class(self, store_and_policy):
        _, policy = store_and_policy
        assert place_gc(policy, [], []) == []
        assert policy._classes == []  # nothing demoted, nothing created
        assert place_gc(policy, [4, 5], [7, 8]) == [
            (4, _COLD_CLASS), (5, _COLD_CLASS)
        ]
        assert policy._classes == [_COLD_CLASS]

    def test_exact_gc_can_create_a_class_mid_batch(self):
        cfg = StoreConfig(
            n_segments=64, segment_units=8, fill_factor=0.6,
            clean_trigger=2, clean_batch=2,
        )
        policy = MultiLogPolicy(exact=True)
        store = LogStructuredStore(cfg, policy)
        store.set_oracle_frequencies([0.5, 0.5, 0.001])
        placed = place_gc(policy, [0, 2, 1], [3, 3, 3])
        hot, cold = policy._class_of(0.5), policy._class_of(0.001)
        assert placed == [(0, hot), (2, cold), (1, hot)]
        assert policy._classes == [cold, hot]

    def test_exact_gc_routes_by_oracle(self):
        cfg = StoreConfig(
            n_segments=64, segment_units=8, fill_factor=0.6,
            clean_trigger=2, clean_batch=2,
        )
        policy = MultiLogPolicy(exact=True)
        store = LogStructuredStore(cfg, policy)
        store.set_oracle_frequencies([0.5])
        expected = policy._class_of(0.5)
        assert place_gc(policy, [0], [3]) == [(0, expected)]


class TestVictimLocality:
    def test_selects_one_victim_from_neighbourhood(self):
        cfg = StoreConfig(
            n_segments=64, segment_units=8, fill_factor=0.6,
            clean_trigger=2, clean_batch=4,
        )
        policy = MultiLogPolicy()
        store = LogStructuredStore(cfg, policy)
        n = cfg.user_pages
        store.load_sequential(n)
        for i in range(2000):
            store.write((i * 3) % n)
        victims = policy.select_victims(store.sealed_segments())
        assert len(victims) == 1

    def test_falls_back_globally_when_neighbourhood_is_empty(self):
        cfg = StoreConfig(
            n_segments=64, segment_units=8, fill_factor=0.6,
            clean_trigger=2, clean_batch=2,
        )
        policy = MultiLogPolicy()
        store = LogStructuredStore(cfg, policy)
        store.load_sequential(cfg.user_pages)
        # Make some segments reclaimable.
        for pid in range(24):
            store.write(pid)
        # Re-tag every sealed segment as belonging to a class far below
        # the last-written one, so the ±1 neighbourhood holds no sealed
        # segments at all and the global fallback must kick in.
        for c in (-30, -20, -10, -5):
            policy._ensure_class(c)
        for seg in store.sealed_segments():
            policy._seg_class[seg] = -30
        policy._last_class = -5
        victims = policy.select_victims(store.sealed_segments())
        assert victims
        # And the fallback picks by most reclaimable space.
        segs = store.segments
        best = max(
            store.sealed_segments(),
            key=lambda s: segs.capacity - segs.live_units[s],
        )
        assert (segs.capacity - segs.live_units[victims[0]]) == (
            segs.capacity - segs.live_units[best]
        )

    def test_min_free_target_scales_with_logs(self, store_and_policy):
        store, policy = store_and_policy
        for c in range(-6, 0):
            policy._ensure_class(c)
        assert policy.min_free_target() >= policy.n_logs + 2
