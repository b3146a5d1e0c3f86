"""MdcPolicy behaviour: variant naming, separation flags, placement."""

import numpy as np
import pytest

from repro.core.mdc import MdcPolicy
from repro.policies import make_policy
from repro.store import LogStructuredStore, StoreConfig


def ids(*values):
    return np.asarray(values, dtype=np.int64)


class TestVariants:
    def test_names_match_figure_labels(self):
        assert MdcPolicy().name == "mdc"
        assert MdcPolicy(estimator="exact").name == "mdc-opt"
        assert MdcPolicy(separate_user=False).name == "mdc-no-sep-user"
        assert (
            MdcPolicy(separate_user=False, separate_gc=False).name
            == "mdc-no-sep-user-gc"
        )

    def test_rejects_unknown_estimator(self):
        with pytest.raises(ValueError):
            MdcPolicy(estimator="psychic")

    def test_sort_buffer_only_with_user_separation(self):
        assert MdcPolicy().uses_sort_buffer
        assert not MdcPolicy(separate_user=False).uses_sort_buffer

    def test_describe_lists_flags(self):
        text = MdcPolicy(separate_user=False).describe()
        assert "sep_user=False" in text


class TestPlacement:
    def _store(self, policy, **cfg_overrides):
        cfg = StoreConfig(
            n_segments=32, segment_units=8, fill_factor=0.6,
            clean_trigger=2, clean_batch=2, **cfg_overrides
        )
        return LogStructuredStore(cfg, policy)

    def test_user_sort_key_is_carried_up2(self):
        policy = MdcPolicy()
        store = self._store(policy, sort_buffer_segments=1)
        store.pages.ensure(3)
        store.pages.carried_up2[0:3] = [3.0, 1.0, 2.0]
        keys = policy.user_sort_key([0, 1, 2])
        assert list(keys) == [3.0, 1.0, 2.0]

    def test_user_sort_key_none_without_separation(self):
        policy = MdcPolicy(separate_user=False)
        self._store(policy)
        assert policy.user_sort_key([0, 1]) is None

    def test_opt_sorts_by_oracle(self):
        policy = MdcPolicy(estimator="exact")
        store = self._store(policy, sort_buffer_segments=1)
        store.set_oracle_frequencies([0.5, 0.1, 0.4])
        keys = policy.user_sort_key([0, 1, 2])
        assert list(keys) == [0.5, 0.1, 0.4]

    def test_place_gc_sorts_and_routes_to_gc_stream(self):
        policy = MdcPolicy()
        store = self._store(policy)
        store.pages.ensure(3)
        store.pages.carried_up2[0:3] = [3.0, 1.0, 2.0]
        placed, streams = policy.place_gc_batch(ids(0, 1, 2), ids(9, 9, 9))
        assert placed.tolist() == [1, 2, 0]  # coldest first
        assert streams is None  # everything to GC_STREAM

    def test_place_gc_keeps_order_without_separation(self):
        policy = MdcPolicy(separate_user=False, separate_gc=False)
        store = self._store(policy)
        store.pages.ensure(3)
        store.pages.carried_up2[0:3] = [3.0, 1.0, 2.0]
        placed, streams = policy.place_gc_batch(ids(0, 1, 2), ids(9, 9, 9))
        assert placed.tolist() == [0, 1, 2]
        assert streams is None


class TestVictimSelection:
    def test_rank_uses_exact_frequencies_for_opt(self):
        cfg = StoreConfig(
            n_segments=32, segment_units=4, fill_factor=0.5,
            clean_trigger=2, clean_batch=2,
        )
        policy = make_policy("mdc-opt")
        store = LogStructuredStore(cfg, policy)
        # Pages 0-3 hot (one segment), 4-7 cold (another segment).
        store.set_oracle_frequencies([0.2, 0.2, 0.2, 0.2, 0.05, 0.05, 0.05, 0.05])
        for pid in range(9):
            store.write(pid)
        hot_seg, _ = store.pages.location(0)
        cold_seg, _ = store.pages.location(4)
        # Make both segments half empty: same E, same C.
        store.write(0)
        store.write(1)
        store.write(4)
        store.write(5)
        pri = policy.rank_columns(store.segments, ids(hot_seg, cold_seg))
        # Equal emptiness: clean the cold segment first (smaller decline).
        assert pri[1] < pri[0]

    def test_rank_uses_up2_for_estimated(self, small_config):
        policy = make_policy("mdc")
        store = LogStructuredStore(small_config, policy)
        store.load_sequential(small_config.user_pages)
        a, b = store.sealed_segments()[:2]
        # Same emptiness, but a's last two updates were long ago.
        for pid in store.pages.live_pages_of(store.segments, a)[:4]:
            store.write(pid)
        for _ in range(500):
            store.write(small_config.user_pages - 1)
        for pid in store.pages.live_pages_of(store.segments, b)[:4]:
            store.write(pid)
        pri = policy.rank_columns(store.segments, ids(a, b))
        assert pri[0] < pri[1]
