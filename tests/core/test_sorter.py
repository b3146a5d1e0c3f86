"""Frequency-sorted packing (Section 5.3): the key helpers, and the
order ``MdcPolicy.place_gc_batch`` packs relocated pages in — stable,
coldest first, ties by arrival."""

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro.core.mdc import MdcPolicy
from repro.core.sorter import oracle_keys, up2_keys
from repro.policies import make_policy
from repro.store import LogStructuredStore, PageTable, StoreConfig


def gc_order(pids, keys):
    """The order ``MdcPolicy.place_gc_batch`` emits ``pids`` in when
    their carried ``up2`` estimates are ``keys``."""
    policy = MdcPolicy()
    store = LogStructuredStore(
        StoreConfig(n_segments=8, segment_units=4, fill_factor=0.5,
                    clean_trigger=1, clean_batch=1),
        policy,
    )
    arr = np.asarray(pids, dtype=np.int64)
    if arr.size:
        store.pages.ensure(int(arr.max()))
        store.pages.carried_up2[arr] = keys
    placed, streams = policy.place_gc_batch(arr, np.zeros_like(arr))
    assert streams is None  # everything to the GC stream
    return placed.tolist()


class TestKeys:
    def test_up2_keys_read_carried_estimates(self):
        pt = PageTable(4)
        pt.carried_up2[:] = [5.0, 1.0, 9.0, 3.0]
        assert up2_keys(pt, [2, 0, 1]).tolist() == [9.0, 5.0, 1.0]

    def test_oracle_keys_read_exact_frequencies(self):
        pt = PageTable(3)
        pt.oracle_freq[:] = [0.1, 0.7, 0.2]
        assert oracle_keys(pt, [1, 2]).tolist() == [0.7, 0.2]


class TestOrdering:
    def test_orders_coldest_first(self):
        assert gc_order([10, 20, 30], [3.0, 1.0, 2.0]) == [20, 30, 10]

    def test_stable_for_ties(self):
        assert gc_order([1, 2, 3], [0.0, 0.0, 0.0]) == [1, 2, 3]

    def test_clusters_similar_keys_adjacently(self):
        rng = np.random.default_rng(1)
        pids = list(range(100))
        keys = [float(p % 2) for p in pids]  # two hotness groups
        mixed = list(rng.permutation(pids))
        mixed_keys = [keys[p] for p in mixed]
        out = gc_order(mixed, mixed_keys)
        # After sorting, all members of a group are contiguous.
        group = [p % 2 for p in out]
        assert group == sorted(group)


# A page carries one estimate, so page ids are unique within a batch.
pid_key_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5000),
        st.floats(min_value=-1e9, max_value=1e9, allow_nan=False),
    ),
    max_size=200,
    unique_by=lambda pair: pair[0],
)


class TestOrderingInvariants:
    """up2-ordering is a stable sort: a permutation, key-monotone, and
    idempotent — for any input."""

    @given(pairs=pid_key_lists)
    @settings(max_examples=100)
    def test_result_is_a_permutation(self, pairs):
        pids = [p for p, _ in pairs]
        keys = [k for _, k in pairs]
        out = gc_order(pids, keys)
        assert sorted(out) == sorted(pids)

    @given(pairs=pid_key_lists)
    @settings(max_examples=100)
    def test_keys_are_nondecreasing_after_ordering(self, pairs):
        pids = [p for p, _ in pairs]
        keys = [k for _, k in pairs]
        order = np.argsort(np.asarray(keys, dtype=float), kind="stable")
        assert gc_order(pids, keys) == [pids[i] for i in order]
        assert [keys[i] for i in order] == sorted(keys)

    @given(pairs=pid_key_lists)
    @settings(max_examples=100)
    def test_ordering_is_idempotent(self, pairs):
        pids = [p for p, _ in pairs]
        keys = [k for _, k in pairs]
        once = gc_order(pids, keys)
        keys_once = [keys[i] for i in np.argsort(np.asarray(keys), kind="stable")]
        assert gc_order(once, keys_once) == once

    def test_empty_input(self):
        assert gc_order([], []) == []

    def test_all_cold_input_preserves_arrival_order(self):
        """Equal keys (an all-cold batch) must not be reshuffled."""
        pids = list(range(50, 0, -1))
        assert gc_order(pids, [0.0] * len(pids)) == pids


class TestStoreIntegration:
    """The sorter's proxy — carried up2 — separates hot from cold in a
    real buffered MDC run."""

    def _hot_cold_store(self):
        cfg = StoreConfig(
            n_segments=32, segment_units=8, fill_factor=0.6,
            clean_trigger=2, clean_batch=2, sort_buffer_segments=1,
        )
        store = LogStructuredStore(cfg, make_policy("mdc"))
        n = cfg.user_pages
        hot = list(range(n // 8))
        store.load_sequential(n)
        for i in range(4000):
            store.write(hot[i % len(hot)])
        store.flush()
        return store, hot, [p for p in range(n) if p not in hot]

    def test_hot_pages_carry_larger_up2_than_cold(self):
        store, hot, cold = self._hot_cold_store()
        carried = store.pages.carried_up2
        hot_mean = float(np.nanmean([carried[p] for p in hot]))
        cold_mean = float(np.nanmean([carried[p] for p in cold]))
        assert hot_mean > cold_mean

    def test_sort_keys_rank_hot_pages_last(self):
        """Coldest-first ordering puts every cold page before the median
        hot page."""
        store, hot, cold = self._hot_cold_store()
        pids = np.asarray(hot + cold, dtype=np.int64)
        out, _ = store.policy.place_gc_batch(pids, np.zeros_like(pids))
        positions = {p: i for i, p in enumerate(out.tolist())}
        median_hot = sorted(positions[p] for p in hot)[len(hot) // 2]
        assert all(positions[p] < median_hot for p in cold)
