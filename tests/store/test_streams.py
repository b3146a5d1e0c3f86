"""Write streams: user/GC separation, multi-stream policies, flush
edge cases."""

import pytest

from repro.policies import make_policy
from repro.store import GC_STREAM, LogStructuredStore, StoreConfig


class TestGcStream:
    def test_gc_pages_do_not_share_user_open_segment(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        store.load_sequential(small_config.user_pages)
        victim = store.sealed_segments()[0]
        for pid in store.pages.live_pages_of(store.segments, victim)[:4]:
            store.write(pid)
        user_seg = store.open_segments.get(0)
        store.policy.select_victims = lambda c, n=None, deficit=0, page_cap=None: [victim]
        store.clean()
        gc_seg = store.open_segments.get(GC_STREAM)
        assert gc_seg is not None
        assert gc_seg != user_seg

    def test_gc_destination_holds_only_survivors(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        store.load_sequential(small_config.user_pages)
        victim = store.sealed_segments()[0]
        survivors = set(store.pages.live_pages_of(store.segments, victim))
        store.policy.select_victims = lambda c, n=None, deficit=0, page_cap=None: [victim]
        store.clean()
        gc_seg = store.open_segments[GC_STREAM]
        assert set(store.segments.slot_list(gc_seg)) <= survivors


class TestMultiStream:
    def test_multilog_opens_one_segment_per_active_class(self):
        cfg = StoreConfig(
            n_segments=128, segment_units=16, fill_factor=0.6,
            clean_trigger=3, clean_batch=3,
        )
        store = LogStructuredStore(cfg, make_policy("multi-log"))
        n = cfg.user_pages
        store.load_sequential(n)
        # Page 0 is written every other update: a hot class emerges.
        for i in range(600):
            store.write(0)
            store.write(1 + (i % (n - 1)))
        assert len(store.open_segments) >= 2
        # Every mapped open segment really is open.
        for seg in store.open_segments.values():
            assert store.segments.state[seg] == 1


class TestFlushEdgeCases:
    def test_flush_without_buffer_is_noop(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        store.write(0)
        before = store.stats.snapshot()
        store.flush()
        assert store.stats.snapshot() == before

    def test_flush_empty_buffer_is_noop(self, buffered_config):
        store = LogStructuredStore(buffered_config, make_policy("mdc"))
        store.flush()
        assert store.stats.user_device_writes == 0

    def test_double_flush_idempotent(self, buffered_config):
        store = LogStructuredStore(buffered_config, make_policy("mdc"))
        for pid in range(5):
            store.write(pid)
        store.flush()
        writes = store.stats.user_device_writes
        store.flush()
        assert store.stats.user_device_writes == writes


class TestLoadSequential:
    def test_load_with_sizes(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        sizes = [1 + (i % 3) for i in range(100)]
        store.load_sequential(100, sizes)
        assert sum(store.segments.live_units) == sum(sizes)
        store.check_invariants()

    def test_sealed_excludes_open_and_free(self, small_config):
        store = LogStructuredStore(small_config, make_policy("greedy"))
        store.load_sequential(small_config.user_pages)
        sealed = set(store.sealed_segments())
        assert not sealed & set(store.free_list)
        assert not sealed & set(store.open_segments.values())
