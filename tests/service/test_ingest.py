"""Ingest queue: flush triggers, coalescing, backpressure, metrics."""

import pytest

from repro.kvstore import LogStructuredKVStore
from repro.obs import MetricsRegistry
from repro.service import IngestQueue
from repro.store import StoreConfig


def make_queue(shards, metrics=None, **kwargs):
    """A queue whose memo misses route a key to the shard its tenant
    names: ``q.put(1, "k", v)`` queues ``k`` on shard 1, stored as
    ``(1, "k")``."""
    q = IngestQueue(shards, metrics or MetricsRegistry(), **kwargs)
    q.locate = lambda tenant, key: tenant
    return q


def make_shards(n=2):
    cfg = StoreConfig(
        n_segments=32, segment_units=16, fill_factor=0.5,
        clean_trigger=2, clean_batch=2,
    )
    return [LogStructuredKVStore(cfg, policy="greedy", unit_bytes=8) for _ in range(n)]


class TestFlushTriggers:
    def test_flush_on_size(self):
        shards = make_shards()
        q = make_queue(shards, batch_size=4, flush_interval=100)
        for i in range(3):
            q.put(0, "k%d" % i, b"v")
        assert len(shards[0]) == 0 and q.depth == 3
        q.put(0, "k3", b"v")  # hits batch_size
        assert len(shards[0]) == 4 and q.depth == 0

    def test_flush_on_tick_ages_oldest_op(self):
        shards = make_shards()
        q = make_queue(shards, batch_size=100, flush_interval=2)
        q.put(0, "a", b"v")
        assert q.tick() == 0  # age 1: still young
        assert len(shards[0]) == 0
        assert q.tick() == 1  # age 2: flushed
        assert len(shards[0]) == 1

    def test_tick_only_flushes_aged_shards(self):
        shards = make_shards()
        q = make_queue(shards, batch_size=100, flush_interval=2)
        q.put(0, "old", b"v")
        q.tick()
        q.put(1, "young", b"v")
        q.tick()
        assert len(shards[0]) == 1  # aged out
        assert len(shards[1]) == 0  # still pending
        assert q.depth == 1

    def test_flush_all_drains_everything(self):
        shards = make_shards()
        q = make_queue(shards, batch_size=100, flush_interval=100)
        for i in range(5):
            q.put(i % 2, "k%d" % i, b"v")
        assert q.flush_all() == 5
        assert q.depth == 0
        assert len(shards[0]) + len(shards[1]) == 5


class TestCoalescing:
    def test_last_write_wins_within_batch(self):
        shards = make_shards(1)
        q = make_queue(shards, batch_size=100)
        q.put(0, "k", b"one")
        q.put(0, "k", b"two")
        q.put(0, "k", b"three")
        q.flush_all()
        assert shards[0].get((0, "k")) == b"three"
        # Coalescing means the store saw ONE user write for the key.
        assert shards[0].store.stats.user_writes == 1

    def test_put_then_delete_coalesces_to_nothing(self):
        shards = make_shards(1)
        q = make_queue(shards, batch_size=100)
        q.put(0, "k", b"v")
        q.delete(0, "k")
        q.flush_all()
        assert (0, "k") not in shards[0]
        assert shards[0].store.stats.user_writes == 0

    def test_delete_then_put_survives(self):
        shards = make_shards(1)
        shards[0].put((0, "k"), b"old")
        q = make_queue(shards, batch_size=100)
        q.delete(0, "k")
        q.put(0, "k", b"new")
        q.flush_all()
        assert shards[0].get((0, "k")) == b"new"

    def test_coalesced_counter(self):
        shards = make_shards(1)
        metrics = MetricsRegistry()
        q = make_queue(shards, metrics, batch_size=100)
        for _ in range(5):
            q.put(0, "hot", b"v")
        q.put(0, "cold", b"v")
        q.flush_all()
        snap = metrics.snapshot()
        assert snap.counters["ops_flushed"] == 6
        assert snap.counters["ops_coalesced"] == 4
        assert snap.counters["batches_flushed"] == 1


class TestBackpressure:
    def test_max_depth_flushes_deepest_shard(self):
        shards = make_shards(2)
        metrics = MetricsRegistry()
        q = make_queue(
            shards, metrics, batch_size=6, flush_interval=100, max_depth=6
        )
        q.put(1, "other", b"v")
        for i in range(5):
            q.put(0, "k%d" % i, b"v")
        # Depth hit 6: shard 0 (deepest) was flushed synchronously.
        assert len(shards[0]) == 5
        assert q.depth == 1  # shard 1's op still queued
        assert metrics.snapshot().counters["backpressure_flushes"] == 1

    def test_read_your_writes_pending_value(self):
        shards = make_shards(1)
        q = make_queue(shards, batch_size=100)
        skey = (0, "k")
        assert q.pending_value(0, skey) is None
        q.put(0, "k", b"v1")
        q.put(0, "k", b"v2")
        # No slot yet: queued under the stored key.
        assert q.route_of(0, "k") == (0, None)
        assert q.pending_value(0, skey) == b"v2"
        q.delete(0, "k")
        assert q.pending_value(0, skey) == skey  # latest op is the delete
        assert q.get(0, "k", b"d") == b"d"
        assert q.get(0, "x", b"d") == b"d"  # never queued or stored
        q.put(0, "k", b"v3")
        assert q.get(0, "k") == b"v3"
        q.flush_all()
        # The flush gave the key its slot and memoized it: the next op
        # is queued, and read, under the slot.
        slot = shards[0]._slot_of[skey]
        assert q.route_of(0, "k") == (0, slot)
        assert q.get(0, "k") == b"v3"  # from the shard
        q.put(0, "k", b"v4")
        assert q.pending_value(0, slot) == b"v4"
        assert q.pending_value(0, skey) is None
        assert q.get(0, "k") == b"v4"
        # A delete's flush takes the slot back: the key waits unslotted.
        q.delete(0, "k")
        q.flush_all()
        assert q.route_of(0, "k") == (0, None)
        assert q.get(0, "k") is None


class TestRouteMemo:
    def test_a_key_is_located_once(self):
        shards = make_shards(2)
        q = make_queue(shards, batch_size=100)
        located = []
        q.locate = lambda tenant, key: located.append((tenant, key)) or tenant
        # 1, 1.0 and True are one key, as they are one (tenant, key).
        q.put(1, 1, b"a")
        assert q.get(1, True) == b"a"
        q.flush_all()
        q.put(1, 1.0, b"b")
        assert q.get(1, True) == b"b"
        q.delete(1, True)
        q.put(1, 1, b"c")
        q.flush_all()
        assert located == [(1, 1)]
        slot = shards[1]._slot_of[(1, 1)]
        assert q.route_of(1, True) == (1, slot)


class TestShapeAndValidation:
    def test_bad_params_raise(self):
        shards = make_shards(1)
        with pytest.raises(ValueError):
            IngestQueue(shards, MetricsRegistry(), batch_size=0)
        with pytest.raises(ValueError):
            IngestQueue(shards, MetricsRegistry(), flush_interval=0)
        with pytest.raises(ValueError):
            IngestQueue(shards, MetricsRegistry(), batch_size=8, max_depth=4)

    def test_depth_samples_record_tick_depths(self):
        shards = make_shards(1)
        q = make_queue(shards, batch_size=100, flush_interval=100)
        q.put(0, "a", b"v")
        q.tick()
        q.put(0, "b", b"v")
        q.tick()
        assert q.depth_samples == [1, 2]
