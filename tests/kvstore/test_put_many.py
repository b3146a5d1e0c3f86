"""put_many must be state-identical to a sequential put loop."""

import math

import numpy as np
import pytest

from repro.kvstore import KVError, LogStructuredKVStore
from repro.store import NEVER_WRITTEN, StoreConfig, StoreError
from repro.testkit.trace import state_digest


def make_kv(policy="mdc", **overrides):
    cfg = dict(
        n_segments=64, segment_units=32, fill_factor=0.5,
        clean_trigger=2, clean_batch=4, sort_buffer_segments=1,
    )
    cfg.update(overrides)
    return LogStructuredKVStore(StoreConfig(**cfg), policy=policy, unit_bytes=16)


def random_items(rng, n, keyspace=64, max_bytes=96):
    return [
        (
            "k%d" % rng.integers(0, keyspace),
            bytes(int(rng.integers(1, max_bytes + 1))),
        )
        for _ in range(n)
    ]


class TestDifferential:
    """The oracle: put_many(batch) == for k, v in batch: put(k, v)."""

    @pytest.mark.parametrize("policy", ["mdc", "greedy"])
    def test_batched_equals_sequential(self, policy):
        rng = np.random.default_rng(11)
        items = random_items(rng, 600)
        batched = make_kv(policy)
        sequential = make_kv(policy)
        for start in range(0, len(items), 37):  # uneven chunking
            batched.put_many(items[start:start + 37])
        for key, value in items:
            sequential.put(key, value)
        assert state_digest(batched.store) == state_digest(sequential.store)
        assert dict(batched.items()) == dict(sequential.items())
        batched.check_consistency()

    def test_differential_with_interleaved_deletes(self):
        rng = np.random.default_rng(5)
        batched = make_kv()
        sequential = make_kv()
        for _round in range(20):
            items = random_items(rng, 50, keyspace=32)
            batched.put_many(items)
            for key, value in items:
                sequential.put(key, value)
            victim = "k%d" % rng.integers(0, 32)
            assert batched.delete(victim) == sequential.delete(victim)
        assert state_digest(batched.store) == state_digest(sequential.store)

    def test_duplicate_keys_in_one_batch_last_wins(self):
        kv = make_kv()
        ref = make_kv()
        batch = [("a", b"one"), ("b", b"x"), ("a", b"two"), ("a", b"three")]
        kv.put_many(batch)
        for key, value in batch:
            ref.put(key, value)
        assert kv.get("a") == b"three"
        # Every occurrence is a user write, exactly like the loop.
        assert kv.store.stats.user_writes == ref.store.stats.user_writes
        assert state_digest(kv.store) == state_digest(ref.store)


class TestBatchSemantics:
    def test_empty_batch(self):
        kv = make_kv()
        assert kv.put_many([]) == 0
        assert len(kv) == 0

    def test_returns_count_and_accepts_iterators(self):
        kv = make_kv()
        n = kv.put_many(("it%d" % i, b"v") for i in range(10))
        assert n == 10
        assert len(kv) == 10

    def test_invalid_value_applies_prefix_then_raises(self):
        kv = make_kv()
        ref = make_kv()
        bad = [("a", b"1"), ("b", b"2"), ("c", "not-bytes"), ("d", b"4")]
        with pytest.raises(KVError):
            kv.put_many(bad)
        for key, value in bad:
            try:
                ref.put(key, value)
            except KVError:
                break
        assert kv.get("a") == b"1" and kv.get("b") == b"2"
        assert kv.get("c") is None and kv.get("d") is None
        assert state_digest(kv.store) == state_digest(ref.store)
        kv.check_consistency()

    def test_oversized_value_applies_prefix_then_raises(self):
        kv = make_kv()
        huge = b"x" * (kv.max_value_bytes + 1)
        with pytest.raises(KVError):
            kv.put_many([("ok", b"fine"), ("big", huge)])
        assert kv.get("ok") == b"fine"
        assert "big" not in kv
        kv.check_consistency()

    def test_overwrite_reuses_slot(self):
        kv = make_kv()
        kv.put("a", b"old")
        slot = kv._slot_of["a"]
        kv.put_many([("a", b"new")])
        assert kv._slot_of["a"] == slot
        assert kv.get("a") == b"new"


def assert_same_state(kv, ref):
    """Store, index, value map, slot free list and counters all agree."""
    assert state_digest(kv.store) == state_digest(ref.store)
    assert kv._slot_of == ref._slot_of
    assert list(kv._slot_of) == list(ref._slot_of)
    assert kv._values == ref._values
    assert kv._free_slots == ref._free_slots
    assert kv.store.stats.snapshot() == ref.store.stats.snapshot()
    kv.check_consistency()


def put_loop(ref, items):
    """The reference: ``put`` per pair, stopping at the first error."""
    for key, value in items:
        ref.put(key, value)


class TestStagingPass:
    """Cases a batch-wide staging pass could get wrong where a per-pair
    one could not."""

    def test_array_sizes_match_the_scalar_ceiling(self):
        kv = make_kv()
        lengths = np.arange(0, kv.max_value_bytes + 1)
        want = [max(1, math.ceil(n / kv.unit_bytes)) for n in lengths.tolist()]
        assert kv._units(lengths).tolist() == want

    def test_bytearray_is_stored_as_bytes(self):
        kv, ref = make_kv(), make_kv()
        batch = [("a", bytearray(b"mutable")), ("b", b"plain")]
        assert kv.put_many(batch) == 2
        put_loop(ref, batch)
        assert type(kv.get("a")) is bytes and kv.get("a") == b"mutable"
        batch[0][1][:] = b"changed"
        assert kv.get("a") == b"mutable"
        assert_same_state(kv, ref)

    @pytest.mark.parametrize("bad", ["not-bytes", 7, None, b"x" * (32 * 16 + 1)])
    def test_invalid_pair_mid_batch_splits_it(self, bad):
        kv, ref = make_kv(), make_kv()
        for store in (kv, ref):
            store.put("old", b"kept")
        batch = [("a", b"1"), ("old", b"new"), ("bad", bad), ("old", b"no"), ("z", b"9")]
        with pytest.raises(KVError) as raised:
            kv.put_many(batch)
        with pytest.raises(KVError) as expected:
            put_loop(ref, batch)
        assert str(raised.value) == str(expected.value)
        assert kv.get("old") == b"new"
        assert "bad" not in kv and "z" not in kv
        assert_same_state(kv, ref)

    def test_duplicate_and_new_keys_interleaved(self):
        kv, ref = make_kv(), make_kv()
        batch = [("n1", b"a"), ("n2", b"bb" * 20), ("n1", b"c" * 40), ("n3", b""), ("n2", b"d")]
        assert kv.put_many(batch) == 5
        put_loop(ref, batch)
        assert_same_state(kv, ref)

    def test_freed_slots_are_reused_in_pop_order(self):
        kv, ref = make_kv(), make_kv()
        first = [("k%d" % i, b"v") for i in range(8)]
        second = [("m0", b"a"), ("k2", b"b"), ("m1", b"c"), ("m2", b"d"), ("m3", b"e"), ("m0", b"f")]
        for store, write in ((kv, kv.put_many), (ref, lambda b: put_loop(ref, b))):
            write(first)
            for key in ("k1", "k5", "k3"):
                store.delete(key)
            write(second)
        # Last freed, first reused; a fourth new key takes a fresh slot.
        assert [kv._slot_of[k] for k in ("m0", "m1", "m2", "m3")] == [3, 5, 1, 8]
        assert_same_state(kv, ref)

    def test_empty_and_generator_arguments(self):
        kv, ref = make_kv(), make_kv()
        assert kv.put_many(iter(())) == 0
        assert kv.put_many(()) == 0
        assert_same_state(kv, ref)
        batch = [("g%d" % (i % 4), bytes(i)) for i in range(1, 12)]
        assert kv.put_many(pair for pair in batch) == len(batch)
        put_loop(ref, batch)
        assert_same_state(kv, ref)


class TestRefusedBatch:
    def test_refused_put_many_on_a_buffered_shard_unregisters_its_keys(self):
        """The store's flush refuses mid-batch with part of the drained
        buffer unwritten; ``_unstage`` then trims every staged slot,
        buffered ones included — a ``StoreError``, never a ``KeyError``
        out of the sort buffer."""
        kv = make_kv(
            n_segments=12, segment_units=8, sort_buffer_segments=2, clean_batch=2
        )
        assert kv.store.buffer is not None
        kept = [("old%d" % i, b"x") for i in range(40)]
        kv.put_many(kept)
        with pytest.raises(StoreError):
            kv.put_many([("new%d" % i, b"y") for i in range(200)])
        assert len(kv) == len(kept)
        assert all(kv.get(key) == value for key, value in kept)
        assert not any(("new%d" % i) in kv for i in range(200))
        # The refused keys' slots are trimmed wherever the batch left
        # them (still in the buffer, drained, or never reached).
        seg = kv.store.pages.seg
        assert all(seg[slot] == NEVER_WRITTEN for slot in kv._free_slots)
        kv.check_consistency()
        # The freed slots are usable again.
        kv.delete("old0")
        kv.put_many([("again", b"z")])
        assert kv.get("again") == b"z"
        kv.check_consistency()
