"""Key-value store over the log-structured value log."""

import pytest

from repro.kvstore import KVError, LogStructuredKVStore
from repro.store import (
    IN_BUFFER,
    IN_FLIGHT,
    IN_RELOCATION,
    NEVER_WRITTEN,
    OutOfSpaceError,
    StoreConfig,
)


def make_kv(policy="mdc", **overrides):
    cfg = dict(
        n_segments=64, segment_units=32, fill_factor=0.5,
        clean_trigger=2, clean_batch=4, sort_buffer_segments=1,
    )
    cfg.update(overrides)
    return LogStructuredKVStore(StoreConfig(**cfg), policy=policy, unit_bytes=16)


class TestCrud:
    def test_put_get(self):
        kv = make_kv()
        kv.put("a", b"hello")
        assert kv.get("a") == b"hello"
        assert "a" in kv
        assert len(kv) == 1

    def test_get_missing_returns_default(self):
        kv = make_kv()
        assert kv.get("nope") is None
        assert kv.get("nope", b"d") == b"d"

    def test_overwrite_replaces(self):
        kv = make_kv()
        kv.put("a", b"one")
        kv.put("a", b"two")
        assert kv.get("a") == b"two"
        assert len(kv) == 1
        kv.check_consistency()

    def test_delete(self):
        kv = make_kv()
        kv.put("a", b"x")
        assert kv.delete("a")
        assert "a" not in kv
        assert not kv.delete("a")
        kv.check_consistency()

    def test_delete_frees_space(self):
        kv = make_kv()
        kv.put("a", b"x" * 160)  # 10 units
        kv.store.flush()  # push past the sort buffer onto the device
        live_before = sum(kv.store.segments.live_units)
        kv.delete("a")
        assert sum(kv.store.segments.live_units) == live_before - 10

    def test_delete_of_buffered_record(self):
        kv = make_kv()
        kv.put("a", b"x" * 160)
        assert kv.delete("a")  # still in the sort buffer: a buffer TRIM
        assert kv.store.buffer.used_units == 0
        kv.check_consistency()

    def test_slot_reuse_after_delete(self):
        kv = make_kv()
        kv.put("a", b"x")
        slot = kv._slot_of["a"]
        kv.delete("a")
        kv.put("b", b"y")
        assert kv._slot_of["b"] == slot

    def test_keys_and_items(self):
        kv = make_kv()
        kv.put("a", b"1")
        kv.put("b", b"2")
        assert sorted(kv.keys()) == ["a", "b"]
        assert dict(kv.items()) == {"a": b"1", "b": b"2"}


class TestSizing:
    def test_values_round_up_to_units(self):
        kv = make_kv()
        kv.put("a", b"x")  # 1 unit despite 1 byte
        kv.put("b", b"y" * 17)  # 2 units of 16 bytes
        assert kv.store.pages.size[kv._slot_of["a"]] == 1
        assert kv.store.pages.size[kv._slot_of["b"]] == 2

    def test_oversized_value_rejected(self):
        kv = make_kv()
        with pytest.raises(KVError):
            kv.put("big", b"z" * (kv.max_value_bytes + 1))

    def test_non_bytes_rejected(self):
        kv = make_kv()
        with pytest.raises(KVError):
            kv.put("a", "not-bytes")

    def test_unit_bytes_validated(self):
        with pytest.raises(KVError):
            LogStructuredKVStore(StoreConfig(), unit_bytes=0)


class TestGcUnderChurn:
    def test_sustained_churn_is_consistent(self):
        kv = make_kv()
        import random
        rng = random.Random(9)
        keys = ["k%03d" % i for i in range(300)]
        for step in range(6000):
            key = rng.choice(keys)
            if key in kv and rng.random() < 0.1:
                kv.delete(key)
            else:
                kv.put(key, bytes(rng.randint(1, 100)))
        assert kv.store.stats.clean_cycles > 0
        kv.check_consistency()

    def test_mdc_cleans_value_log_cheaper_than_greedy(self):
        import random
        wamps = {}
        for policy in ("greedy", "mdc"):
            kv = make_kv(policy=policy, fill_factor=0.75, n_segments=128)
            rng = random.Random(5)
            hot = ["h%02d" % i for i in range(60)]
            cold = ["c%03d" % i for i in range(1500)]
            for key in cold + hot:
                kv.put(key, b"v" * rng.randint(8, 48))
            for _ in range(40_000):
                pool = hot if rng.random() < 0.9 else cold
                kv.put(rng.choice(pool), b"v" * rng.randint(8, 48))
            wamps[policy] = kv.write_amplification
        assert wamps["mdc"] < wamps["greedy"]

    def test_space_report(self):
        kv = make_kv()
        kv.put("a", b"x" * 32)
        report = kv.space_report()
        assert report["keys"] == 1
        assert report["live_bytes"] == 32
        # Plain Python numbers, not numpy scalars leaking out of the table.
        assert type(report["live_bytes"]) is int
        assert type(report["utilization"]) is float
        assert 0 < report["utilization"] < 1
        assert "util" in repr(kv)


    def test_space_report_counts_what_a_cycle_has_staged(self):
        """Under the governor a cleaning cycle is mid-flight between
        most steps; its staged pages are live records in cleaner memory.
        The report used to count segments + buffer only (reproduced on
        this shape: utilization 0.2480 against ``fill_factor_now()``'s
        0.5859 with 173 units staged)."""
        kv = LogStructuredKVStore(
            StoreConfig(
                n_segments=32, segment_units=16, fill_factor=0.6,
                clean_trigger=2, clean_batch=16,
            ),
            policy="greedy", unit_bytes=8,
        )
        keys = ["k%03d" % i for i in range(300)]
        kv.put_many((key, b"12345678") for key in keys)
        kv.put_many((key, b"87654321") for key in keys[::2])  # half-live
        kv.store.clean_begin()
        kv.store.clean_step(3)
        assert kv.store.clean_pending > 0
        staged = kv.store.relocating_units()
        assert staged > 100
        mid = kv.space_report()
        # keys x units bounds live from below (every record is 1 unit).
        assert mid["live_bytes"] >= len(keys) * kv.unit_bytes
        assert mid["utilization"] == kv.store.fill_factor_now()
        kv.store.clean_step(None)
        assert kv.store.clean_cursor is None
        assert kv.space_report() == mid
        kv.check_consistency()


class TestBufferedRecordRule:
    """A record that is buffered is written: readable, overwritable,
    deletable, and counted, before any segment holds it.  The rule
    ``check_consistency`` states: a live key's slot is in a segment, in
    the buffer, or staged by the active cycle — nothing else."""

    def _buffered(self):
        kv = make_kv(n_segments=32, sort_buffer_segments=2)
        kv.put_many([("k%d" % i, b"v" * 16) for i in range(20)])
        seg = kv.store.pages.seg
        assert all(seg[slot] == IN_BUFFER for slot in kv._slot_of.values())
        return kv

    def test_put_put_many_and_delete_of_a_still_buffered_key(self):
        kv = self._buffered()
        kv.put("k0", b"w" * 40)  # 3 units, replaced in the buffer
        kv.put_many([("k1", b"x"), ("k1", b"y" * 20), ("new", b"z")])
        assert kv.delete("k2")
        assert kv.get("k0") == b"w" * 40
        assert kv.get("k1") == b"y" * 20
        assert kv.get("new") == b"z"
        assert "k2" not in kv
        assert kv.store.buffer.used_units == 17 + 3 + 2 + 1
        assert len(kv.store.buffer) == len(kv) == 20
        kv.check_consistency()
        report = kv.space_report()
        assert report["live_bytes"] == 23 * kv.unit_bytes
        kv.store.flush()  # the drain changes where they are, nothing else
        assert kv.space_report() == report
        kv.check_consistency()

    @pytest.mark.parametrize("state", [NEVER_WRITTEN, IN_FLIGHT, IN_RELOCATION])
    def test_any_other_page_table_state_is_a_lost_record(self, state):
        """``seg != -1`` let ``IN_FLIGHT`` pass; a stale
        ``IN_RELOCATION`` (no active cycle staging the page) is the
        store's own invariant, checked on the way."""
        kv = self._buffered()
        kv.store.flush()
        kv.check_consistency()
        slot = kv._slot_of["k3"]
        kv.store.trim(slot)  # the store forgets it; the index does not
        kv.store.pages.seg[slot] = state
        assert kv.store.clean_cursor is None
        with pytest.raises(
            AssertionError, match="no stored record|not pending in the active"
        ):
            kv.check_consistency()

    def test_a_page_the_active_cycle_staged_is_a_stored_record(self):
        kv = make_kv(n_segments=32, sort_buffer_segments=2, clean_batch=8)
        keys = ["k%03d" % i for i in range(200)]
        for _ in range(3):
            kv.put_many((key, b"v" * 40) for key in keys)
        kv.store.flush()
        kv.store.clean_begin()
        staged = [
            slot for slot in kv._slot_of.values()
            if kv.store.pages.seg[slot] == IN_RELOCATION
        ]
        assert staged and kv.store.clean_cursor is not None
        kv.check_consistency()
        kv.store.clean_step(None)
        kv.check_consistency()


class TestOutOfSpace:
    """A put the store refuses leaves no trace in the index."""

    def _full_kv(self):
        cfg = StoreConfig(
            n_segments=8, segment_units=4, fill_factor=0.5,
            clean_trigger=1, clean_batch=1,
        )
        return LogStructuredKVStore(cfg, policy="greedy", unit_bytes=8)

    def _assert_defined_outcome(self, kv, accepted, refused):
        for key in refused:
            assert key not in kv
            assert kv.get(key) is None
        for key in accepted:
            assert kv.get(key) == b"x"
        assert len(kv) == len(accepted)
        kv.check_consistency()
        # The store keeps working once there is room again.
        for key in accepted[:8]:
            kv.delete(key)
        kv.put(refused[0], b"y")
        assert kv.get(refused[0]) == b"y"
        kv.check_consistency()

    def test_put_unregisters_the_refused_key(self):
        kv = self._full_kv()
        accepted = []
        with pytest.raises(OutOfSpaceError):
            for i in range(64):
                kv.put("k%d" % i, b"x")
                accepted.append("k%d" % i)
        refused = ["k%d" % len(accepted)]
        self._assert_defined_outcome(kv, accepted, refused)

    def test_put_many_unregisters_the_refused_batch(self):
        kv = self._full_kv()
        accepted = ["k%d" % i for i in range(16)]
        kv.put_many((key, b"x") for key in accepted)
        refused = ["r%d" % i for i in range(48)]
        with pytest.raises(OutOfSpaceError):
            kv.put_many((key, b"x") for key in refused)
        self._assert_defined_outcome(kv, accepted, refused)

    def test_refused_overwrite_keeps_the_key_registered(self):
        kv = self._full_kv()
        with pytest.raises(OutOfSpaceError):
            for i in range(64):
                kv.put("k%d" % i, b"x")
        before = len(kv)
        with pytest.raises(OutOfSpaceError):
            kv.put_many([("k0", b"x"), ("new", b"x")] * 16)
        assert "new" not in kv and "k0" in kv
        assert kv.get("k0") == b"x"
        assert len(kv) == before
