"""The store's sorting buffer: occupancy, dedup-by-replace, drain order
— and what the store owes the buffer when a flush is refused."""

import random

import numpy as np
import pytest

from repro.policies import make_policy
from repro.store import LogStructuredStore, OutOfSpaceError, SortBuffer, StoreConfig
from repro.store.pagetable import IN_BUFFER, PageTable


def buffered_store(segment_units=8):
    """A store whose sorting buffer is one segment of ``segment_units``."""
    config = StoreConfig(
        n_segments=16, segment_units=segment_units, fill_factor=0.5,
        sort_buffer_segments=1,
    )
    return LogStructuredStore(config, make_policy("mdc"))


class TestBasics:
    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            SortBuffer(0, PageTable())

    def test_add_and_contains(self):
        store = buffered_store()
        store.write(10)
        buf = store.buffer
        assert 10 in buf
        assert 11 not in buf
        assert len(buf) == 1
        assert buf.used_units == 1
        store.check_invariants()

    def test_fits_respects_capacity(self):
        store = buffered_store(segment_units=3)
        store.write(1, 2)
        assert store.buffer.fits(1)
        assert not store.buffer.fits(2)

    def test_drain_returns_insertion_order_and_empties(self):
        store = buffered_store()
        store.write_batch([5, 3, 9])
        buf = store.buffer
        assert buf.order().tolist() == [5, 3, 9]
        store.flush()
        assert len(buf) == 0
        assert buf.used_units == 0
        assert 5 not in buf
        store.check_invariants()


    def test_trim_and_rewrite_moves_a_page_to_the_end(self):
        # Six ids on an eight-unit buffer, each trimmed if buffered and
        # written otherwise: no flush ever empties the arrival log, and
        # every write after a trim logs its page again.
        store = buffered_store()
        rng = random.Random(7)
        order = []
        for _ in range(40 * store.buffer.capacity_units):
            pid = rng.randrange(6)
            if pid in order:
                store.trim(pid)
                order.remove(pid)
            else:
                store.write(pid)
                order.append(pid)
            assert store.buffer.order().tolist() == order
            assert len(store.buffer) == len(order)
        store.check_invariants()


class TestReplace:
    def test_replace_keeps_single_copy(self):
        store = buffered_store()
        store.write(1)
        store.write(1)
        assert len(store.buffer) == 1
        assert store.buffer.used_units == 1
        store.check_invariants()

    def test_replace_adjusts_occupancy_for_new_size(self):
        store = buffered_store()
        store.write(1, 2)
        store.write(1, 5)
        assert store.buffer.used_units == 5
        store.write(1, 1)
        assert store.buffer.used_units == 1
        store.check_invariants()

    def test_drain_after_replace_has_one_entry(self):
        store = buffered_store()
        store.write_batch([1, 2, 1], [1, 1, 2])
        assert store.buffer.order().tolist() == [1, 2]
        store.flush()
        assert store.stats.user_device_writes == 2
        store.check_invariants()


class TestRefusedFlush:
    """A ``flush()`` the device refuses (``OutOfSpaceError`` out of the
    emission) must not strand the pages it had drained: they go back to
    the buffer, so the store stays consistent and the next flush retries
    them."""

    CONFIG = dict(
        n_segments=12, segment_units=8, fill_factor=0.5,
        clean_trigger=2, clean_batch=2, sort_buffer_segments=2,
    )

    def fill_until_refused(self, size_of=lambda pid: 1):
        """Write fresh pages until the device is full of live data; the
        last buffer fill arrives in *descending* page order, so emission
        order (key, then page id) differs from arrival order."""
        store = LogStructuredStore(StoreConfig(**self.CONFIG), make_policy("mdc"))
        order = list(range(80)) + list(range(199, 79, -1))
        with pytest.raises(OutOfSpaceError):
            for pid in order:
                store.write(pid, size_of(pid))
        return store

    def stranded(self, store):
        return np.flatnonzero(store.pages.seg == IN_BUFFER).tolist()

    @pytest.mark.parametrize(
        "size_of", [lambda pid: 1, lambda pid: 2], ids=["unit", "two-unit"]
    )
    def test_undrained_pages_return_to_the_buffer(self, size_of):
        store = self.fill_until_refused(size_of)
        left = self.stranded(store)
        assert left, "the refused flush emitted everything: nothing tested"
        store.check_invariants()
        assert all(pid in store.buffer for pid in left)
        assert len(store.buffer) == len(left)
        assert store.buffer.used_units == sum(size_of(pid) for pid in left)
        assert store.buffer.used_units == int(store.pages.size[left].sum())
        # Emission order: ascending key (all first writes: equal), ties
        # by page id — not the descending arrival order.
        assert store.buffer.drain().tolist() == sorted(left)

    def test_stranded_page_can_be_trimmed_and_rewritten(self):
        store = self.fill_until_refused()
        first, second = self.stranded(store)[:2]
        used = store.buffer.used_units
        assert store.trim(first) is True
        assert first not in store.buffer
        assert store.buffer.used_units == used - 1
        store.write(second, 3)  # a rewrite of a buffered page: in place
        assert store.pages.seg[second] == IN_BUFFER
        assert store.buffer.used_units == used - 1 + 2
        store.check_invariants()

    def test_next_flush_lands_them_once_room_is_made(self):
        store = self.fill_until_refused()
        left = self.stranded(store)
        for pid in range(40):
            assert store.trim(pid)
        store.flush()
        assert len(store.buffer) == 0
        assert (store.pages.seg[left] >= 0).all()
        store.check_invariants()
