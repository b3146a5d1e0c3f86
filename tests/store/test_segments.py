"""SegmentTable bookkeeping (structure-of-arrays layout)."""

import numpy as np
import pytest

from repro.store import FREE, OPEN, SEALED, SegmentTable
from repro.store.pagetable import PageTable
from repro.store.segments import NO_STREAM


@pytest.fixture
def table():
    return SegmentTable(n_segments=4, capacity=8)


class TestLifecycle:
    def test_starts_free_and_empty(self, table):
        assert len(table) == 4
        for s in range(4):
            assert table.state[s] == FREE
            assert table.live_count[s] == 0
            assert table.available_units(s) == 8
            assert table.emptiness(s) == 1.0
            assert table.slot_list(s) == []
            assert table.stream[s] == NO_STREAM

    def test_reset_restores_pristine_state(self, table):
        table.state[1] = SEALED
        table.live_count[1] = 3
        table.live_units[1] = 3
        table.used_units[1] = 8
        table.seal_time[1] = 42
        table.up1[1] = 40.0
        table.up2[1] = 35.0
        table.up2_sum[1] = 100.0
        table.freq_sum[1] = 0.5
        table.stream[1] = 2
        table.set_slots(1, [7, 8, 9])
        table.reset(1)
        assert table.state[1] == FREE
        assert table.live_count[1] == 0
        assert table.live_units[1] == 0
        assert table.used_units[1] == 0
        assert table.up2[1] == 0.0
        assert table.slot_list(1) == []
        assert table.slot_size_list(1) == []
        assert table.stream[1] == NO_STREAM

    def test_reset_does_not_bleed_across_segments(self, table):
        table.set_slots(0, [1, 2])
        table.set_slots(1, [7, 8, 9])
        table.reset(1)
        assert table.slot_list(0) == [1, 2]
        assert table.slot_list(1) == []


class TestSlotLog:
    def test_append_slot_returns_positions_in_order(self, table):
        assert table.append_slot(2, 10, 1) == 0
        assert table.append_slot(2, 11, 2) == 1
        assert table.slot_list(2) == [10, 11]
        assert table.slot_size_list(2) == [1, 2]
        assert table.slot_count[2] == 2

    def test_set_slots_defaults_to_unit_sizes(self, table):
        table.set_slots(3, [4, 5, 6])
        assert table.slot_size_list(3) == [1, 1, 1]

    def test_set_slots_rejects_overflow(self, table):
        with pytest.raises(ValueError):
            table.set_slots(0, list(range(9)))

    def test_views_track_the_backing_matrix(self, table):
        table.set_slots(0, [4, 5])
        view = table.slot_pages_of(0)
        table.slot_page[0, 1] = 9
        assert view.tolist() == [4, 9]

    def test_live_slots_concatenates_in_segment_order(self, table):
        """Live pages come out in (given segment order, slot order) with
        their owners; a slot the page table no longer points at, and a
        tail slot past ``slot_count``, are not live."""
        pages = PageTable(30)
        table.set_slots(2, [20, 21, 22], [1, 2, 1])
        table.set_slots(0, [7])
        for seg, slot, pid in ((2, 0, 20), (2, 2, 22), (0, 0, 7)):
            pages.seg[pid], pages.slot[pid] = seg, slot
        pages.seg[21], pages.slot[21] = 1, 1  # rewritten elsewhere
        # An earlier life of segment 0 left page 9 in slot 3, and the
        # page table still says (0, 3): past slot_count, so not live.
        table.slot_page[0, 3] = 9
        pages.seg[9], pages.slot[9] = 0, 3
        pids, owners = table.live_slots(
            np.asarray([2, 0, 1], dtype=np.int64), pages
        )
        assert pids.tolist() == [20, 22, 7]
        assert owners.tolist() == [2, 2, 0]

    def test_live_slots_empty_victim_set(self, table):
        pids, owners = table.live_slots(
            np.empty(0, dtype=np.int64), PageTable(4)
        )
        assert pids.size == 0
        assert owners.size == 0

    def test_reset_takes_an_array_of_segments(self, table):
        for seg in (1, 3):
            table.state[seg] = SEALED
            table.up2[seg] = 5.0
            table.set_slots(seg, [4, 5])
        table.reset(np.asarray([3, 1], dtype=np.int64))
        assert table.state.tolist() == [FREE] * 4
        assert table.slot_count.tolist() == [0] * 4
        assert table.up2.tolist() == [0.0] * 4
        assert table.erase_count.tolist() == [0, 1, 0, 1]
        assert table.epoch.tolist() == [0, 1, 0, 1]


class TestAccounting:
    def test_available_units_tracks_live_units(self, table):
        table.live_units[2] = 5
        assert table.available_units(2) == 3

    def test_emptiness_is_a_over_b(self, table):
        table.live_units[2] = 6
        assert table.emptiness(2) == pytest.approx(0.25)

    def test_state_name(self, table):
        table.state[0] = OPEN
        table.state[1] = SEALED
        assert table.state_name(0) == "open"
        assert table.state_name(1) == "sealed"
        assert table.state_name(2) == "free"

    def test_describe_mentions_key_fields(self, table):
        table.state[3] = SEALED
        table.live_count[3] = 2
        text = table.describe(3)
        assert "segment 3" in text
        assert "sealed" in text
        assert "C=2" in text
