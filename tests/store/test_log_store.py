"""LogStructuredStore mechanics: write path, sealing, cleaning cycle,
space accounting, up2 carry-forward, and regression tests for the
stale-pointer races around cleaning."""

import math

import pytest

from repro.policies import make_policy
from repro.store import (
    GC_STREAM,
    IN_BUFFER,
    LogStructuredStore,
    OutOfSpaceError,
    PageSizeError,
    SEALED,
    StoreConfig,
)


def greedy_store(cfg):
    return LogStructuredStore(cfg, make_policy("greedy"))


class TestWritePath:
    def test_write_advances_clock_and_counters(self, tiny_config):
        store = greedy_store(tiny_config)
        store.write(0)
        assert store.clock == 1
        assert store.stats.user_writes == 1
        assert store.stats.gc_writes == 0

    def test_write_places_page_in_open_segment(self, tiny_config):
        store = greedy_store(tiny_config)
        store.write(5)
        seg, slot = store.pages.location(5)
        assert seg >= 0
        assert store.segments.slot_page[seg, slot] == 5
        assert store.segments.live_count[seg] == 1

    def test_overwrite_invalidates_old_slot(self, tiny_config):
        store = greedy_store(tiny_config)
        store.write(5)
        old_seg, old_slot = store.pages.location(5)
        store.write(5)
        new_seg, new_slot = store.pages.location(5)
        assert (new_seg, new_slot) != (old_seg, old_slot)
        assert not store.pages.is_live_slot(old_seg, old_slot, 5)

    def test_overwrite_updates_segment_space_accounting(self, tiny_config):
        store = greedy_store(tiny_config)
        for pid in range(tiny_config.segment_units):
            store.write(pid)
        # First segment is full and sealed; overwrite one of its pages.
        seg, _ = store.pages.location(0)
        before = store.segments.available_units(seg)
        store.write(0)
        assert store.segments.available_units(seg) == before + 1
        assert store.segments.live_count[seg] == tiny_config.segment_units - 1

    def test_rejects_bad_page_size(self, tiny_config):
        store = greedy_store(tiny_config)
        with pytest.raises(PageSizeError):
            store.write(0, size=0)
        with pytest.raises(PageSizeError):
            store.write(0, size=tiny_config.segment_units + 1)

    def test_page_table_grows_on_demand(self, tiny_config):
        store = greedy_store(tiny_config)
        store.write(1000)
        assert len(store.pages) >= 1001
        seg, _ = store.pages.location(1000)
        assert seg >= 0

    def test_segment_seals_when_full(self, tiny_config):
        store = greedy_store(tiny_config)
        s = tiny_config.segment_units
        for pid in range(s + 1):
            store.write(pid)
        first_seg, _ = store.pages.location(0)
        assert store.segments.state[first_seg] == SEALED
        assert store.segments.seal_time[first_seg] > 0


class TestUp2Rules:
    """The Section 5.2.2 update-history carry-forward rules."""

    def test_segment_up_pair_advances_on_overwrite(self, tiny_config):
        store = greedy_store(tiny_config)
        # s+1 writes so the first segment is sealed (sealing is lazy:
        # it happens when the overflow write needs a fresh segment).
        for pid in range(tiny_config.segment_units + 1):
            store.write(pid)
        seg, _ = store.pages.location(0)
        assert store.segments.state[seg] == SEALED
        store.write(0)
        first_update = store.clock
        store.write(1)
        assert store.segments.up1[seg] == store.clock
        assert store.segments.up2[seg] == first_update

    def test_rewritten_page_carries_midpoint(self, tiny_config):
        store = greedy_store(tiny_config)
        for pid in range(tiny_config.segment_units):
            store.write(pid)
        seg, _ = store.pages.location(0)
        seg_up2 = store.segments.up2[seg]
        store.write(0)
        expected = seg_up2 + 0.5 * (store.clock - seg_up2)
        assert store.pages.carried_up2[0] == pytest.approx(expected)

    def test_sealed_segment_up2_is_average_of_carried(self, tiny_config):
        store = greedy_store(tiny_config)
        s = tiny_config.segment_units
        for pid in range(s + 1):
            store.write(pid)
        seg, _ = store.pages.location(0)
        carried = [store.pages.carried_up2[p] for p in range(s)]
        assert store.segments.up2[seg] == pytest.approx(
            sum(carried) / len(carried)
        )

    def test_gc_pages_inherit_source_segment_up2(self, small_config):
        store = greedy_store(small_config)
        store.load_sequential(small_config.user_pages)
        # Overwrite a few pages of one sealed segment, then clean it.
        victim, _ = store.pages.location(0)
        for pid in store.pages.live_pages_of(store.segments, victim)[:5]:
            store.write(pid)
        src_up2 = store.segments.up2[victim]
        survivors = store.pages.live_pages_of(store.segments, victim)
        store.policy.select_victims = lambda c, n=None, deficit=0, page_cap=None: [victim]
        store.clean()
        for pid in survivors:
            assert store.pages.carried_up2[pid] == pytest.approx(src_up2)


class TestCleaning:
    def test_cleaning_triggers_below_threshold(self, tiny_config):
        store = greedy_store(tiny_config)
        store.load_sequential(tiny_config.user_pages)
        before = store.stats.clean_cycles
        # Keep rewriting; the free pool must stay at/above the trigger.
        for i in range(tiny_config.user_pages * 3):
            store.write(i % tiny_config.user_pages)
        assert store.stats.clean_cycles > before
        assert store.free_segment_count >= tiny_config.clean_trigger

    def test_clean_frees_victims_and_relocates_live(self, small_config):
        store = greedy_store(small_config)
        store.load_sequential(small_config.user_pages)
        victim = store.sealed_segments()[0]
        live_before = store.pages.live_pages_of(store.segments, victim)
        store.policy.select_victims = lambda c, n=None, deficit=0, page_cap=None: [victim]
        gc_before = store.stats.gc_writes
        store.clean()
        assert store.segments.state[victim] != SEALED
        assert store.stats.gc_writes == gc_before + len(live_before)
        for pid in live_before:
            seg, slot = store.pages.location(pid)
            assert seg >= 0
            assert store.segments.slot_page[seg, slot] == pid

    def test_clean_returns_reclaimed_units(self, small_config):
        store = greedy_store(small_config)
        store.load_sequential(small_config.user_pages)
        victim = store.sealed_segments()[0]
        for pid in store.pages.live_pages_of(store.segments, victim)[:4]:
            store.write(pid)
        avail = store.segments.available_units(victim)
        store.policy.select_victims = lambda c, n=None, deficit=0, page_cap=None: [victim]
        assert store.clean() == avail

    def test_clean_records_emptiness_statistics(self, small_config):
        store = greedy_store(small_config)
        store.load_sequential(small_config.user_pages)
        victim = store.sealed_segments()[0]
        for pid in store.pages.live_pages_of(store.segments, victim)[:8]:
            store.write(pid)
        expected_e = store.segments.emptiness(victim)
        store.policy.select_victims = lambda c, n=None, deficit=0, page_cap=None: [victim]
        cleaned_before = store.stats.segments_cleaned
        e_before = store.stats.cleaned_emptiness_sum
        store.clean()
        assert store.stats.segments_cleaned == cleaned_before + 1
        assert store.stats.cleaned_emptiness_sum - e_before == pytest.approx(
            expected_e
        )

    def test_out_of_space_when_nothing_reclaimable(self):
        cfg = StoreConfig(
            n_segments=16, segment_units=8, fill_factor=0.5,
            clean_trigger=2, clean_batch=2,
        )
        store = greedy_store(cfg)
        store.load_sequential(cfg.user_pages)
        # Write fresh pages only (never overwriting): all segments stay
        # fully live, so cleaning cannot reclaim anything.
        with pytest.raises(OutOfSpaceError):
            for pid in range(cfg.user_pages, cfg.device_units * 2):
                store.write(pid)


    def test_out_of_space_when_pages_do_not_pack(self):
        """Each cycle reclaims a few units, but pages of 4-8 units leave
        as much unusable at the end of the segments they relocate into:
        the free room never grows, so the store must refuse instead of
        cleaning forever."""
        cfg = StoreConfig(
            n_segments=12, segment_units=8, fill_factor=0.5,
            clean_trigger=2, clean_batch=2, sort_buffer_segments=2,
        )
        store = LogStructuredStore(cfg, make_policy("mdc"))
        cycles = []
        clean = store.clean

        def counted(*args, **kwargs):
            cycles.append(1)
            assert len(cycles) < 100, "cleaning loops without progress"
            return clean(*args, **kwargs)

        store.clean = counted
        sizes = [(19, 8), (6, 5), (36, 4), (9, 8), (20, 8), (35, 5),
                 (38, 7), (15, 5), (41, 6), (40, 6), (46, 5), (14, 6)]
        with pytest.raises(OutOfSpaceError, match="not reclaiming"):
            for pid, size in sizes:
                store.write(pid, size)
            store.flush()
        store.check_invariants()

class TestSortBuffer:
    def test_buffered_pages_marked_in_buffer(self, buffered_config):
        store = LogStructuredStore(buffered_config, make_policy("mdc"))
        store.write(0)
        assert store.pages.seg[0] == IN_BUFFER
        assert 0 in store.buffer

    def test_flush_places_all_buffered_pages(self, buffered_config):
        store = LogStructuredStore(buffered_config, make_policy("mdc"))
        for pid in range(10):
            store.write(pid)
        store.flush()
        for pid in range(10):
            seg, _ = store.pages.location(pid)
            assert seg >= 0

    def test_rewrite_of_buffered_page_keeps_one_copy(self, buffered_config):
        store = LogStructuredStore(buffered_config, make_policy("mdc"))
        store.write(0)
        store.write(0)
        assert len(store.buffer) == 1
        assert store.stats.user_writes == 2

    def test_buffer_flushes_when_full(self, buffered_config):
        store = LogStructuredStore(buffered_config, make_policy("mdc"))
        cap = buffered_config.sort_buffer_segments * buffered_config.segment_units
        for pid in range(cap + 1):
            store.write(pid)
        # One overflow write forces a flush of the first `cap` pages.
        assert len(store.buffer) == 1
        seg, _ = store.pages.location(0)
        assert seg >= 0

    def test_policies_without_separation_skip_buffer(self, buffered_config):
        store = LogStructuredStore(buffered_config, make_policy("greedy"))
        assert store.buffer is None
        store = LogStructuredStore(
            buffered_config, make_policy("mdc-no-sep-user")
        )
        assert store.buffer is None


class TestOracle:
    def test_oracle_frequencies_tracked_per_segment(self, tiny_config):
        store = greedy_store(tiny_config)
        freqs = [0.125] * 8
        store.set_oracle_frequencies(freqs)
        for pid in range(8):
            store.write(pid)
        seg, _ = store.pages.location(0)
        assert store.segments.freq_sum[seg] == pytest.approx(1.0)

    def test_invalidation_subtracts_frequency(self, tiny_config):
        store = greedy_store(tiny_config)
        n = tiny_config.segment_units + 1
        store.set_oracle_frequencies([1.0 / n] * n)
        for pid in range(n):
            store.write(pid)
        seg0, _ = store.pages.location(0)
        assert store.segments.state[seg0] == SEALED
        before = store.segments.freq_sum[seg0]
        store.write(0)  # page 0 moves to the open segment
        assert store.segments.freq_sum[seg0] == pytest.approx(before - 1.0 / n)


class TestRaceRegressions:
    """The two stale-pointer bugs found during bring-up.

    1. A page whose old slot was invalidated but whose new version had
       not yet been placed must not be treated as live by a cleaning
       cycle that runs in between (it would be relocated *and* placed,
       leaking a phantom live slot).
    2. A policy whose GC shares streams with user writes must not leak
       OPEN segments when cleaning re-opens the stream a user emit was
       about to allocate for.

    Both manifest as invariant violations within a few thousand writes,
    so the regression test is simply a long-ish deterministic run with
    invariant checks, per policy, on a device small enough for constant
    cleaning.
    """

    @pytest.mark.parametrize(
        "policy_name", ["greedy", "mdc", "mdc-opt", "multi-log", "multi-log-opt"]
    )
    def test_invariants_hold_under_pressure(self, policy_name):
        cfg = StoreConfig(
            n_segments=32, segment_units=8, fill_factor=0.7,
            clean_trigger=2, clean_batch=2, sort_buffer_segments=1,
        )
        store = LogStructuredStore(cfg, make_policy(policy_name))
        n = cfg.user_pages
        if policy_name.endswith("-opt"):
            store.set_oracle_frequencies([1.0 / n] * n)
        store.load_sequential(n)
        # Deterministic skewed pattern: page i hit with period ~ i+1.
        for step in range(4000):
            store.write((step * step) % n)
            if step % 500 == 0:
                store.check_invariants()
        store.check_invariants()

    def test_open_segments_do_not_leak(self):
        cfg = StoreConfig(
            n_segments=32, segment_units=8, fill_factor=0.7,
            clean_trigger=4, clean_batch=2,
        )
        store = LogStructuredStore(cfg, make_policy("multi-log"))
        n = cfg.user_pages
        store.load_sequential(n)
        for step in range(5000):
            store.write((step * 7) % n)
        open_states = sum(1 for s in store.segments.state if s == 1)
        assert open_states == len(store.open_segments)


class TestIntrospection:
    def test_fill_factor_now_close_to_config(self, small_config):
        store = greedy_store(small_config)
        store.load_sequential(small_config.user_pages)
        assert store.fill_factor_now() == pytest.approx(
            small_config.fill_factor, abs=0.02
        )

    def test_repr_mentions_policy(self, tiny_config):
        store = greedy_store(tiny_config)
        assert "greedy" in repr(store)

    def test_live_page_count(self, tiny_config):
        store = greedy_store(tiny_config)
        store.write(0)
        store.write(1)
        store.write(0)
        assert store.live_page_count() == 2
