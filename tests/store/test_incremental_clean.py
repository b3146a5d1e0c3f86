"""The preemptible cleaning cycle: ``clean_begin`` / ``clean_step``.

Two equivalence obligations anchor this tier.  First, a cycle driven in
bounded steps with no foreground work in between must leave the store
**byte-identical** (same ``state_digest``) to the historical one-shot
``clean()`` — preemption may change *when* pages move, never *what* a
cycle does.  Second, when foreground writes do interleave with steps,
placement legitimately diverges from batch mode, but the store must
stay oracle-equivalent the whole way: live page set, per-page sizes,
and the paper's counter identities (Equation 2 in completed form, plus
append-flow conservation) hold at every preemption point.
"""

import numpy as np
import pytest

from repro.policies import make_policy
from repro.store import (
    IN_RELOCATION,
    IncrementalCleaner,
    LogStructuredStore,
    StoreConfig,
    StoreError,
)
from repro.testkit.oracle import OracleStore, verify_equivalence
from repro.testkit.trace import state_digest
from repro.workloads import HotColdWorkload, UniformWorkload, ZipfianWorkload

POLICIES = ["greedy", "cost-benefit", "mdc"]

WORKLOADS = {
    "uniform": lambda n, seed: UniformWorkload(n, seed=seed),
    "hot-cold": lambda n, seed: HotColdWorkload(n, seed=seed),
    "zipfian": lambda n, seed: ZipfianWorkload(n, seed=seed),
}


def make_cfg():
    return StoreConfig(
        n_segments=32,
        segment_units=8,
        fill_factor=0.65,
        clean_trigger=2,
        clean_batch=2,
    )


def make_store(policy_name):
    return LogStructuredStore(make_cfg(), make_policy(policy_name))


def preload(store, writes):
    for pid in writes:
        store.write(pid)


def workload_writes(kind, n_writes, seed):
    cfg = make_cfg()
    n_pages = cfg.user_pages
    wl = WORKLOADS[kind](n_pages, seed)
    out = []
    for batch in wl.batches(n_writes):
        out.extend(int(p) for p in batch)
    return out


class TestSteppedCycleEqualsBatch:
    """No-interleaving differential: chunked steps == one-shot clean."""

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("kind", sorted(WORKLOADS))
    @pytest.mark.parametrize("step", [1, 3, None])
    def test_digest_identical_across_step_sizes(self, policy, kind, step):
        writes = workload_writes(kind, 3000, seed=11)
        batch = make_store(policy)
        stepped = make_store(policy)
        preload(batch, writes)
        preload(stepped, writes)
        assert state_digest(batch) == state_digest(stepped)
        # Several explicit cycles, the second store always in steps.
        for _ in range(4):
            if batch.sealed_segments().size == 0:
                break
            batch.clean()
            stepped.clean_begin()
            while stepped.clean_cursor is not None:
                stepped.clean_step(step)
            assert state_digest(batch) == state_digest(stepped)
        batch.check_invariants()
        stepped.check_invariants()

    @pytest.mark.parametrize("seed", [0, 7, 23])
    def test_digest_identical_across_seeds(self, seed):
        writes = workload_writes("zipfian", 2500, seed=seed)
        batch = make_store("greedy")
        stepped = make_store("greedy")
        preload(batch, writes)
        preload(stepped, writes)
        for _ in range(3):
            if batch.sealed_segments().size == 0:
                break
            batch.clean()
            stepped.clean_begin()
            while stepped.clean_cursor is not None:
                stepped.clean_step(2)
        assert state_digest(batch) == state_digest(stepped)


class TestCursorMechanics:
    def _store_with_cursor(self):
        store = make_store("greedy")
        preload(store, workload_writes("uniform", 2000, seed=3))
        assert store.sealed_segments().size > 0
        store.clean_begin()
        return store

    def test_begin_while_active_raises(self):
        store = self._store_with_cursor()
        if store.clean_cursor is None:
            pytest.skip("victims had no live pages at this seed")
        with pytest.raises(StoreError):
            store.clean_begin()

    def test_step_budget_respected(self):
        store = self._store_with_cursor()
        pending = store.clean_pending
        if pending < 3:
            pytest.skip("cycle too small to bound at this seed")
        moved = store.clean_step(2)
        assert moved <= 2
        assert store.clean_pending == pending - moved

    def test_step_with_no_cursor_is_noop(self):
        store = make_store("greedy")
        assert store.clean_step(5) == 0
        assert store.clean_step(None) == 0

    def test_cycle_counted_once_on_finish(self):
        store = self._store_with_cursor()
        cycles_before = store.stats.clean_cycles
        while store.clean_cursor is not None:
            store.clean_step(1)
        assert store.stats.clean_cycles == cycles_before + 1

    def test_zero_live_victim_cycle_closes_immediately(self):
        # Seal segments then obsolete every page in them: the victims
        # stage nothing and the cycle must not linger half-open.
        store = make_store("greedy")
        s = store.config.segment_units
        for pid in range(2 * s):
            store.write(pid)
        for pid in range(2 * s):
            store.trim(pid)
        assert store.sealed_segments().size > 0
        store.clean_begin()
        store.clean_step(None)
        assert store.clean_cursor is None
        store.check_invariants()

    def test_staged_pages_marked_in_relocation(self):
        store = self._store_with_cursor()
        cur = store.clean_cursor
        if cur is None or cur.remaining == 0:
            pytest.skip("victims had no live pages at this seed")
        staged = cur.pending[cur.pos:]
        assert (store.pages.seg[staged] == IN_RELOCATION).all()

    def test_relocating_units_counted_in_fill_factor(self):
        store = self._store_with_cursor()
        if store.clean_pending == 0:
            pytest.skip("victims had no live pages at this seed")
        assert store.relocating_units() > 0
        live = int(store.segments.live_units.sum()) + store.relocating_units()
        assert store.fill_factor_now() == pytest.approx(
            live / store.config.device_units
        )

    def test_overwrite_of_staged_page_skip_credits(self):
        store = make_store("greedy")
        preload(store, workload_writes("uniform", 2000, seed=3))
        # Headroom first, so the probing write below cannot trip the
        # reactive path (which would drain the cursor before writing).
        while (
            store.free_segment_count < store.config.clean_trigger + 3
            and store.sealed_segments().size > 0
        ):
            store.clean()
        # A write that opens a fresh segment drains the cursor (the
        # allocation backstop), so leave room in the open segment for
        # the probing write below before the cycle begins.
        dummy = 0
        store.write(dummy)
        while (
            store.segments.used_units[int(store.pages.seg[dummy])]
            >= store.config.segment_units
        ):
            store.write(dummy)
        store.clean_begin()
        cur = store.clean_cursor
        if cur is None or cur.remaining == 0:
            pytest.skip("victims had no live pages at this seed")
        victim_pid = int(cur.pending[cur.pos])
        gc_before = store.stats.gc_writes
        store.write(victim_pid)  # obsoletes the staged copy
        assert store.pages.seg[victim_pid] != IN_RELOCATION
        assert store.relocating_dead_units() > 0
        store.clean_step(None)
        # The obsoleted copy was skipped, not relocated: gc_writes rose
        # by strictly less than the staged count would imply.
        assert store.stats.gc_writes - gc_before < len(cur.pending)
        store.check_invariants()


class TestInterleavedOracleEquivalence:
    """Steps interleaved with foreground writes: placement diverges
    from batch mode, the oracle contract must not."""

    @pytest.mark.parametrize("kind", sorted(WORKLOADS))
    def test_equivalence_at_every_checkpoint(self, kind):
        cfg = make_cfg()
        store = LogStructuredStore(cfg, make_policy("greedy"))
        oracle = OracleStore(cfg)
        cleaner = IncrementalCleaner(store, pages_per_step=3)
        writes = workload_writes(kind, 6000, seed=5)
        for i, pid in enumerate(writes):
            store.write(pid)
            oracle.write(pid)
            if i % 7 == 0:
                cleaner.step()
            if i % 500 == 499:
                store.check_invariants()
                assert verify_equivalence(store, oracle) == []
        # Finish whatever cycle is mid-flight and re-verify.
        store.clean_step(None)
        assert store.clean_cursor is None
        store.check_invariants()
        assert verify_equivalence(store, oracle) == []
        # Pages moved through the engine, so it began cycles of its own.
        assert cleaner.pages_relocated > 0

    def test_trims_interleaved_with_steps(self):
        cfg = make_cfg()
        store = LogStructuredStore(cfg, make_policy("greedy"))
        oracle = OracleStore(cfg)
        cleaner = IncrementalCleaner(store, pages_per_step=2)
        n = cfg.user_pages
        for i in range(4000):
            pid = (i * 13 + 5) % n
            if i % 9 == 8:
                store.trim(pid)
                oracle.trim(pid)
            else:
                store.write(pid)
                oracle.write(pid)
            if i % 5 == 0:
                cleaner.step()
        store.clean_step(None)
        assert store.clean_cursor is None
        store.check_invariants()
        assert verify_equivalence(store, oracle) == []


class TestIncrementalCleanerEngine:
    def test_rejects_nonpositive_step_budget(self):
        store = make_store("greedy")
        with pytest.raises(ValueError):
            IncrementalCleaner(store, pages_per_step=0)

    def test_default_free_target_above_trigger(self):
        store = make_store("greedy")
        cleaner = IncrementalCleaner(store)
        assert store.buffer is None
        assert cleaner.floor == store.reactive_trigger() + 1
        assert cleaner.floor > store.config.clean_trigger
        buffered = LogStructuredStore(
            make_cfg().scaled(sort_buffer_segments=3), make_policy("mdc")
        )
        assert buffered.buffer.capacity_units == 3 * 8
        assert IncrementalCleaner(buffered).floor == (
            buffered.reactive_trigger() + 1 + 3
        )

    def test_no_work_when_pool_healthy(self):
        store = make_store("greedy")
        cleaner = IncrementalCleaner(store)
        assert not cleaner.needs_cleaning()
        assert cleaner.step() == 0
        assert cleaner.pages_relocated == 0
        assert store.clean_cursor is None

    def test_steps_restore_free_target(self):
        store = make_store("greedy")
        preload(store, workload_writes("uniform", 2500, seed=9))
        cleaner = IncrementalCleaner(store, pages_per_step=4)
        guard = 0
        while cleaner.needs_cleaning() and guard < 500:
            cleaner.step()
            guard += 1
        assert store.free_segment_count >= cleaner.floor
        assert store.clean_cursor is None
        store.check_invariants()

    def test_behind_tracks_reactive_trigger(self):
        store = make_store("greedy")
        cleaner = IncrementalCleaner(store)
        assert not cleaner.behind()  # fresh store: whole pool free

    def test_floor_follows_a_growing_trigger(self):
        """Multi-log's trigger grows with its classes (``min_free_target``
        = classes + 2); a floor read once at construction would fall
        below it, and a cleaner that never sees a deficit never cleans."""
        cfg = StoreConfig(
            n_segments=48,
            segment_units=16,
            fill_factor=0.6,
            clean_trigger=2,
            clean_batch=1,
        )
        store = LogStructuredStore(cfg, make_policy("multi-log"))
        cleaner = IncrementalCleaner(store)
        trigger0 = store.reactive_trigger()
        store.load_sequential(cfg.user_pages)
        rng = np.random.default_rng(1)
        hot = cfg.user_pages // 5
        moved = 0
        for _ in range(200):
            pids = np.where(
                rng.random(20) < 0.8,
                rng.integers(0, hot, 20),
                rng.integers(0, cfg.user_pages, 20),
            )
            store.write_batch(pids)
            assert cleaner.floor == store.reactive_trigger() + 1
            moved += cleaner.step()
        assert store.reactive_trigger() > trigger0 + 1
        assert cleaner.floor > store.reactive_trigger()
        assert moved > 0
        assert cleaner.pages_relocated == moved
        store.check_invariants()

    def test_legacy_clean_still_whole_cycle(self):
        """``clean()`` remains the one-shot API: no cursor survives it."""
        store = make_store("greedy")
        preload(store, workload_writes("uniform", 2500, seed=9))
        if store.sealed_segments().size == 0:
            pytest.skip("nothing sealed at this seed")
        store.clean()
        assert store.clean_cursor is None
        assert store.clean_pending == 0
